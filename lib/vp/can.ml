type t = {
  env : Env.t;
  name : string;
  port : string;
  clearance : int option;  (* the port's output clearance, if declared *)
  txd : Bytes.t;
  txd_tags : Bytes.t;
  rxd : Bytes.t;
  rxd_tags : Bytes.t;
  mutable rx_valid : bool;
  rx_fifo : (string * int) Queue.t;
  mutable tx_log : string list;  (* newest first *)
  mutable on_tx : string -> unit;
  mutable irq : unit -> unit;
  latency : Sysc.Time.t;
}

let create env ~name ~port =
  {
    env;
    name;
    port;
    clearance = Dift.Policy.output_required env.Env.policy port;
    txd = Bytes.make 8 '\000';
    txd_tags = Bytes.make 8 (Char.chr env.Env.pub);
    rxd = Bytes.make 8 '\000';
    rxd_tags = Bytes.make 8 (Char.chr env.Env.pub);
    rx_valid = false;
    rx_fifo = Queue.create ();
    tx_log = [];
    on_tx = (fun _ -> ());
    irq = (fun () -> ());
    latency = Sysc.Time.ns 200;
  }

let set_irq_callback c fn = c.irq <- fn
let set_tx_callback c fn = c.on_tx <- fn
let tx_frames c = List.rev c.tx_log
let rx_pending c = Queue.length c.rx_fifo + if c.rx_valid then 1 else 0

let load_rx c =
  match Queue.take_opt c.rx_fifo with
  | Some (frame, tag) ->
      Bytes.blit_string frame 0 c.rxd 0 8;
      Bytes.fill c.rxd_tags 0 8 (Char.chr tag);
      c.rx_valid <- true
  | None -> c.rx_valid <- false

let push_rx_frame c ?tag frame =
  let tag =
    match tag with Some t -> t | None -> c.env.Env.policy.Dift.Policy.default_tag
  in
  let padded =
    if String.length frame >= 8 then String.sub frame 0 8
    else frame ^ String.make (8 - String.length frame) '\000'
  in
  Env.taint_source c.env ~origin:(c.name ^ ".rx") tag;
  Queue.push (padded, tag) c.rx_fifo;
  if not c.rx_valid then load_rx c;
  c.irq ()

let send c =
  let frame = Bytes.to_string c.txd in
  c.tx_log <- frame :: c.tx_log;
  c.on_tx frame

let transport c (p : Tlm.Payload.t) delay =
  let len = Tlm.Payload.length p in
  let addr = p.Tlm.Payload.addr in
  p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
  (match p.Tlm.Payload.cmd with
  | Tlm.Payload.Write when addr + len <= 8 ->
      for i = 0 to len - 1 do
        let tag = Tlm.Payload.get_tag p i in
        (* The CAN bus is an output interface: check clearance per byte. *)
        (match c.clearance with
        | Some required when Env.refused c.env tag required ->
            Env.violation c.env ~kind:(Dift.Violation.Output_clearance c.port)
              ~data_tag:tag ~required
              (Printf.sprintf "%s tx byte %d" c.name (addr + i))
        | _ -> ());
        Bytes.set c.txd (addr + i) (Char.chr (Tlm.Payload.get_byte p i));
        Bytes.set c.txd_tags (addr + i) (Char.chr tag)
      done
  | Tlm.Payload.Write when addr = 0x08 ->
      if Tlm.Payload.get_byte p 0 land 1 <> 0 then send c
  | Tlm.Payload.Read when addr = 0x08 ->
      Tlm.Payload.set_value p 1 ~tag:c.env.Env.pub (* tx always ready *)
  | Tlm.Payload.Read when addr >= 0x10 && addr + len <= 0x18 ->
      for i = 0 to len - 1 do
        let o = addr + i - 0x10 in
        Tlm.Payload.set_byte p i (Char.code (Bytes.get c.rxd o));
        Tlm.Payload.set_tag p i (Char.code (Bytes.get c.rxd_tags o))
      done
  | Tlm.Payload.Read when addr = 0x18 ->
      Tlm.Payload.set_value p (rx_pending c land 0xff) ~tag:c.env.Env.pub
  | Tlm.Payload.Write when addr = 0x18 ->
      if Tlm.Payload.get_byte p 0 land 1 <> 0 then load_rx c
  | Tlm.Payload.Read | Tlm.Payload.Write ->
      p.Tlm.Payload.resp <- Tlm.Payload.Command_error);
  Sysc.Time.add delay c.latency

let socket c = Tlm.Socket.target ~name:c.name (transport c)

let put_fixed w b = Snapshot.Codec.put_string w (Bytes.to_string b)

let get_fixed r dst =
  let str = Snapshot.Codec.get_string r in
  if String.length str <> Bytes.length dst then
    raise (Snapshot.Codec.Corrupt "can buffer length");
  Bytes.blit_string str 0 dst 0 (String.length str)

let save c w =
  let open Snapshot.Codec in
  put_fixed w c.txd;
  put_fixed w c.txd_tags;
  put_fixed w c.rxd;
  put_fixed w c.rxd_tags;
  put_bool w c.rx_valid;
  put_list w
    (fun w (frame, tag) ->
      put_string w frame;
      put_u8 w tag)
    (List.of_seq (Queue.to_seq c.rx_fifo));
  put_list w put_string (List.rev c.tx_log)

let load c r =
  let open Snapshot.Codec in
  get_fixed r c.txd;
  get_fixed r c.txd_tags;
  get_fixed r c.rxd;
  get_fixed r c.rxd_tags;
  c.rx_valid <- get_bool r;
  Queue.clear c.rx_fifo;
  List.iter
    (fun ft -> Queue.push ft c.rx_fifo)
    (get_list r (fun r ->
         let frame = get_string r in
         let tag = get_u8 r in
         (frame, tag)));
  c.tx_log <- List.rev (get_list r get_string)
