type t = {
  env : Env.t;
  name : string;
  port : string;
  rx : (int * int) Queue.t;  (* byte, tag *)
  mutable tx : (char * int) list;  (* newest first *)
  mutable irq_en : bool;
  mutable irq : bool -> unit;
  latency : Sysc.Time.t;
}

let create env ~name ~port =
  {
    env;
    name;
    port;
    rx = Queue.create ();
    tx = [];
    irq_en = false;
    irq = (fun _ -> ());
    latency = Sysc.Time.ns 100;
  }

let set_irq_callback u fn = u.irq <- fn

let update_irq u = u.irq (u.irq_en && not (Queue.is_empty u.rx))

let push_rx u ?tag s =
  let tag =
    match tag with Some t -> t | None -> u.env.Env.policy.Dift.Policy.default_tag
  in
  if s <> "" then Env.taint_source u.env ~origin:(u.name ^ ".rx") tag;
  String.iter (fun c -> Queue.push (Char.code c, tag) u.rx) s;
  update_irq u

let rx_pending u = Queue.length u.rx

let tx_string u =
  let b = Buffer.create (List.length u.tx) in
  List.iter (fun (c, _) -> Buffer.add_char b c) (List.rev u.tx);
  Buffer.contents b

let transport u (p : Tlm.Payload.t) delay =
  let ok () = p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp in
  let err () = p.Tlm.Payload.resp <- Tlm.Payload.Command_error in
  (match (p.Tlm.Payload.addr, p.Tlm.Payload.cmd) with
  | 0x00, Tlm.Payload.Write ->
      let byte = Tlm.Payload.get_byte p 0 in
      let tag = Tlm.Payload.get_tag p 0 in
      Env.check_output u.env ~port:u.port ~data_tag:tag
        ~detail:(Printf.sprintf "%s tx byte 0x%02x" u.name byte);
      u.tx <- (Char.chr byte, tag) :: u.tx;
      ok ()
  | 0x04, Tlm.Payload.Read ->
      let byte, tag =
        match Queue.take_opt u.rx with Some bt -> bt | None -> (0, u.env.Env.pub)
      in
      Tlm.Payload.set_byte p 0 byte;
      Tlm.Payload.set_tag p 0 tag;
      for i = 1 to Tlm.Payload.length p - 1 do
        Tlm.Payload.set_byte p i 0;
        Tlm.Payload.set_tag p i u.env.Env.pub
      done;
      update_irq u;
      ok ()
  | 0x08, Tlm.Payload.Read ->
      let status = (if Queue.is_empty u.rx then 0 else 1) lor 2 in
      Tlm.Payload.set_byte p 0 status;
      for i = 1 to Tlm.Payload.length p - 1 do
        Tlm.Payload.set_byte p i 0
      done;
      Tlm.Payload.set_all_tags p u.env.Env.pub;
      ok ()
  | 0x0c, Tlm.Payload.Read ->
      Tlm.Payload.set_byte p 0 (if u.irq_en then 1 else 0);
      for i = 1 to Tlm.Payload.length p - 1 do
        Tlm.Payload.set_byte p i 0
      done;
      Tlm.Payload.set_all_tags p u.env.Env.pub;
      ok ()
  | 0x0c, Tlm.Payload.Write ->
      u.irq_en <- Tlm.Payload.get_byte p 0 land 1 <> 0;
      update_irq u;
      ok ()
  | _, _ -> err ());
  Sysc.Time.add delay u.latency

let socket u = Tlm.Socket.target ~name:u.name (transport u)

let save u w =
  let open Snapshot.Codec in
  put_list w
    (fun w (byte, tag) ->
      put_u8 w byte;
      put_u8 w tag)
    (List.of_seq (Queue.to_seq u.rx));
  put_list w
    (fun w (c, tag) ->
      put_u8 w (Char.code c);
      put_u8 w tag)
    (List.rev u.tx);
  put_bool w u.irq_en

let load u r =
  let open Snapshot.Codec in
  Queue.clear u.rx;
  List.iter
    (fun bt -> Queue.push bt u.rx)
    (get_list r (fun r ->
         let byte = get_u8 r in
         let tag = get_u8 r in
         (byte, tag)));
  u.tx <-
    List.rev
      (get_list r (fun r ->
           let c = Char.chr (get_u8 r) in
           let tag = get_u8 r in
           (c, tag)));
  u.irq_en <- get_bool r
