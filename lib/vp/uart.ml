(* Bytes logged per transmit-log chunk. With their tags a chunk is
   512 bytes, 65 words: the runtime keeps blocks of up to 128 words in
   its own pools and hands larger ones to malloc. *)
let chunk_bytes = 256

type t = {
  env : Env.t;
  name : string;
  port : string;
  clearance : int option;  (* the port's output clearance, if declared *)
  rx : (int * int) Queue.t;  (* byte, tag *)
  (* Transmit log: filled chunks newest first, then the chunk being
     filled; two bytes per logged byte, in small heap blocks. A sensor
     run transmits about 100 KB, which a list of pairs would hold as
     5 MB of heap and one growing buffer as ever larger C-heap blocks. *)
  mutable tx_full : Bytes.t list;
  mutable tx_cur : Bytes.t;
  mutable tx_len : int;  (* bytes logged in [tx_cur] *)
  mutable irq_en : bool;
  mutable irq : bool -> unit;
  latency : Sysc.Time.t;
}

let create env ~name ~port =
  {
    env;
    name;
    port;
    clearance = Dift.Policy.output_required env.Env.policy port;
    rx = Queue.create ();
    tx_full = [];
    tx_cur = Bytes.create (2 * chunk_bytes);
    tx_len = 0;
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

let log_tx u byte tag =
  if u.tx_len = chunk_bytes then begin
    u.tx_full <- u.tx_cur :: u.tx_full;
    u.tx_cur <- Bytes.create (2 * chunk_bytes);
    u.tx_len <- 0
  end;
  Bytes.set_uint8 u.tx_cur (2 * u.tx_len) byte;
  Bytes.set_uint8 u.tx_cur ((2 * u.tx_len) + 1) (tag land 0xff);
  u.tx_len <- u.tx_len + 1

(* [f byte tag] over the log, in transmission order. *)
let tx_iter u f =
  let chunk c n =
    for i = 0 to n - 1 do
      f (Bytes.get_uint8 c (2 * i)) (Bytes.get_uint8 c ((2 * i) + 1))
    done
  in
  List.iter (fun c -> chunk c chunk_bytes) (List.rev u.tx_full);
  chunk u.tx_cur u.tx_len

let tx_string u =
  let s = Bytes.create ((List.length u.tx_full * chunk_bytes) + u.tx_len) in
  let i = ref 0 in
  tx_iter u (fun byte _ ->
      Bytes.set_uint8 s !i byte;
      incr i);
  Bytes.unsafe_to_string s

let transport u (p : Tlm.Payload.t) delay =
  let pub = u.env.Env.pub in
  p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
  (match (p.Tlm.Payload.addr, p.Tlm.Payload.cmd) with
  | 0x00, Tlm.Payload.Write ->
      let byte = Tlm.Payload.get_byte p 0 in
      let tag = Tlm.Payload.get_tag p 0 in
      (match u.clearance with
      | Some required when Env.refused u.env tag required ->
          Env.violation u.env ~kind:(Dift.Violation.Output_clearance u.port)
            ~data_tag:tag ~required
            (Printf.sprintf "%s tx byte 0x%02x" u.name byte)
      | _ -> ());
      log_tx u byte tag
  | 0x04, Tlm.Payload.Read ->
      (* An empty fifo reads 0, public. *)
      if Queue.is_empty u.rx then Tlm.Payload.set_value p 0 ~tag:pub
      else begin
        let byte, tag = Queue.take u.rx in
        Tlm.Payload.set_value p byte ~tag:pub;
        Tlm.Payload.set_tag p 0 tag
      end;
      update_irq u
  | 0x08, Tlm.Payload.Read ->
      let status = (if Queue.is_empty u.rx then 0 else 1) lor 2 in
      Tlm.Payload.set_value p status ~tag:pub
  | 0x0c, Tlm.Payload.Read ->
      Tlm.Payload.set_value p (if u.irq_en then 1 else 0) ~tag:pub
  | 0x0c, Tlm.Payload.Write ->
      u.irq_en <- Tlm.Payload.get_byte p 0 land 1 <> 0;
      update_irq u
  | _, _ -> p.Tlm.Payload.resp <- Tlm.Payload.Command_error);
  Sysc.Time.add delay u.latency

let socket u = Tlm.Socket.target ~name:u.name (transport u)

(* Both queues are saved as lists of (byte, tag) pairs. *)
let put_pair w (byte, tag) =
  Snapshot.Codec.put_u8 w byte;
  Snapshot.Codec.put_u8 w tag

let get_pair r =
  let byte = Snapshot.Codec.get_u8 r in
  let tag = Snapshot.Codec.get_u8 r in
  (byte, tag)

let save u w =
  let open Snapshot.Codec in
  put_list w put_pair (List.of_seq (Queue.to_seq u.rx));
  let tx = ref [] in
  tx_iter u (fun byte tag -> tx := (byte, tag) :: !tx);
  put_list w put_pair (List.rev !tx);
  put_bool w u.irq_en

let load u r =
  let open Snapshot.Codec in
  Queue.clear u.rx;
  List.iter (fun bt -> Queue.push bt u.rx) (get_list r get_pair);
  u.tx_full <- [];
  u.tx_len <- 0;
  List.iter (fun (byte, tag) -> log_tx u byte tag) (get_list r get_pair);
  u.irq_en <- get_bool r
