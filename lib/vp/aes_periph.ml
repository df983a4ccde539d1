type t = {
  env : Env.t;
  name : string;
  out_tag : int;
  in_clearance : int option;
  key : Bytes.t;
  key_tags : Bytes.t;
  din : Bytes.t;
  din_tags : Bytes.t;
  dout : Bytes.t;
  mutable busy : bool;
  (* [in_flight] spans the modelled encryption latency; the actual
     encryption (and the declassification it implies) happens when
     [done_ev] fires, so a snapshot taken mid-operation re-runs it from
     the restored key/din buffers rather than losing it. *)
  mutable in_flight : bool;
  mutable count : int;
  mutable irq : unit -> unit;
  start_ev : Sysc.Kernel.event;
  done_ev : Sysc.Kernel.event;
}

(* The modelled encryption time. *)
let latency = Sysc.Time.us 2

let create env ~name ~out_tag ?in_clearance () =
  {
    env;
    name;
    out_tag;
    in_clearance;
    key = Bytes.make 16 '\000';
    key_tags = Bytes.make 16 (Char.chr env.Env.pub);
    din = Bytes.make 16 '\000';
    din_tags = Bytes.make 16 (Char.chr env.Env.pub);
    dout = Bytes.make 16 '\000';
    busy = false;
    in_flight = false;
    count = 0;
    irq = (fun () -> ());
    start_ev = Sysc.Kernel.create_event env.Env.kernel (name ^ ".start");
    done_ev = Sysc.Kernel.create_event env.Env.kernel (name ^ ".done");
  }

let set_irq_callback a fn = a.irq <- fn
let busy a = a.busy
let encryptions a = a.count

let encrypt a =
  let key = Bytes.to_string a.key in
  let pt = Bytes.to_string a.din in
  let ct = Crypto.Aes128.encrypt_block (Crypto.Aes128.expand key) pt in
  Bytes.blit_string ct 0 a.dout 0 16;
  (* Declassification: the ciphertext no longer carries the key's or
     plaintext's class — only trusted hardware may do this. *)
  let from_tag = ref (Char.code (Bytes.get a.key_tags 0)) in
  Bytes.iter
    (fun c -> from_tag := Dift.Lattice.lub a.env.Env.lat !from_tag (Char.code c))
    a.din_tags;
  ignore (Env.declassify a.env ~where:a.name ~from_tag:!from_tag a.out_tag);
  (* The ciphertext's class is introduced here, whatever went in. *)
  Env.taint_source a.env ~origin:a.name a.out_tag;
  Env.taint_via a.env ~channel:a.name !from_tag;
  a.count <- a.count + 1

let start a =
  Sysc.Kernel.spawn a.env.Env.kernel ~name:(a.name ^ ".engine") (fun () ->
      while not (Sysc.Kernel.stopped a.env.Env.kernel) do
        if a.in_flight then begin
          Sysc.Kernel.wait_event a.done_ev;
          encrypt a;
          a.busy <- false;
          a.in_flight <- false;
          a.irq ()
        end
        else begin
          Sysc.Kernel.wait_event a.start_ev;
          if a.busy then begin
            a.in_flight <- true;
            Sysc.Kernel.notify_after a.done_ev latency
          end
        end
      done)

let transport a (p : Tlm.Payload.t) delay =
  let len = Tlm.Payload.length p in
  let addr = p.Tlm.Payload.addr in
  p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
  (match p.Tlm.Payload.cmd with
  | Tlm.Payload.Write when addr + len <= 0x10 ->
      for i = 0 to len - 1 do
        let tag = Tlm.Payload.get_tag p i in
        (match a.in_clearance with
        | Some required when Env.refused a.env tag required ->
            Env.violation a.env
              ~kind:(Dift.Violation.Custom (a.name ^ "-input"))
              ~data_tag:tag ~required
              (Printf.sprintf "key byte %d" (addr + i))
        | _ -> ());
        Bytes.set a.key (addr + i) (Char.chr (Tlm.Payload.get_byte p i));
        Bytes.set a.key_tags (addr + i) (Char.chr tag)
      done
  | Tlm.Payload.Write when addr >= 0x10 && addr + len <= 0x20 ->
      (* Plaintext input is not clearance-checked: the whole point of the
         peripheral is to accept untrusted challenges and classified keys
         and emit declassified ciphertext. *)
      for i = 0 to len - 1 do
        let o = addr + i - 0x10 in
        Bytes.set a.din o (Char.chr (Tlm.Payload.get_byte p i));
        Bytes.set a.din_tags o (Char.chr (Tlm.Payload.get_tag p i))
      done
  | Tlm.Payload.Read when addr >= 0x20 && addr + len <= 0x30 ->
      for i = 0 to len - 1 do
        Tlm.Payload.set_byte p i (Char.code (Bytes.get a.dout (addr + i - 0x20)));
        Tlm.Payload.set_tag p i a.out_tag
      done
  | Tlm.Payload.Write when addr = 0x30 ->
      if Tlm.Payload.get_byte p 0 land 1 <> 0 && not a.busy then begin
        a.busy <- true;
        Sysc.Kernel.notify a.start_ev
      end
  | Tlm.Payload.Read when addr = 0x30 ->
      Tlm.Payload.set_value p (if a.busy then 1 else 0) ~tag:a.env.Env.pub
  | Tlm.Payload.Read | Tlm.Payload.Write ->
      p.Tlm.Payload.resp <- Tlm.Payload.Command_error);
  Sysc.Time.add delay (Sysc.Time.ns 50)

let socket a = Tlm.Socket.target ~name:a.name (transport a)

let put_fixed w b = Snapshot.Codec.put_string w (Bytes.to_string b)

let get_fixed r dst =
  let str = Snapshot.Codec.get_string r in
  if String.length str <> Bytes.length dst then
    raise (Snapshot.Codec.Corrupt "aes buffer length");
  Bytes.blit_string str 0 dst 0 (String.length str)

let save a w =
  let open Snapshot.Codec in
  put_fixed w a.key;
  put_fixed w a.key_tags;
  put_fixed w a.din;
  put_fixed w a.din_tags;
  put_fixed w a.dout;
  put_bool w a.busy;
  put_bool w a.in_flight;
  put_i64 w a.count

let load a r =
  let open Snapshot.Codec in
  get_fixed r a.key;
  get_fixed r a.key_tags;
  get_fixed r a.din;
  get_fixed r a.din_tags;
  get_fixed r a.dout;
  a.busy <- get_bool r;
  a.in_flight <- get_bool r;
  a.count <- get_i64 r
