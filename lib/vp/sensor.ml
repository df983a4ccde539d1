type t = {
  env : Env.t;
  name : string;
  period : Sysc.Time.t;
  frame : Bytes.t;  (* 64 data bytes *)
  frame_tags : Bytes.t;
  mutable tag : int;
  mutable rng : int;
  mutable irq : unit -> unit;
  mutable frames : int;
  (* The periodic refill runs off a named kernel event rather than
     [wait_for], so the pending tick is serialisable kernel state and a
     restored run ticks at the same instants as an uninterrupted one. *)
  tick_ev : Sysc.Kernel.event;
  latency : Sysc.Time.t;
}

let frame_size = 64

let create env ~name ?(period = Sysc.Time.ms 25) () =
  {
    env;
    name;
    period;
    frame = Bytes.make frame_size '\000';
    frame_tags = Bytes.make frame_size (Char.chr env.Env.pub);
    tag = env.Env.policy.Dift.Policy.default_tag;
    rng = 0x2545f491;
    irq = (fun () -> ());
    frames = 0;
    tick_ev = Sysc.Kernel.create_event env.Env.kernel (name ^ ".tick");
    latency = Sysc.Time.ns 50;
  }

let set_irq_callback s fn = s.irq <- fn
let set_data_tag s tag = s.tag <- tag
let data_tag s = s.tag
let frames_generated s = s.frames

(* xorshift32: deterministic stand-in for the paper's rand(). *)
let next_rand s =
  let x = s.rng in
  let x = x lxor (x lsl 13) land 0xffffffff in
  let x = x lxor (x lsr 17) in
  let x = x lxor (x lsl 5) land 0xffffffff in
  s.rng <- x;
  x

let refill s =
  Env.taint_source s.env ~origin:s.name s.tag;
  let c = Char.chr s.tag in
  for i = 0 to frame_size - 1 do
    (* Fig. 4 line 21: random data of the configured security class. *)
    Bytes.set_uint8 s.frame i ((next_rand s mod 96) + 128);
    Bytes.set s.frame_tags i c
  done;
  s.frames <- s.frames + 1;
  s.irq ()

let start s =
  (* The override rule makes this arm a no-op after a restore: the saved
     (earlier-or-equal) tick notification is re-armed first and wins. *)
  Sysc.Kernel.notify_after s.tick_ev s.period;
  Sysc.Kernel.spawn s.env.Env.kernel ~name:(s.name ^ ".run") (fun () ->
      while not (Sysc.Kernel.stopped s.env.Env.kernel) do
        Sysc.Kernel.wait_event s.tick_ev;
        refill s;
        Sysc.Kernel.notify_after s.tick_ev s.period
      done)

let transport s (p : Tlm.Payload.t) delay =
  let len = Tlm.Payload.length p in
  let addr = p.Tlm.Payload.addr in
  (if addr + len <= frame_size then begin
     (match p.Tlm.Payload.cmd with
     | Tlm.Payload.Read when len = 1 ->
         (* The firmware reads the frame a byte at a time: no blit call. *)
         Bytes.set p.Tlm.Payload.data 0 (Bytes.get s.frame addr);
         Bytes.set p.Tlm.Payload.tags 0 (Bytes.get s.frame_tags addr)
     | Tlm.Payload.Read ->
         Bytes.blit s.frame addr p.Tlm.Payload.data 0 len;
         Bytes.blit s.frame_tags addr p.Tlm.Payload.tags 0 len
     | Tlm.Payload.Write ->
         Bytes.blit p.Tlm.Payload.data 0 s.frame addr len;
         Bytes.blit p.Tlm.Payload.tags 0 s.frame_tags addr len);
     p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp
   end
   else if addr = 0x40 then begin
     match p.Tlm.Payload.cmd with
     | Tlm.Payload.Read ->
         (* The configured class itself is not confidential (Fig. 4 l.45). *)
         Tlm.Payload.set_value p s.tag ~tag:s.env.Env.pub;
         p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp
     | Tlm.Payload.Write ->
         (* A class the lattice does not have would tag the next frame
            with an index past its tables: refuse it. *)
         let tag = Tlm.Payload.get_byte p 0 in
         if tag < Dift.Lattice.size s.env.Env.lat then begin
           s.tag <- tag;
           p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp
         end
         else p.Tlm.Payload.resp <- Tlm.Payload.Command_error
   end
   else p.Tlm.Payload.resp <- Tlm.Payload.Command_error);
  Sysc.Time.add delay s.latency

let socket s = Tlm.Socket.target ~name:s.name (transport s)

let save s w =
  let open Snapshot.Codec in
  put_u8 w s.tag;
  put_u32 w s.rng;
  put_i64 w s.frames;
  put_string w (Bytes.to_string s.frame);
  put_string w (Bytes.to_string s.frame_tags)

let load s r =
  let open Snapshot.Codec in
  let ntags = Dift.Lattice.size s.env.Env.lat in
  let tag = get_u8 r in
  if tag >= ntags then
    raise
      (Corrupt
         (Printf.sprintf "sensor class %d not below the lattice's %d classes"
            tag ntags));
  s.tag <- tag;
  s.rng <- get_u32 r;
  s.frames <- get_i64 r;
  let blit_into dst str =
    if String.length str <> Bytes.length dst then
      raise (Corrupt "sensor frame length");
    Bytes.blit_string str 0 dst 0 (String.length str)
  in
  blit_into s.frame (get_string r);
  let tags = get_string r in
  if String.exists (fun c -> Char.code c >= ntags) tags then
    raise (Corrupt "sensor frame tag not below the lattice's size");
  blit_into s.frame_tags tags
