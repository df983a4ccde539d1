type t = {
  env : Env.t;
  name : string;
  port : string;
  mutable dir : int;  (* 1 = output *)
  mutable out : int;
  mutable out_tag : int;
  mutable inp : int;
  mutable inp_tag : int;
  mutable rise : int;
  mutable irq : unit -> unit;
  latency : Sysc.Time.t;
}

let create env ~name ~port =
  {
    env;
    name;
    port;
    dir = 0;
    out = 0;
    out_tag = env.Env.pub;
    inp = 0;
    inp_tag = env.Env.pub;
    rise = 0;
    irq = (fun () -> ());
    latency = Sysc.Time.ns 30;
  }

let set_irq_callback g fn = g.irq <- fn

let drive_input g ~pin ?tag level =
  if pin < 0 || pin > 31 then invalid_arg "Gpio.drive_input: pin out of range";
  let tag =
    match tag with Some t -> t | None -> g.env.Env.policy.Dift.Policy.default_tag
  in
  let old = g.inp in
  let bit = 1 lsl pin in
  g.inp <- (if level then old lor bit else old land lnot bit land 0xffffffff);
  g.inp_tag <- Dift.Lattice.lub g.env.Env.lat g.inp_tag tag;
  if level && old land bit = 0 then begin
    g.rise <- g.rise lor bit;
    g.irq ()
  end

let output_levels g = g.out

let transport g (p : Tlm.Payload.t) delay =
  let len = Tlm.Payload.length p in
  let get () =
    let v = ref 0 in
    for i = len - 1 downto 0 do
      v := (!v lsl 8) lor Tlm.Payload.get_byte p i
    done;
    !v
  in
  let word_tag () =
    let t = ref (Tlm.Payload.get_tag p 0) in
    for i = 1 to len - 1 do
      t := Dift.Lattice.lub g.env.Env.lat !t (Tlm.Payload.get_tag p i)
    done;
    !t
  in
  let put v tag =
    for i = 0 to len - 1 do
      Tlm.Payload.set_byte p i ((v lsr (8 * i)) land 0xff)
    done;
    Tlm.Payload.set_all_tags p tag
  in
  p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
  (match (p.Tlm.Payload.addr, p.Tlm.Payload.cmd) with
  | 0x00, Tlm.Payload.Read -> put g.dir g.env.Env.pub
  | 0x00, Tlm.Payload.Write -> g.dir <- get ()
  | 0x04, Tlm.Payload.Read -> put g.out g.out_tag
  | 0x04, Tlm.Payload.Write ->
      let tag = word_tag () in
      Env.check_output g.env ~port:g.port ~data_tag:tag
        ~detail:(Printf.sprintf "%s output latch" g.name);
      g.out <- get () land g.dir;
      g.out_tag <- tag
  | 0x08, Tlm.Payload.Read -> put g.inp g.inp_tag
  | 0x0c, Tlm.Payload.Read ->
      put g.rise g.inp_tag;
      g.rise <- 0
  | (0x08 | 0x0c), Tlm.Payload.Write -> () (* read-only, writes ignored *)
  | _, _ -> p.Tlm.Payload.resp <- Tlm.Payload.Command_error);
  Sysc.Time.add delay g.latency

let socket g = Tlm.Socket.target ~name:g.name (transport g)

let save g w =
  let open Snapshot.Codec in
  put_u32 w g.dir;
  put_u32 w g.out;
  put_u8 w g.out_tag;
  put_u32 w g.inp;
  put_u8 w g.inp_tag;
  put_u32 w g.rise

let load g r =
  let open Snapshot.Codec in
  g.dir <- get_u32 r;
  g.out <- get_u32 r;
  g.out_tag <- get_u8 r;
  g.inp <- get_u32 r;
  g.inp_tag <- get_u8 r;
  g.rise <- get_u32 r
