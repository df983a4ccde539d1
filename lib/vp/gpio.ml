type t = {
  env : Env.t;
  name : string;
  port : string;
  clearance : int option;  (* the port's output clearance, if declared *)
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
    clearance = Dift.Policy.output_required env.Env.policy port;
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
  p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
  (match (p.Tlm.Payload.addr, p.Tlm.Payload.cmd) with
  | 0x00, Tlm.Payload.Read -> Tlm.Payload.set_value p g.dir ~tag:g.env.Env.pub
  | 0x00, Tlm.Payload.Write -> g.dir <- Tlm.Payload.value p
  | 0x04, Tlm.Payload.Read -> Tlm.Payload.set_value p g.out ~tag:g.out_tag
  | 0x04, Tlm.Payload.Write ->
      let tag = Tlm.Payload.lub_tag g.env.Env.lat p in
      (match g.clearance with
      | Some required when Env.refused g.env tag required ->
          Env.violation g.env ~kind:(Dift.Violation.Output_clearance g.port)
            ~data_tag:tag ~required (g.name ^ " output latch")
      | _ -> ());
      g.out <- Tlm.Payload.value p land g.dir;
      g.out_tag <- tag
  | 0x08, Tlm.Payload.Read -> Tlm.Payload.set_value p g.inp ~tag:g.inp_tag
  | 0x0c, Tlm.Payload.Read ->
      Tlm.Payload.set_value p g.rise ~tag:g.inp_tag;
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
