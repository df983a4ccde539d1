type t = {
  env : Env.t;
  name : string;
  (* mtimecmp is architecturally a 64-bit register written as two 32-bit
     halves. It is kept as its halves: composing into one OCaml int is
     exactly the historical bug — [hi lsl 32] overflows the 63-bit int for
     hi >= 0x8000_0000 (including the old [max_int] reset value), going
     negative and asserting the timer interrupt spuriously mid-update. *)
  mutable cmp_lo : int;
  mutable cmp_hi : int;
  mutable msip : bool;
  mutable timer_irq : bool -> unit;
  mutable soft_irq : bool -> unit;
  wake : Sysc.Kernel.event;
  latency : Sysc.Time.t;
}

(* One mtime tick per microsecond. *)
let tick = Sysc.Time.us 1

let create env ~name () =
  {
    env;
    name;
    (* Reset to all-ones = "never" (the conventional RISC-V idle value,
       and what firmware writes to park the timer). *)
    cmp_lo = 0xffffffff;
    cmp_hi = 0xffffffff;
    msip = false;
    timer_irq = (fun _ -> ());
    soft_irq = (fun _ -> ());
    wake = Sysc.Kernel.create_event env.Env.kernel (name ^ ".wake");
    latency = Sysc.Time.ns 20;
  }

let set_timer_irq_callback c fn = c.timer_irq <- fn
let set_soft_irq_callback c fn = c.soft_irq <- fn

(* mtime never wraps in practice: [Kernel.now] is an OCaml int of
   picoseconds, so mtime <= 2^62 / tick and both halves stay exact under
   [lsr]/[land] (no sign bit is ever set). *)
let mtime c = Sysc.Kernel.now c.env.Env.kernel / tick

let disabled c = c.cmp_lo = 0xffffffff && c.cmp_hi = 0xffffffff

(* Unsigned 64-bit mtime >= mtimecmp, compared half by half — glitch-free
   with respect to OCaml int overflow whatever the halves contain. *)
let reached c mt =
  let mt_hi = (mt lsr 32) land 0xffffffff and mt_lo = mt land 0xffffffff in
  mt_hi > c.cmp_hi || (mt_hi = c.cmp_hi && mt_lo >= c.cmp_lo)

(* Far deadlines are chased in bounded hops: a wake fires at most this far
   ahead and [update_timer] re-evaluates, so no deadline is ever silently
   dropped (the old code skipped scheduling beyond 1e9 ticks outright —
   a distant but reachable mtimecmp missed its interrupt) and the
   tick-multiplication below cannot overflow. *)
let far_chunk = Sysc.Time.sec 3600

let update_timer c =
  let mt = mtime c in
  let pending = (not (disabled c)) && reached c mt in
  c.timer_irq pending;
  (* If the deadline is in the future, make sure we wake then. A stale
     wakeup (after mtimecmp moved) is harmless: the condition is simply
     re-evaluated and the wake re-armed. *)
  if (not pending) && not (disabled c) then begin
    let dt =
      if c.cmp_hi >= 0x4000_0000 then far_chunk
        (* >= 2^62 ticks: beyond any representable simulation time. *)
      else begin
        let delta = ((c.cmp_hi lsl 32) lor c.cmp_lo) - mt in
        let max_ticks = far_chunk / tick in
        if delta > max_ticks then far_chunk else delta * tick
      end
    in
    Sysc.Kernel.notify_after c.wake dt
  end

let start c =
  Sysc.Kernel.spawn c.env.Env.kernel ~name:(c.name ^ ".timer") (fun () ->
      while not (Sysc.Kernel.stopped c.env.Env.kernel) do
        Sysc.Kernel.wait_event c.wake;
        update_timer c
      done)

let reg_read c addr =
  let t = mtime c in
  match addr with
  | 0x0000 -> if c.msip then 1 else 0
  | 0x4000 -> c.cmp_lo
  | 0x4004 -> c.cmp_hi
  | 0xbff8 -> t land 0xffffffff
  | 0xbffc -> (t lsr 32) land 0xffffffff
  | _ -> raise Not_found

let reg_write c addr v =
  match addr with
  | 0x0000 ->
      c.msip <- v land 1 <> 0;
      c.soft_irq c.msip
  | 0x4000 ->
      c.cmp_lo <- v land 0xffffffff;
      update_timer c
  | 0x4004 ->
      c.cmp_hi <- v land 0xffffffff;
      update_timer c
  | 0xbff8 | 0xbffc -> ()
  | _ -> raise Not_found

let transport c (p : Tlm.Payload.t) delay =
  let addr = p.Tlm.Payload.addr in
  (try
     (match p.Tlm.Payload.cmd with
     | Tlm.Payload.Read ->
         Tlm.Payload.set_value p (reg_read c addr) ~tag:c.env.Env.pub
     | Tlm.Payload.Write -> reg_write c addr (Tlm.Payload.value p));
     p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp
   with Not_found -> p.Tlm.Payload.resp <- Tlm.Payload.Command_error);
  Sysc.Time.add delay c.latency

let socket c = Tlm.Socket.target ~name:c.name (transport c)

let save c w =
  let open Snapshot.Codec in
  put_u32 w c.cmp_lo;
  put_u32 w c.cmp_hi;
  put_bool w c.msip

let load c r =
  let open Snapshot.Codec in
  c.cmp_lo <- get_u32 r;
  c.cmp_hi <- get_u32 r;
  c.msip <- get_bool r
