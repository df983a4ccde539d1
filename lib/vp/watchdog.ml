type t = {
  env : Env.t;
  name : string;
  clearance : int option;
  mutable reload_us : int;
  mutable enabled : bool;
  mutable deadline : Sysc.Time.t;
  mutable expired : bool;
  mutable kicks : int;
  mutable on_expiry : unit -> unit;
  wake : Sysc.Kernel.event;
  latency : Sysc.Time.t;
}

let create env ~name ?clearance () =
  {
    env;
    name;
    clearance;
    reload_us = 1000;
    enabled = false;
    deadline = max_int;
    expired = false;
    kicks = 0;
    on_expiry = (fun () -> ());
    wake = Sysc.Kernel.create_event env.Env.kernel (name ^ ".wake");
    latency = Sysc.Time.ns 20;
  }

let set_expiry_callback w fn = w.on_expiry <- fn
let expired w = w.expired
let kicks w = w.kicks

let rearm w =
  let k = w.env.Env.kernel in
  w.deadline <- Sysc.Time.add (Sysc.Kernel.now k) (Sysc.Time.us w.reload_us);
  Sysc.Kernel.notify_after w.wake (Sysc.Time.us w.reload_us)

let start w =
  Sysc.Kernel.spawn w.env.Env.kernel ~name:(w.name ^ ".count") (fun () ->
      while not (Sysc.Kernel.stopped w.env.Env.kernel) do
        Sysc.Kernel.wait_event w.wake;
        if w.enabled && not w.expired then begin
          let now = Sysc.Kernel.now w.env.Env.kernel in
          if now >= w.deadline then begin
            w.expired <- true;
            w.on_expiry ()
          end
          else
            (* Stale wake: a kick moved the deadline past this wakeup (the
               kernel keeps the earlier of two pending notifications, per
               the IEEE-1666 override rule). Chase the live deadline. *)
            Sysc.Kernel.notify_after w.wake (w.deadline - now)
        end
      done)

let transport w (p : Tlm.Payload.t) delay =
  let pub = w.env.Env.pub in
  p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
  (match (p.Tlm.Payload.addr, p.Tlm.Payload.cmd) with
  | 0x00, Tlm.Payload.Read -> Tlm.Payload.set_value p w.reload_us ~tag:pub
  | 0x00, Tlm.Payload.Write ->
      let tag = Tlm.Payload.lub_tag w.env.Env.lat p in
      (match w.clearance with
      | Some required when Env.refused w.env tag required ->
          Env.violation w.env
            ~kind:(Dift.Violation.Custom (w.name ^ "-reload"))
            ~data_tag:tag ~required "watchdog reload register"
      | _ -> ());
      w.reload_us <- max 1 (Tlm.Payload.value p)
  | 0x04, Tlm.Payload.Write ->
      if Tlm.Payload.value p land 1 <> 0 then begin
        w.kicks <- w.kicks + 1;
        rearm w
      end
  | 0x08, Tlm.Payload.Read ->
      Tlm.Payload.set_value p (if w.enabled then 1 else 0) ~tag:pub
  | 0x08, Tlm.Payload.Write ->
      let on = Tlm.Payload.value p land 1 <> 0 in
      if on && not w.enabled then begin
        w.enabled <- true;
        rearm w
      end
      else if not on then w.enabled <- false
  | 0x0c, Tlm.Payload.Read ->
      Tlm.Payload.set_value p (if w.expired then 1 else 0) ~tag:pub
  | _, _ -> p.Tlm.Payload.resp <- Tlm.Payload.Command_error);
  Sysc.Time.add delay w.latency

let socket w = Tlm.Socket.target ~name:w.name (transport w)

let save w wr =
  let open Snapshot.Codec in
  put_u32 wr w.reload_us;
  put_bool wr w.enabled;
  put_i64 wr w.deadline;
  put_bool wr w.expired;
  put_i64 wr w.kicks

let load w r =
  let open Snapshot.Codec in
  w.reload_us <- get_u32 r;
  w.enabled <- get_bool r;
  w.deadline <- get_i64 r;
  w.expired <- get_bool r;
  w.kicks <- get_i64 r
