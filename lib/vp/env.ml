type t = {
  kernel : Sysc.Kernel.t;
  lat : Dift.Lattice.t;
  policy : Dift.Policy.t;
  monitor : Dift.Monitor.t;
  pub : Dift.Lattice.tag;
  tracer : Trace.Tracer.t option;
}

let create ?tracer kernel policy monitor =
  let lat = policy.Dift.Policy.lattice in
  let pub =
    match Dift.Lattice.bottom lat with
    | Some b -> b
    | None -> policy.Dift.Policy.default_tag
  in
  { kernel; lat; policy; monitor; pub; tracer }

let taint_source env ~origin ?addr tag =
  match env.tracer with
  | Some tr when tag <> env.pub ->
      Trace.Tracer.record_source tr ~origin ?addr
        ~time:(Sysc.Kernel.now env.kernel)
        tag
  | Some _ | None -> ()

let taint_via env ~channel tag =
  match env.tracer with
  | Some tr when tag <> env.pub -> Trace.Tracer.record_via tr ~channel tag
  | Some _ | None -> ()

(* Every check counts itself and tests the flow first; only a refused flow
   builds its violation record and detail text. *)
let refused env tag required =
  Dift.Monitor.count_check env.monitor;
  not (Dift.Lattice.allowed_flow env.lat tag required)

let violation env ~kind ~data_tag ~required detail =
  Dift.Monitor.violation env.monitor
    { Dift.Violation.kind; data_tag; required_tag = required; pc = None; detail }

let declassify env ~where ~from_tag to_tag =
  Dift.Monitor.report env.monitor
    (Dift.Monitor.Declassified { where; from_tag; to_tag });
  to_tag
