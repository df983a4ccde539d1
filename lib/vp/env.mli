(** Shared platform context handed to every peripheral: the IFP lattice,
    the active security policy, the run-time monitor, and the "public"
    (lattice-bottom) tag used for untainted data. *)

type t = {
  kernel : Sysc.Kernel.t;
  lat : Dift.Lattice.t;
  policy : Dift.Policy.t;
  monitor : Dift.Monitor.t;
  pub : Dift.Lattice.tag;
  tracer : Trace.Tracer.t option;
      (** Taint-flow recorder, when the SoC runs with a tracer. *)
}

val create :
  ?tracer:Trace.Tracer.t -> Sysc.Kernel.t -> Dift.Policy.t -> Dift.Monitor.t -> t

val taint_source : t -> origin:string -> ?addr:int -> Dift.Lattice.tag -> unit
(** Register a taint introduction (peripheral seeding [tag] into the
    platform) with the tracer's graph at current simulation time.
    No-op when no tracer is attached or [tag] is the public tag, so
    peripherals call it unconditionally. *)

val taint_via : t -> channel:string -> Dift.Lattice.tag -> unit
(** Note that tagged data travelled through a named transfer channel
    (e.g. the DMA engine). Same no-op conventions as {!taint_source}. *)

val refused : t -> Dift.Lattice.tag -> Dift.Lattice.tag -> bool
(** [refused env tag required] counts one clearance check with the
    monitor and tells whether the policy refuses [tag] flowing to
    [required]. *)

val violation :
  t ->
  kind:Dift.Violation.kind ->
  data_tag:Dift.Lattice.tag ->
  required:Dift.Lattice.tag ->
  string ->
  unit
(** Report a refused flow (no pc: peripherals are not the core). Call it
    only after {!refused} said yes, so the record and its detail text are
    built only for a refused flow. *)

val declassify : t -> where:string -> from_tag:Dift.Lattice.tag -> Dift.Lattice.tag -> Dift.Lattice.tag
(** [declassify env ~where ~from_tag to_tag] records the declassification
    event and returns [to_tag]. Only trusted peripherals may call this
    (threat model, Section IV-B). *)
