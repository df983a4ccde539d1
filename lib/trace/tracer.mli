(** The per-simulation trace bundle: an event {!Ring.t} plus the run's
    IFT graph over one lattice. A [Tracer.t] is handed to
    [Vp.Soc.create ?tracer], which wires the core / bus / router /
    monitor hooks into it; everything here is plain recording with no
    simulator dependencies. *)

type pos
(** Internal to the recorders: the last retired instruction's position,
    which they hand to [graph]. Nothing outside this module reads or
    sets it. *)

type t = {
  ring : Ring.t;  (** The newest 4096 events. *)
  graph : Iftgraph.Build.t;
      (** The run's only record of taint flow, from {!create} on: seeds,
          genuine merges, declassifications, via hops and violations,
          stamped with the last retired instruction's time and pc.
          {!Provenance.chain} and {!Graph} read it. *)
  lat : Dift.Lattice.t;
  mutable disasm : int -> string;
      (** Render an instruction word for reports; defaults to a hex
          [.word] form. The VP installs the RV32 disassembler. *)
  mutable on_record : (Event.t -> unit) option;
      (** Streaming observer; see {!set_on_record}. *)
  pos : pos;
}

val create : Dift.Lattice.t -> t

val set_disasm : t -> (int -> string) -> unit

val set_on_record : t -> (Event.t -> unit) option -> unit
(** Install (or remove) a streaming observer called with every recorded
    event, after the ring slot is filled. Unlike the ring (which retains
    only the newest 4096 events), the observer sees the complete
    stream — {!Sink.stream_jsonl} uses it for unbounded trace files, and
    the determinism tests use it to compare full event streams. The slot
    is recycled by the next record: consume or {!Event.copy} it before
    returning. *)

val events_recorded : t -> int
(** Total events ever pushed into the ring (monotonic). *)

(** Recorders — one per event shape; [time] is simulation time in ps.
    Each fills a recycled ring slot. *)

val record_insn :
  t -> time:int -> pc:int -> word:int -> tag:Dift.Lattice.tag -> tainted:bool -> unit
(** Also makes [time] and [pc] the position the graph stamps onto its
    next nodes. *)

val record_tlm :
  t ->
  time:int ->
  write:bool ->
  addr:int ->
  len:int ->
  tag:Dift.Lattice.tag ->
  target:string ->
  unit

val record_trap : t -> time:int -> addr:int -> code:int -> text:string -> unit
(** A trap entry or [mret] (see {!Event.kind} for the field meaning); the
    caller formats [text] since the tracer knows nothing about cause
    names. *)

val record_violation :
  t -> time:int -> pc:int -> tag:Dift.Lattice.tag -> what:string -> unit
(** Also adds the violation's sink node to the graph. *)

val record_declass :
  t ->
  time:int ->
  from_tag:Dift.Lattice.tag ->
  to_tag:Dift.Lattice.tag ->
  where:string ->
  unit
(** Also adds the declassification edge to the graph when [from_tag]
    differs from [to_tag]. *)

val record_note : t -> time:int -> string -> unit

(** Graph-only recorders: taint flow that enters no event window. *)

val record_source :
  t -> origin:string -> ?addr:int -> time:int -> Dift.Lattice.tag -> unit
(** A taint introduction: a peripheral seeding [tag] into the platform, or
    a policy region classifying memory. Repeats coalesce in the graph, so
    peripherals may call this on every frame. *)

val record_via : t -> channel:string -> Dift.Lattice.tag -> unit
(** [tag] travelled through a named transfer channel (DMA, crypto unit,
    ...) without changing class. *)

val record_merge :
  t ->
  a:Dift.Lattice.tag ->
  b:Dift.Lattice.tag ->
  result:Dift.Lattice.tag ->
  unit
(** [result = lub(a, b)]. A no-op unless it is a genuine join ([result]
    differs from both inputs): propagation that keeps a tag unchanged is
    already covered by that tag's own chain. *)
