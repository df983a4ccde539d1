(** Table II benchmark definitions and the machine-readable perf report.

    This library backs both the [bench] executable and the tier-1 schema
    test: a workload definition builds a firmware image and policy at a
    given scale, {!measure} times it on the plain VP and VP+ flavours, and
    {!doc} / {!validate} produce and check the [BENCH_*.json] report
    consumed by CI trend tooling (schema in [docs/perf.md]). *)

type def = {
  d_name : string;
  make_image : unit -> Rv32_asm.Image.t;  (** Scale is bound at list-build time. *)
  make_policy : Rv32_asm.Image.t -> Dift.Policy.t;
  setup : Vp.Soc.t -> unit;  (** Host-side wiring (e.g. CAN challenges). *)
  sensor_period : Sysc.Time.t option;
  aes : Rv32_asm.Image.t -> (Dift.Lattice.tag * Dift.Lattice.tag) option;
      (** AES peripheral (out_tag, in_clearance), for the immobilizer. *)
}

val scaled : float -> int -> int
(** [scaled scale base] = [base * scale] rounded, at least 1. *)

val integrity_policy : Rv32_asm.Image.t -> Dift.Policy.t
(** The Section VI-B benchmark policy: program region HI with an HI fetch
    clearance on the two-class integrity lattice. *)

val table2 : scale:float -> def list
(** The paper's Table II workload set (hello, qsort, dhrystone, primes,
    sha512, simple-sensor, freertos-tasks, immo-fixed) plus the
    branch-heavy [dispatch] stressor ({!Firmware.Extra_fw.dispatch}, for
    the superblock/inline-cache counters). [scale] multiplies each
    workload's iteration count; fractions give fast smoke runs. *)

val extended : scale:float -> def list
(** Additional workloads beyond the paper (crc32, matmul, strings, aes-sw). *)

type measurement = {
  m_workload : string;
  m_mode : string;  (** ["vp"] / ["vp+"] (or an ablation label). *)
  m_instructions : int;  (** Retired, from the core's counter. *)
  m_seconds : float;  (** Monotonic wall time of the simulation. *)
  m_mips : float;
  m_overhead : float;  (** Relative to the workload's vp row; 1.0 there. *)
  m_fast_retired : int;
  m_blocks_built : int;
  m_superblocks : int option;
      (** Single-SoC rows only: superblock chains linked. The four
          option fields travel together ([Some] on rows {!measure}
          produced, [None] on parallel / graph rows); {!validate}
          enforces this. All four are zero on the single-step reference
          ([~block_cache:false]). *)
  m_chain_hits : int option;  (** In-chain block-to-block transitions. *)
  m_ic_hits : int option;  (** [jalr] inline-cache direct entries. *)
  m_ic_misses : int option;  (** [jalr] inline-cache misses/demotions. *)
  m_loc_asm : int;
  m_exit_ok : bool;  (** Firmware reached the exit ecall with code 0. *)
  m_trace : bool;  (** Row measured with the tracing subsystem attached. *)
  m_jobs : int option;
      (** Parallel-campaign rows only: worker domains used. The four
          option fields travel together ([Some] on parallel rows, [None]
          on classic single-SoC rows); {!validate} enforces this. *)
  m_wall_ns : int option;  (** Monotonic wall time of the whole campaign. *)
  m_cpu_ns : int option;
      (** Process CPU time over the same span, all domains summed.
          [cpu/wall] is the parallelism actually realised — on a
          single-core host it stays ~1 regardless of [jobs]. *)
  m_worker_throughput : float option;  (** Tasks per wall-second per worker. *)
  m_store_bytes : int option;
      (** Graph-analyze rows only: on-disk [.iftg] store size. Like the
          parallel group, the five option fields travel together ([Some]
          on analyze rows, [None] elsewhere); {!validate} enforces this. *)
  m_ingest_ns : int option;  (** Store decode + index-build time. *)
  m_query_ns : int option;  (** One backward source-finding query. *)
  m_nodes : int option;  (** Graph nodes in the store. *)
  m_edges : int option;  (** Graph edges in the store. *)
}

val measure : ?block_cache:bool -> ?trace:bool -> def -> measurement list
(** Run the workload on VP then VP+ ([block_cache] forwarded to
    {!Vp.Soc.create}, default on: false measures the single-step
    reference) and return the two rows in that order.
    With [~trace:true] a third ["vp+trace"] row follows: VP+ with a
    {!Trace.Tracer} attached (ring + provenance + bus observer), its
    overhead relative to the same vp row — the guardrail number for the
    tracing subsystem's cost. The default remains exactly two rows. *)

val mips : int -> float -> float
(** [mips instructions seconds], 0 when [seconds] is 0. *)

val parallel_row :
  ?exit_ok:bool ->
  workload:string ->
  mode:string ->
  jobs:int ->
  tasks:int ->
  instructions:int ->
  wall_ns:int ->
  cpu_ns:int ->
  overhead:float ->
  unit ->
  measurement
(** A campaign measurement: [tasks] units of work ran on [jobs] worker
    domains in [wall_ns] of wall time burning [cpu_ns] of process CPU
    time. Fills the four parallel option fields (throughput =
    tasks / wall-seconds / jobs); [seconds] / [mips] are derived from
    [wall_ns] and [instructions]. [exit_ok] (default true) lets campaign
    drivers flag a failed invariant — e.g. a jobs=1 vs jobs=N report
    mismatch — directly in the committed artifact. *)

val graph_row :
  ?exit_ok:bool ->
  workload:string ->
  mode:string ->
  store_bytes:int ->
  ingest_ns:int ->
  query_ns:int ->
  nodes:int ->
  edges:int ->
  unit ->
  measurement
(** A graph-store analyze measurement: a [.iftg] store of [store_bytes]
    bytes holding [nodes] / [edges] took [ingest_ns] to decode and index
    and [query_ns] to answer one backward source-finding query (cold or
    memoized, per [mode]). Fills the five graph option fields; [seconds]
    is derived from [ingest_ns + query_ns]. *)

val row : measurement -> Jsonkit.Json.t

val doc :
  ?extra:(string * Jsonkit.Json.t) list ->
  bench:string ->
  scale:float ->
  block_cache:bool ->
  measurement list ->
  Jsonkit.Json.t
(** The full report document. [extra] appends top-level fields (e.g. the
    host's core count for parallel campaigns); {!validate} ignores
    unknown fields, so consumers stay compatible. *)

val validate : Jsonkit.Json.t -> (unit, string) result
(** Schema check: [bench] non-empty string, [scale] > 0, [block_cache]
    boolean, [rows] a non-empty list where every row has a non-empty
    [workload], a [mode] string, integral [instructions >= 0],
    [seconds >= 0], [mips >= 0] and [overhead > 0]. A row's optional
    [trace] field, when present, must be a boolean. Unknown fields are
    ignored, so reports from older producers (with a top-level
    [fast_path] or a per-row [engine]) still validate. The block-cache
    fields
    [superblocks_built], [chain_hits], [ic_hits] and [ic_misses] (ints
    >= 0) must appear all together or not at all. The parallel fields
    [jobs] (int >= 1), [wall_ns] / [cpu_ns] (ints >= 0) and
    [worker_throughput] (number >= 0) must appear all together or not at
    all, and likewise the graph fields [store_bytes], [ingest_ns],
    [query_ns], [nodes] and [edges] (all ints >= 0). *)
