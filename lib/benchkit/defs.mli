(** Table II benchmark definitions and the machine-readable perf report.

    This library backs both the [bench] executable and the tier-1 schema
    test: a workload definition builds a firmware image and policy at a
    given scale, {!run} times one simulation of it on a fresh SoC,
    {!measure} samples a set of configurations {!reps} times each and
    turns the samples into report rows, and {!doc} / {!validate} produce
    and check the [BENCH_*.json] report (schema in [docs/perf.md]). *)

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
(** The default Table II workload set: the paper's seven (qsort,
    dhrystone, primes, sha512, simple-sensor, freertos-tasks,
    immo-fixed) after [hello] and the branch-heavy [dispatch] stressor
    ({!Firmware.Extra_fw.dispatch}, for the linked-exit and jalr
    exit-cache counters). [scale] multiplies each workload's iteration count;
    fractions give fast smoke runs. *)

val extended : scale:float -> def list
(** Additional workloads beyond the paper (crc32, matmul, strings, aes-sw). *)

type sample = {
  s_instructions : int;  (** Retired, from the core's counter. *)
  s_seconds : float;  (** Monotonic wall time of the simulation. *)
  s_fast_retired : int;
  s_blocks_built : int;
  s_superblocks : int;  (** Direct block exits linked. *)
  s_chain_hits : int;  (** Transitions through a linked direct exit. *)
  s_ic_hits : int;  (** [jalr] exit-cache direct entries. *)
  s_ic_misses : int;  (** [jalr] inline-cache misses/demotions. *)
  s_exit_ok : bool;  (** Firmware reached the exit ecall with code 0. *)
}
(** One timed run. The block-cache counters are all zero on the
    single-step reference ([~block_cache:false]). *)

val run :
  ?block_cache:bool ->
  ?dmi:bool ->
  ?quantum:int ->
  ?policy:Dift.Policy.t ->
  tracking:bool ->
  def ->
  Rv32_asm.Image.t ->
  sample
(** Boot a fresh SoC on the image (built by [def.make_image]) and time
    its run to completion. [block_cache], [dmi], [quantum] and [policy]
    (default [def.make_policy image]) go to {!Vp.Soc.create}. *)

val timed : instructions:int -> (unit -> unit) -> sample
(** Time a host-side loop of [instructions] operations: a clean sample
    whose block-cache counters are all zero. *)

val reps : int
(** Samples per configuration: every timed row is a median over this
    many runs. *)

type measurement = {
  m_workload : string;
  m_mode : string;  (** ["vp"] / ["vp+"] or an ablation label. *)
  m_instructions : int;
  m_seconds : float;  (** Median over the samples. *)
  m_seconds_p25 : float;
  m_seconds_p75 : float;
  m_mips : float;  (** From the median seconds. *)
  m_overhead : float;
      (** Median of the per-round ratios to the first configuration of
          the same {!measure} call; 1.0 there. *)
  m_fast_retired : int;
  m_blocks_built : int;
  m_superblocks : int;
  m_chain_hits : int;
  m_ic_hits : int;
  m_ic_misses : int;
  m_loc_asm : int;
  m_exit_ok : bool;
      (** Every sample exited cleanly and retired the same instruction
          count. *)
}

val measure :
  workload:string ->
  loc_asm:int ->
  (string * (unit -> sample)) list ->
  measurement list
(** [measure ~workload ~loc_asm configs] runs every [(mode, run)]
    configuration {!reps} times, round by round, so each round runs all
    configurations back to back and a slow host phase hits them alike.
    Returns one row per configuration, in order; the first is the
    overhead baseline. Counters come from the first sample. *)

val measure_def : ?block_cache:bool -> def -> measurement list
(** The Table II rows of one workload: ["vp"] then ["vp+"], alternating,
    through {!measure}. *)

val mips : int -> float -> float
(** [mips instructions seconds], 0 when [seconds] is 0. *)

val doc :
  bench:string ->
  scale:float ->
  block_cache:bool ->
  measurement list ->
  Jsonkit.Json.t
(** The full report document. *)

val validate : Jsonkit.Json.t -> (unit, string) result
(** Schema check: [bench] non-empty string, [scale] > 0, [block_cache]
    boolean, [rows] a non-empty list where every row has a non-empty
    [workload], a [mode] string, integral [instructions >= 0],
    [seconds_p25 <= seconds <= seconds_p75] (all >= 0), [mips >= 0],
    [overhead > 0] and the integral block-cache counters
    [superblocks_built], [chain_hits], [ic_hits] and [ic_misses]
    (>= 0). Unknown fields are ignored. *)
