(** The three-way differential oracle: every program runs on the naive
    golden-model interpreter ({!Rv32.Golden}), the plain VP core and the
    VP+ core with DIFT tracking, and all three must agree on registers,
    scratch memory and the retired-instruction count.

    Disagreement golden-vs-VP is an ISS semantics bug; VP-vs-VP+ is a
    transparency bug (tag tracking changed an architectural value). *)

type stop =
  | Exited of int  (** Exit ecall with the given code. *)
  | Out_of_budget  (** Instruction budget exhausted. *)
  | Trapped  (** A trap, breakpoint, or simulator exception. *)

type outcome = {
  stop : stop;
  regs : int array;  (** x1..x31 at indices 1..31 (index 0 unused). *)
  mem : string;  (** The scratch buffer bytes. *)
  instret : int;
  tags : (int array * int array) option;
      (** Taint state of a tracked run: (register tags x1..x31 at indices
          1..31, per-byte tags of the scratch buffer). [None] on the
          golden model and untracked runs; {!agree} compares tags only
          when both sides carry them. *)
}

type result3 = {
  golden : outcome;
  vp : outcome;
  vpp : outcome;
  violations : int;  (** Violations the VP+ monitor recorded. *)
  checks : int;  (** Clearance checks the VP+ engine performed. *)
  declassifications : int;  (** Declassification events (must be 0 here). *)
}

val max_insns : int
(** Per-run instruction budget (shared by all three models). *)

val agree : outcome -> outcome -> bool
(** Full architectural agreement — including taint tags when both
    outcomes carry them. Two [Trapped] outcomes agree regardless of
    post-trap state (the models stop at different points of the trap
    path). *)

val explain : outcome -> outcome -> string option
(** Human-readable first difference, [None] if the outcomes agree. *)

val run_golden : Rv32_asm.Image.t -> outcome

val unrestricted_policy : unit -> Dift.Policy.t
(** The default single-class policy {!run_vp} falls back to; exposed so a
    forensic re-run can build a tracer over a structurally identical
    lattice. *)

type warm
(** Kept only for the benchmark ledger, which may call {!warm_boot} and
    {!run_vp} [~warm]: every platform boots cold, so a value of this type
    carries nothing. *)

val warm_boot : unit -> warm
(** A no-op kept for the benchmark ledger. *)

val run_vp :
  tracking:bool ->
  ?block_cache:bool ->
  ?policy:Dift.Policy.t ->
  ?trace:(int -> Rv32.Insn.t -> unit) ->
  ?tracer:Trace.Tracer.t ->
  ?quantum:int ->
  ?warm:warm ->
  Rv32_asm.Image.t ->
  outcome * (int * int * int)
(** One VP flavour; returns the outcome and the monitor's
    (violations, checks, declassifications). Without [policy] an
    unrestricted single-class policy is used. The monitor runs in [Record]
    mode so checks never alter execution. [block_cache] (default true)
    forwards to {!Vp.Soc.create} — run with [~block_cache:false] to get
    the single-step reference for compiled-vs-reference differential
    testing. [tracer] attaches the tracing
    subsystem to the SoC (forensic replay of reproducers). [quantum]
    forwards to {!Vp.Soc.create} (snapshot-vs-straight comparisons need
    both runs on the same time-sync grid). [warm] is ignored; it is kept
    for the benchmark ledger. *)

val snap_quantum : int
(** Time-sync quantum used by {!run_vp_snapshot}; a straight run to be
    compared against it must pass the same value to {!run_vp}. *)

val run_vp_snapshot :
  ?policy:Dift.Policy.t -> Rv32_asm.Image.t -> outcome * (int * int * int)
(** The tracked VP run chopped into 200-instruction segments: at each
    boundary the platform is paused, serialised with {!Vp.Soc.save},
    restored into a brand-new SoC with {!Vp.Soc.restore}, and continued
    there. The final outcome must agree with an uninterrupted tracked
    {!run_vp} at {!snap_quantum} — any disagreement is a snapshot
    machinery bug. Monitor counters are summed across segments. *)

val run :
  ?policy:Dift.Policy.t ->
  ?trace:(int -> Rv32.Insn.t -> unit) ->
  Rv32_asm.Image.t ->
  result3
(** All three models, both VP legs on the default compiled path. [policy]
    applies to the VP+ run only (the plain VP runs check-free on the same
    lattice); [trace] is installed on the VP+ run (coverage). *)
