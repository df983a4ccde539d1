(** The RV32IM CPU core, in both flavours: the plain VP and VP+ with the
    DIFT engine woven into the execute loop, reproducing the paper's three
    modifications: tainted register/CSR types, execution-clearance checks,
    and a tainted memory interface (Section V-B). The flavour is a run-time
    field of the one core type, taken from the [~tracking] setting of the
    {!Bus_if.t} the core is created on, so a core and its bus always agree.
    On the plain VP every register tag stays at the lattice bottom and no
    clearance check runs.

    Taint semantics (VP+):
    - ALU results carry the LUB of the source-register tags and the
      instruction's own tag (immediates inherit the code's class);
    - loads carry the LUB of the loaded bytes' tags; stores tag every
      written byte with the source register's tag;
    - execution clearance: the fetched word's tag is checked against the
      fetch-unit clearance, branch conditions / indirect-jump targets /
      trap-vector tags against the branch clearance, and load/store base
      addresses against the memory-address clearance (Section V-B2);
    - stores into policy-protected regions check the data tag against the
      region's required class.

    Two execution paths (both flavours, see [docs/perf.md]):
    - the single-step reference ([~block_cache:false]): fetch, decode and
      execute one instruction per scheduling step, with full tag
      propagation and exact check accounting;
    - the block compiler (the default): a decoded basic-block cache
      over the DMI (RAM) region, where straight-line runs terminated by a
      control transfer are fetched and decoded once and compiled into a
      chain of closures — one per instruction, operands pre-resolved,
      chained tail-first. Every exit of a chain (a taken branch, a [jal],
      falling off the block's end, a [jalr]) goes through its own exit
      cache, which holds the target chain's entry and jumps straight into
      it while no flush epoch has passed since it was filled, so
      transfers between compiled chains skip the dispatcher. Stores into
      cached code (self-modifying code via the CPU, DMA via the memory
      model) invalidate overlapping chains through {!flush_code}.
      Each block also gets a value-only variant with its tag plumbing
      compiled out: on the plain VP it is exact semantics; on VP+ it is
      the untainted fast path, entered while every live register tag and
      every fetched word's tag is the lattice bottom and the bottom tag
      passes all static clearances, and left for the full variant at the
      first non-bottom loaded tag. Violation behaviour and final tag
      state are unchanged; only {!Dift.Monitor.check_count} undercounts.

    The core counts its clearance checks (fetch, branch, address,
    store region, trap CSR, ecall gate) itself, by incrementing the
    monitor's {!Dift.Monitor.check_cell}, which it caches at {!create}
    with the lattice's flat LUB and flow tables ({!Dift.Lattice.lub_flat},
    {!Dift.Lattice.flow_flat}). A join, a clearance test or a check count
    on the per-instruction path is then an array read or an increment,
    not a call into [Dift].

    Both paths retire identical architectural state, tags, counters,
    hook streams and snapshots (pinned by [test_parity] and the difftest
    [--cache-diff] leg). *)

exception Fatal_trap of { cause : int; pc : int; tval : int }
(** A synchronous trap occurred while [mtvec] is 0 (no handler installed),
    or a trap was raised from within the trap path. *)

type exit_reason =
  | Running
  | Exited of int  (** Firmware called the exit ecall (a7=93, code in a0). *)
  | Breakpoint  (** [ebreak] executed. *)
  | Insn_limit  (** The configured instruction budget was exhausted. *)

type trap_event =
  | Trap_enter of { cause : int; epc : int; tval : int; handler : int }
      (** A trap (synchronous or interrupt) was taken: [cause] is the raw
          [mcause] value (bit 31 set for interrupts), [epc]/[tval] the values
          written to [mepc]/[mtval], [handler] the resolved (possibly
          vectored) target pc. *)
  | Trap_return of { target : int; to_priv : int }
      (** [mret] executed: [target] is the restored pc, [to_priv] the
          privilege level returned to. *)

type t

val create :
  kernel:Sysc.Kernel.t ->
  bus:Bus_if.t ->
  policy:Dift.Policy.t ->
  monitor:Dift.Monitor.t ->
  ?quantum:int ->
  ?block_cache:bool ->
  ?strict_align:bool ->
  pc:int ->
  unit ->
  t
(** Builds a core of [bus]'s flavour ({!Bus_if.tracking}). Each
    instruction costs a modelled 10 ns; [quantum] is the number of local
    cycles the core runs ahead before synchronising with the kernel
    (default 1000, loosely-timed style).
    [block_cache] (default true) selects the block compiler over
    the DMI region; with it off (or no DMI region) the core runs the
    single-step reference, with no compiled chains and no fast path.
    [strict_align] (default false) traps naturally misaligned data
    accesses with causes 4/6 instead of letting the bus split them. *)

(** {1 Architectural state} *)

val pc : t -> int
val set_pc : t -> int -> unit
val get_reg : t -> Reg.t -> int
val get_reg_tag : t -> Reg.t -> Dift.Lattice.tag
val set_reg : t -> Reg.t -> int -> unit
(** Sets the register with the lattice-bottom (public/trusted) tag. *)

val csr : t -> Csr.t
val instret : t -> int

val priv : t -> int
(** Current privilege level: {!Csr.priv_m} (3) or {!Csr.priv_u} (0).
    Resets to machine mode; trap entry raises to M, [mret] drops to
    [mstatus.MPP]. *)

(** {1 Interrupt lines (driven by CLINT / PLIC)} *)

val set_irq : t -> bit:int -> bool -> unit
(** Set or clear an [mip] bit ({!Csr.bit_mti}, {!Csr.bit_msi},
    {!Csr.bit_mei}) and wake the core if it is in [wfi]. *)

(** {1 Execution} *)

val step : t -> unit
(** Execute one instruction (taking a pending enabled interrupt first).
    Must run inside a kernel process if firmware touches TLM peripherals
    whose transport suspends, or uses [wfi]. *)

val spawn_thread : t -> unit
(** Register the fetch-decode-execute loop as a kernel process (named
    ["cpu"]). When the core halts, the whole simulation stops. *)

val set_max_instructions : t -> int -> unit
val exit_reason : t -> exit_reason
val halted : t -> bool

val halt : t -> exit_reason -> unit
(** Force the core to stop (used by peripherals/tests). *)

val unhalt : t -> unit
(** Clear a halt back to [Running]. Only meaningful on a core that has
    not executed past the halt point — the warm-start protocol restores
    a boot snapshot taken with a zero instruction budget (so the core
    halted with {!Insn_limit} at [instret = 0] before its first fetch)
    and un-halts it before loading the real firmware; see
    {!Vp.Soc.boot_snapshot}. No-op when already running. *)

val set_trace : t -> (int -> int -> Insn.t -> int -> unit) option -> unit
(** Install (or remove) a per-instruction recorder factory, for tracing
    and coverage. The factory is staged: [f pc word insn] makes the
    recorder of one instruction (its fetch pc, instruction word and
    decoding), and the recorder is called with the join of the
    instruction's source-register tags ([rs1] and [rs2], bottom for an
    absent operand) each time the instruction retires.

    The block compiler calls the factory once per compiled instruction,
    when it compiles the block, and both of the block's variants keep
    that one recorder: the value-only (fast-path) variant passes it the
    bottom tag without reading a register, since every register tag is
    bottom there, and the full variant joins the two register tags
    through indices resolved at compile time. {!step} calls the factory
    and its recorder together at every single-stepped instruction, so
    there (the reference path without a block cache, and the breakers a
    compiled chain hands to {!step}) whatever the factory allocates is
    paid per retired instruction. The factory may also run for instructions that
    never retire and more than once for one instruction (chains rebuilt
    after a flush); a factory should only precompute.

    Contract (pinned by the [hook x block cache] tier-1 test): the
    recorders observe {e every} retired instruction {e exactly once}, in
    retirement order, with the fetch pc — regardless of whether the
    instruction was single-stepped, retired from a compiled chain, or
    retired on the untainted fast path.
    [instret] equals the number of recorder invocations at any
    observation point. A recorder runs after fetch + decode and before
    execution, so register/memory state visible to it is the
    pre-execution state; an instruction whose {e fetch} faults (bus
    error, DIFT exec-fetch violation) is not reported, and interrupt
    entry reports no event of its own (the first handler instruction is
    reported normally). Installing a factory drops the compiled chains
    (they capture their recorders when built) and moves the flush epoch,
    so no exit cache enters a chain built before it, but disables
    neither block building nor the fast path. *)

val set_trap_hook : t -> (trap_event -> unit) option -> unit
(** Install (or remove) an observer of trap entries and [mret]s, fired
    after the architectural state change (so [mepc]/[mcause]/[mtval] and
    the new pc are already visible). Trap-taking instructions always
    execute on the shared slow path (they are block breakers), so the
    hook sees identical streams from both paths and installing it
    flushes nothing. *)

val set_merge_hook : t -> (int -> int -> int -> unit) option -> unit
(** Install (or remove) a tag-merge observer, called as [f a b r] for
    every LUB the core computes during tag propagation ([r = lub a b],
    including trivial joins where [r] equals an input — filter
    downstream). Never called on the untainted fast path (no LUBs
    happen there) or on the plain VP (no tracking). One load-and-branch
    per LUB when unset; used by the provenance tracker. *)

(** {1 Block cache and fast path} *)

val flush_code : t -> addr:int -> len:int -> unit
(** Invalidate cached basic blocks overlapping
    [addr .. addr + len - 1]. A write that overlaps compiled code moves
    the flush epoch, which invalidates every exit cache at once, so no
    chain is entered through a cache filled before the write. Wired
    automatically to {!Bus_if}'s DMI store hook at [create] time;
    external writers that bypass the bus (loaders, DMA models not routed
    through {!Vp}'s memory) must call it themselves. No-op when the
    block cache is disabled. *)

val blocks_built : t -> int
(** Number of basic blocks fetch-decoded so far (rebuilds after
    invalidation count again). *)

val superblocks_built : t -> int
(** Number of direct block exits (a taken branch, a [jal], falling off
    the block's end) linked to their target's compiled chain; an exit
    re-linked after a flush counts again (0 on the single-step
    reference). The name is the benchmark ledger's and the
    [BENCH_*.json] key. *)

val chain_hits : t -> int
(** Number of transitions through a linked direct exit straight into
    the target's compiled chain, skipping the dispatcher. *)

val ic_hits : t -> int
(** Number of [jalr] retirements that jumped through a valid exit cache
    straight into the target's compiled chain. *)

val ic_misses : t -> int
(** Number of [jalr] retirements (with an off-fall-through target) that
    fell back to the dispatcher: cold caches filling in, flush-epoch
    invalidations re-validating, and polymorphic sites being demoted. *)

val fast_retired : t -> int
(** Number of instructions retired by value-only chains: the untainted
    fast path on VP+, every compiled instruction on the plain VP (0 on
    the single-step reference). *)

(** {1 Checkpoint / restore}

    The core synchronises with the kernel through a named event
    (["cpu.sync"]) rather than [wait_for], so a paused core's only
    kernel-side state is one pending timed notification — serialisable
    by {!Sysc.Kernel.pending_timed}. See [docs/snapshot.md]. *)

val set_pause_at : t -> int -> unit
(** Request a pause at the first time-sync boundary where [instret] has
    reached the given count. Pausing stops the kernel with the CPU
    thread parked on its pending sync notification; it does not perturb
    the schedule — resuming (or restoring a snapshot taken there)
    continues bit-identically to an uninterrupted run. *)

val paused : t -> bool
(** True after a requested pause has been taken (cleared by [load] and
    {!clear_paused}). *)

val clear_paused : t -> unit
(** Acknowledge the pause before resuming the kernel. *)

val save : t -> Snapshot.Codec.writer -> unit
(** Serialise the architectural state: registers and their taint tags,
    [pc], in-flight instruction word/tag, [instret], wfi/sync flags,
    exit reason, and all CSR values and tags. Decoded-block, compiled
    threaded-code and decode caches are derived state, rebuilt on
    demand, and are not saved. *)

val load : t -> Snapshot.Codec.reader -> unit
(** Restore state written by [save] into a freshly created core, before
    {!spawn_thread}. The target core may use a different [block_cache]
    setting than the one that saved: the snapshot holds only
    architectural state, and both paths produce identical snapshots at
    identical instruction counts (pinned by the reference-save,
    compiled-restore case in [test_snapshot]). Raises
    {!Snapshot.Codec.Corrupt} on a register, [insn_tag] or CSR tag not
    below the lattice's size. *)
