(** The complete virtual prototype: RV32IM core (VP or VP+ flavour), TLM
    bus, RAM, and the peripheral set of the paper's experiments (UART,
    sensor, DMA, AES, CAN, CLINT, PLIC).

    The core is one {!Rv32.Core.t}, [soc.core]; callers drive it with
    {!Rv32.Core} directly. Per-instruction and trap hooks are the
    exception: {!set_trace} and {!set_trap_hook} compose them with an
    attached tracer's recorders.

    Memory map:
    {v
      0x0200_0000  CLINT (msip / mtimecmp / mtime)
      0x0c00_0000  PLIC  (pending / enable / claim / threshold / priorities)
      0x1000_0000  UART
      0x4000_0000  GPIO
      0x5000_0000  Sensor (Fig. 4)
      0x5100_0000  CAN mailbox
      0x6000_0000  AES engine
      0x7000_0000  DMA controller
      0x7100_0000  Watchdog timer
      0x8000_0000  RAM (1 MiB)
    v}

    PLIC sources: 1 = UART rx, 2 = sensor frame (as in the paper), 3 = CAN
    rx, 4 = DMA complete, 5 = AES complete, 6 = GPIO input edge. *)

val ram_base : int
val clint_base : int
val plic_base : int
val uart_base : int
val gpio_base : int
val sensor_base : int
val can_base : int
val aes_base : int
val dma_base : int
val wdt_base : int

val ram_size : int
(** 1 MiB. *)

val irq_uart : int
val irq_sensor : int

(** The core's counters as closures over [core]. Every in-tree caller
    uses {!Rv32.Core} on [core] directly; the record exists because the
    benchmark ledger ([bench/ledger/]) is frozen against it. *)
type cpu = {
  cpu_set_max : int -> unit;
  cpu_instret : unit -> int;
  cpu_exit : unit -> Rv32.Core.exit_reason;
  cpu_blocks_built : unit -> int;
  cpu_superblocks_built : unit -> int;
  cpu_chain_hits : unit -> int;
  cpu_ic_hits : unit -> int;
  cpu_ic_misses : unit -> int;
  cpu_fast_retired : unit -> int;
}

type t = {
  env : Env.t;
  kernel : Sysc.Kernel.t;
  router : Tlm.Router.t;
  memory : Memory.t;
  uart : Uart.t;
  gpio : Gpio.t;
  sensor : Sensor.t;
  dma : Dma.t;
  aes : Aes_periph.t;
  can : Can.t;
  clint : Clint.t;
  plic : Plic.t;
  watchdog : Watchdog.t;
  core : Rv32.Core.t;
  cpu : cpu;
}

val create :
  policy:Dift.Policy.t ->
  monitor:Dift.Monitor.t ->
  ?tracking:bool ->
  ?dmi:bool ->
  ?quantum:int ->
  ?block_cache:bool ->
  ?strict_align:bool ->
  ?sensor_period:Sysc.Time.t ->
  ?aes_out_tag:Dift.Lattice.tag ->
  ?aes_in_clearance:Dift.Lattice.tag ->
  ?tracer:Trace.Tracer.t ->
  unit ->
  t
(** Build and wire the platform on a fresh kernel. [tracking] selects VP+
    (default true): it sets the CPU bus's flavour, which the core takes
    ({!Rv32.Bus_if.tracking}). [dmi] enables the direct RAM fast path
    (default true); [block_cache] (default true) selects the core's
    block compiler, false the single-step reference (see
    {!Rv32.Core.create}); [strict_align] traps misaligned data accesses
    (default false); [aes_out_tag] defaults to the lattice bottom (fully
    declassified ciphertext). RAM writes that bypass the CPU (DMA,
    the loader) are wired to block-cache invalidation. Peripheral processes
    are spawned; the CPU thread is not — call {!start} after loading
    firmware.

    [tracer] (built over the same lattice as [policy]) attaches the
    tracing subsystem: retired instructions, traps, routed bus
    transactions and monitor events fill the tracer's ring; taint
    introductions, merges and declassifications feed its IFT graph; the
    RV32 disassembler is installed for reports. Without it every hook
    stays unset — the simulation is byte-identical to a trace-free
    build. *)

val set_trace : t -> (int -> Rv32.Insn.t -> unit) option -> unit
(** Install (or remove, with [None]) a caller's per-instruction hook
    ({!Rv32.Core.set_trace} semantics). On a SoC built with a tracer the
    tracer's recorder runs first, then the caller's hook; [None] leaves
    the recorder alone. *)

val set_trap_hook : t -> (Rv32.Core.trap_event -> unit) option -> unit
(** Same composition as {!set_trace}, for {!Rv32.Core.set_trap_hook}. *)

val load_image : t -> Rv32_asm.Image.t -> unit
(** Copy the image into RAM, tag every byte according to the policy's
    classification (program regions, keys, ...), and point the CPU's reset
    pc at the image origin (or the ["_start"] symbol if defined). *)

val seed_taint :
  t -> origin:string -> addr:int -> len:int -> Dift.Lattice.tag -> unit
(** Explicit taint seeding: tag [len] bytes of RAM at global address
    [addr] and register the introduction with the tracer's graph (when a
    tracer is attached). Raises [Invalid_argument] if the range
    is outside RAM. *)

val start : t -> unit
(** Spawn the CPU thread; the simulation stops when the core halts. *)

val run : ?until:Sysc.Time.t -> t -> unit
(** Run the simulation (forwards to {!Sysc.Kernel.run}). *)

val run_for_instructions : t -> int -> Rv32.Core.exit_reason
(** Convenience: cap the instruction count, spawn the CPU, run to
    completion, and return why the core stopped. *)

val release : t -> unit
(** Free the fiber stacks of the platform's suspended processes (the
    peripherals' engines, and the CPU thread if it is parked) once its
    state has been read ({!Sysc.Kernel.release}). A platform dropped
    without it keeps about 3.5 KB of stacks for the life of the program.
    Registers, RAM and tags stay readable; the platform cannot run
    again. *)

(** {1 Checkpoint / restore}

    Deterministic full-state snapshots (see [docs/snapshot.md]). The
    protocol: request a pause with {!pause_at}, {!run} until the kernel
    stops with {!paused} true, {!save} the state, and either continue
    in-process with {!resume} or later rebuild an identically-configured
    SoC, {!load_image} the same firmware, and {!restore} before
    {!start}. Both paths continue bit-identically to an uninterrupted
    run — same architectural state, taint tags, peripheral state and
    trace event stream.

    Monitors and tracers are deliberately {e not} serialised: they are
    host-side observers. An in-process resume keeps observing seamlessly;
    a restore into a fresh process starts with empty observers (events
    before the checkpoint are not re-reported). *)

val pause_at : t -> int -> unit
(** Pause at the first CPU time-sync boundary at or after the given
    retired-instruction count. *)

val paused : t -> bool

val save : t -> string
(** Serialise the full platform state. The CPU must be paused (or halted:
    a final snapshot of a finished run doubles as a canonical state dump
    for diffing). Identical simulator state yields identical strings.
    Raises [Invalid_argument] if the CPU is still running. *)

val restore : t -> string -> unit
(** Load a {!save}d snapshot into a freshly created SoC of the same
    configuration after {!load_image} and before {!start}. Raises
    {!Snapshot.Codec.Corrupt} on malformed input. *)

val resume : ?until:Sysc.Time.t -> t -> unit
(** Clear the pause flag and continue the simulation in-process. *)

(** {1 Warm start}

    The campaign engine's per-task setup shortcut (see
    [docs/parallel.md]): serialise the post-reset settlement point of a
    freshly built, image-free platform once, then stamp it into each
    worker's freshly created SoC {e before} {!load_image} — so the
    construction-time time-0 settlement (peripheral processes running
    their first evaluation, initial notifications re-armed) becomes a
    codec decode. Unlike {!restore}, which expects the same firmware to
    already be loaded, {!warm_start} runs before the image load, so one
    blob serves every task of a campaign regardless of its program. The
    blob is an immutable string: share it freely across domains. *)

val boot_snapshot : t -> string
(** On a freshly created SoC ({e no} image loaded, never started): halt
    the CPU before its first fetch (zero instruction budget), settle all
    time-0 peripheral activity, and {!save}. The SoC is spent afterwards
    (its CPU thread has exited); discard it. Raises [Invalid_argument] if
    the SoC has already executed instructions. *)

val warm_start : t -> string -> unit
(** Load a {!boot_snapshot} blob into a freshly created SoC of the same
    configuration (same flavour, policy lattice shape, quantum, RAM size)
    and clear the halt it was taken under. Call {e before} {!load_image};
    then proceed exactly as after a cold {!create} — load the image,
    set the budget, {!start}, {!run}. Architecturally equivalent to the
    cold path; the determinism suite asserts it. *)
