(** Core-local interruptor (CLINT): machine timer and software interrupts.

    Register map (as in the SiFive/RISC-V VP convention):
    - [0x0000] MSIP: bit 0 raises the machine software interrupt;
    - [0x4000] / [0x4004] MTIMECMP low/high;
    - [0xbff8] / [0xbffc] MTIME low/high (read-only; derived from simulation
      time, one tick per [tick] of simulated time, default 1 us).

    MTIMECMP is held as its two 32-bit halves and compared against MTIME
    half by half (unsigned), never composed into one OCaml int — the
    composed form overflows the 63-bit native int for high halves with
    bit 31 set and asserted the interrupt spuriously mid-update. The
    reset value is all-ones ("never"); writing [0xffffffff] to the high
    half first, as the standard RISC-V sequence does, updates the
    deadline glitch-free. Distant deadlines are tracked with bounded
    re-armed wakeups, so no reachable deadline misses its interrupt. *)

type t

val create : Env.t -> name:string -> unit -> t
(** [mtime] advances one tick per microsecond of simulated time. *)

val socket : t -> Tlm.Socket.target

val set_timer_irq_callback : t -> (bool -> unit) -> unit
(** Level callback for MTIP (wired to {!Rv32.Csr.bit_mti}). *)

val set_soft_irq_callback : t -> (bool -> unit) -> unit
(** Level callback for MSIP. *)

val start : t -> unit
(** Spawn the timer-compare process. *)

val mtime : t -> int
(** Current MTIME value. *)

val save : t -> Snapshot.Codec.writer -> unit
val load : t -> Snapshot.Codec.reader -> unit
