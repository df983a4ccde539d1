(** Small self-checking workloads: the paper's hello-world plus extras
    beyond the Table II set, used by the benchmark series and as further
    ISS coverage:

    - {!hello}: the Table II hello-world — print the greeting over the
      UART [rounds] times, char-summing the message as a self-check (the
      perf-smoke CI workload);
    - {!crc32}: table-less (bitwise) CRC-32 over a generated buffer,
      checked against the host reference {!crc32_reference};
    - {!matmul}: integer matrix multiply C = A x B with a checksum over C;
    - {!strings}: a strlen/strcpy/strcmp workout over many generated
      strings (pointer-chasing heavy);
    - {!dispatch}: a branch-heavy control-flow stressor — a tight
      call/return pair plus a table-driven indirect dispatch whose
      [jalr] target rotates every iteration (the superblock engine's
      inline-cache hit, miss and demotion paths all fire).

    All exit 0 on success, 1 on a self-check mismatch. *)

val hello : ?rounds:int -> Rv32_asm.Asm.t -> unit
val hello_image : ?rounds:int -> unit -> Rv32_asm.Image.t

val crc32 : ?len:int -> Rv32_asm.Asm.t -> unit
val crc32_image : ?len:int -> unit -> Rv32_asm.Image.t

val crc32_reference : string -> int
(** Standard CRC-32 (IEEE 802.3, reflected, init/xorout 0xffffffff). *)

val matmul : ?n:int -> Rv32_asm.Asm.t -> unit
val matmul_image : ?n:int -> unit -> Rv32_asm.Image.t

val strings : ?count:int -> Rv32_asm.Asm.t -> unit
val strings_image : ?count:int -> unit -> Rv32_asm.Image.t

val dispatch : ?rounds:int -> Rv32_asm.Asm.t -> unit
val dispatch_image : ?rounds:int -> unit -> Rv32_asm.Image.t
