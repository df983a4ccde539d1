(** Firmware runtime support: entry/exit conventions and a small library of
    assembly subroutines shared by the benchmark and case-study programs.

    Conventions: programs start at the ["_start"] label with [sp] set by
    {!entry}; subroutines follow the RISC-V calling convention (args/results
    in [a0..], [ra] for return, callee-saved [s*]). *)

val stack_top : int
(** Default initial stack pointer (near the top of the 1 MiB RAM). *)

val entry : Rv32_asm.Asm.t -> ?stack:int -> unit -> unit
(** Emit the ["_start"] label and stack setup. *)

val exit_ : Rv32_asm.Asm.t -> ?code:int -> unit -> unit
(** Exit via the ecall convention with a constant code. *)

val exit_a0 : Rv32_asm.Asm.t -> unit
(** Exit with the current value of [a0] as code. *)

val fn : Rv32_asm.Asm.t -> string -> (unit -> unit) -> unit
(** [fn p name body]: emit a leaf-friendly function: label, a 16-byte frame
    saving [ra] and [s0], the body, then epilogue + [ret]. The body may call
    other functions (ra is saved). *)

(** {1 Subroutine emitters}

    Each [emit_*] appends one named subroutine; call each at most once per
    program and invoke with [Asm.call p "<name>"]. *)

val emit_uart_putc : Rv32_asm.Asm.t -> unit
(** ["uart_putc"]: transmit the byte in [a0]. *)

val emit_uart_puts : Rv32_asm.Asm.t -> unit
(** ["uart_puts"]: transmit the NUL-terminated string at [a0]. Requires
    ["uart_putc"]. *)

val emit_memcpy : Rv32_asm.Asm.t -> unit
(** ["memcpy"]: copy [a2] bytes from [a1] to [a0]; returns [a0]. *)

val emit_strcmp : Rv32_asm.Asm.t -> unit
(** ["strcmp"]: compare NUL-terminated strings [a0]/[a1]; result in [a0]. *)

val emit_rand : Rv32_asm.Asm.t -> seed:int -> unit
(** ["rand"]: xorshift32 PRNG; returns the next value in [a0]; state kept in
    the data word ["rand_state"]. *)

val setup_trap_handler : Rv32_asm.Asm.t -> string -> unit
(** Point [mtvec] at a label (clobbers [t6]). *)

val enable_machine_interrupts : Rv32_asm.Asm.t -> mie_bits:int -> unit
(** Set the given bits in [mie] and the global [mstatus.MIE] (clobbers
    [t6]). *)
