(** RV32IM(+Zicsr) instruction decoder. *)

val decode : int -> Insn.t
(** [decode word] decodes a 32-bit instruction word (given as an unsigned
    OCaml int). Undecodable words yield [Insn.ILLEGAL word]; they never
    raise. *)

val sext : width:int -> int -> int
(** Sign-extend the low [width] bits of a value (exposed for the assembler
    and tests). *)

(** {1 Block classification}

    How an instruction behaves inside a decoded basic block, as built by
    the block cache and threaded-code compiler in {!Core}. *)

type block_class =
  | Straight  (** Cacheable, falls through to the next instruction. *)
  | Ender  (** Cacheable control transfer; terminates a block. *)
  | Breaker
      (** Never cached (system / CSR / illegal); executed single-step. *)

val block_class : Insn.t -> block_class
