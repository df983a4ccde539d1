(** Dynamic opcode and branch coverage, collected through the core's
    per-instruction trace hook and fed back into generation weights.

    Branch direction is inferred from consecutive trace pcs: a traced
    conditional branch at [pc] was taken iff the next traced pc differs
    from [pc + 4]. *)

type t

val create : unit -> t

val note : t -> pc:int -> Rv32.Insn.t -> unit
(** Record one executed instruction (call in trace order). *)

val hook : t -> int -> Rv32.Insn.t -> unit
(** [note] shaped for {!Vp.Soc.set_trace}. *)

val merge : into:t -> t -> unit
(** Add another table's counts (per-program tables into the global one). *)

val count : t -> string -> int
(** Executions of an opcode mnemonic (see {!Rv32.Insn.opcode}). *)

val total : t -> int
(** Total instructions recorded. *)

val covered : t -> string list
(** RV32IM mnemonics executed at least once, in table order. *)

val missing : t -> string list
(** RV32IM mnemonics never executed ({!Rv32.Insn.rv32im_opcodes} order). *)

val taken : t -> string -> int
(** Taken executions of a branch mnemonic. *)

val not_taken : t -> string -> int

val save : Snapshot.Codec.writer -> t -> unit
(** Serialise for a campaign checkpoint: the count tables as sorted
    (key, count) lists plus the total. An unresolved trailing branch
    ([note]'s pending direction) is dropped, exactly as {!merge} drops
    it — a reloaded table merges identically to the live one. *)

val load : Snapshot.Codec.reader -> t
(** Inverse of {!save}; raises [Snapshot.Codec.Corrupt] on malformed
    input. *)

val pp : Format.formatter -> t -> unit
(** The per-opcode coverage table (counts, branch taken/not-taken split,
    missing opcodes). *)
