(** Decoded RV32IM(+Zicsr) instructions.

    Field conventions: [rd], [rs1], [rs2] are register indices; immediates
    and branch/jump offsets are sign-extended OCaml ints; [LUI]/[AUIPC]
    immediates are the already-shifted 32-bit upper value (bits 31..12 set,
    low 12 zero, as an unsigned int). *)

type t =
  (* Upper-immediate *)
  | LUI of int * int  (** rd, imm (shifted, unsigned 32-bit) *)
  | AUIPC of int * int  (** rd, imm (shifted, unsigned 32-bit) *)
  (* Jumps *)
  | JAL of int * int  (** rd, pc-relative offset *)
  | JALR of int * int * int  (** rd, rs1, offset *)
  (* Conditional branches: rs1, rs2, pc-relative offset *)
  | BEQ of int * int * int
  | BNE of int * int * int
  | BLT of int * int * int
  | BGE of int * int * int
  | BLTU of int * int * int
  | BGEU of int * int * int
  (* Loads: rd, rs1 (base), offset *)
  | LB of int * int * int
  | LH of int * int * int
  | LW of int * int * int
  | LBU of int * int * int
  | LHU of int * int * int
  (* Stores: rs1 (base), rs2 (source), offset *)
  | SB of int * int * int
  | SH of int * int * int
  | SW of int * int * int
  (* Register-immediate ALU: rd, rs1, imm (shamt for shifts) *)
  | ADDI of int * int * int
  | SLTI of int * int * int
  | SLTIU of int * int * int
  | XORI of int * int * int
  | ORI of int * int * int
  | ANDI of int * int * int
  | SLLI of int * int * int
  | SRLI of int * int * int
  | SRAI of int * int * int
  (* Register-register ALU: rd, rs1, rs2 *)
  | ADD of int * int * int
  | SUB of int * int * int
  | SLL of int * int * int
  | SLT of int * int * int
  | SLTU of int * int * int
  | XOR of int * int * int
  | SRL of int * int * int
  | SRA of int * int * int
  | OR of int * int * int
  | AND of int * int * int
  (* M extension: rd, rs1, rs2 *)
  | MUL of int * int * int
  | MULH of int * int * int
  | MULHSU of int * int * int
  | MULHU of int * int * int
  | DIV of int * int * int
  | DIVU of int * int * int
  | REM of int * int * int
  | REMU of int * int * int
  (* System *)
  | FENCE
  | ECALL
  | EBREAK
  | MRET
  | WFI
  (* Zicsr: rd, rs1 (or zero-extended immediate for the *I forms), csr *)
  | CSRRW of int * int * int
  | CSRRS of int * int * int
  | CSRRC of int * int * int
  | CSRRWI of int * int * int
  | CSRRSI of int * int * int
  | CSRRCI of int * int * int
  | ILLEGAL of int  (** Raw instruction word (unsigned 32-bit). *)

val opcode : t -> string
(** Lowercase mnemonic ("addi", "mulhsu", ...); ["illegal"] for
    {!ILLEGAL}. Stable keys for coverage tables. *)

val rv32im_opcodes : string list
(** Every user-mode RV32IM mnemonic a firmware program can retire on this
    platform without trapping (the base integer set, the M extension,
    [fence] and [ecall]) — the coverage target of the difftest fuzzer.
    Excludes [ebreak], the privileged/Zicsr forms and [illegal]. *)

val is_branch : t -> bool
(** Conditional branches only. *)

val is_memory : t -> bool
(** Loads and stores. *)

val rs1 : t -> int
(** First source-register index; [0] (x0, always untainted) when the
    instruction has none — so [rs1]/[rs2] can feed a register-tag lookup
    unconditionally. The CSR immediate forms report 0. *)

val rs2 : t -> int
(** Second source-register index, with the same [0] convention. *)
