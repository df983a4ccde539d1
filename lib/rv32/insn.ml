type t =
  | LUI of int * int
  | AUIPC of int * int
  | JAL of int * int
  | JALR of int * int * int
  | BEQ of int * int * int
  | BNE of int * int * int
  | BLT of int * int * int
  | BGE of int * int * int
  | BLTU of int * int * int
  | BGEU of int * int * int
  | LB of int * int * int
  | LH of int * int * int
  | LW of int * int * int
  | LBU of int * int * int
  | LHU of int * int * int
  | SB of int * int * int
  | SH of int * int * int
  | SW of int * int * int
  | ADDI of int * int * int
  | SLTI of int * int * int
  | SLTIU of int * int * int
  | XORI of int * int * int
  | ORI of int * int * int
  | ANDI of int * int * int
  | SLLI of int * int * int
  | SRLI of int * int * int
  | SRAI of int * int * int
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
  | MUL of int * int * int
  | MULH of int * int * int
  | MULHSU of int * int * int
  | MULHU of int * int * int
  | DIV of int * int * int
  | DIVU of int * int * int
  | REM of int * int * int
  | REMU of int * int * int
  | FENCE
  | ECALL
  | EBREAK
  | MRET
  | WFI
  | CSRRW of int * int * int
  | CSRRS of int * int * int
  | CSRRC of int * int * int
  | CSRRWI of int * int * int
  | CSRRSI of int * int * int
  | CSRRCI of int * int * int
  | ILLEGAL of int

let is_branch = function
  | BEQ _ | BNE _ | BLT _ | BGE _ | BLTU _ | BGEU _ -> true
  | _ -> false

let is_memory = function
  | LB _ | LH _ | LW _ | LBU _ | LHU _ | SB _ | SH _ | SW _ -> true
  | _ -> false

let opcode = function
  | LUI _ -> "lui"
  | AUIPC _ -> "auipc"
  | JAL _ -> "jal"
  | JALR _ -> "jalr"
  | BEQ _ -> "beq"
  | BNE _ -> "bne"
  | BLT _ -> "blt"
  | BGE _ -> "bge"
  | BLTU _ -> "bltu"
  | BGEU _ -> "bgeu"
  | LB _ -> "lb"
  | LH _ -> "lh"
  | LW _ -> "lw"
  | LBU _ -> "lbu"
  | LHU _ -> "lhu"
  | SB _ -> "sb"
  | SH _ -> "sh"
  | SW _ -> "sw"
  | ADDI _ -> "addi"
  | SLTI _ -> "slti"
  | SLTIU _ -> "sltiu"
  | XORI _ -> "xori"
  | ORI _ -> "ori"
  | ANDI _ -> "andi"
  | SLLI _ -> "slli"
  | SRLI _ -> "srli"
  | SRAI _ -> "srai"
  | ADD _ -> "add"
  | SUB _ -> "sub"
  | SLL _ -> "sll"
  | SLT _ -> "slt"
  | SLTU _ -> "sltu"
  | XOR _ -> "xor"
  | SRL _ -> "srl"
  | SRA _ -> "sra"
  | OR _ -> "or"
  | AND _ -> "and"
  | MUL _ -> "mul"
  | MULH _ -> "mulh"
  | MULHSU _ -> "mulhsu"
  | MULHU _ -> "mulhu"
  | DIV _ -> "div"
  | DIVU _ -> "divu"
  | REM _ -> "rem"
  | REMU _ -> "remu"
  | FENCE -> "fence"
  | ECALL -> "ecall"
  | EBREAK -> "ebreak"
  | MRET -> "mret"
  | WFI -> "wfi"
  | CSRRW _ -> "csrrw"
  | CSRRS _ -> "csrrs"
  | CSRRC _ -> "csrrc"
  | CSRRWI _ -> "csrrwi"
  | CSRRSI _ -> "csrrsi"
  | CSRRCI _ -> "csrrci"
  | ILLEGAL _ -> "illegal"

let rv32im_opcodes =
  [
    "lui"; "auipc"; "jal"; "jalr";
    "beq"; "bne"; "blt"; "bge"; "bltu"; "bgeu";
    "lb"; "lh"; "lw"; "lbu"; "lhu"; "sb"; "sh"; "sw";
    "addi"; "slti"; "sltiu"; "xori"; "ori"; "andi"; "slli"; "srli"; "srai";
    "add"; "sub"; "sll"; "slt"; "sltu"; "xor"; "srl"; "sra"; "or"; "and";
    "mul"; "mulh"; "mulhsu"; "mulhu"; "div"; "divu"; "rem"; "remu";
    "fence"; "ecall";
  ]

let rs1 = function
  | JALR (_, rs1, _) -> rs1
  | BEQ (rs1, _, _) | BNE (rs1, _, _) | BLT (rs1, _, _) | BGE (rs1, _, _)
  | BLTU (rs1, _, _) | BGEU (rs1, _, _) ->
      rs1
  | LB (_, rs1, _) | LH (_, rs1, _) | LW (_, rs1, _) | LBU (_, rs1, _)
  | LHU (_, rs1, _) ->
      rs1
  | SB (rs1, _, _) | SH (rs1, _, _) | SW (rs1, _, _) -> rs1
  | ADDI (_, rs1, _) | SLTI (_, rs1, _) | SLTIU (_, rs1, _) | XORI (_, rs1, _)
  | ORI (_, rs1, _) | ANDI (_, rs1, _) | SLLI (_, rs1, _) | SRLI (_, rs1, _)
  | SRAI (_, rs1, _) ->
      rs1
  | ADD (_, rs1, _) | SUB (_, rs1, _) | SLL (_, rs1, _) | SLT (_, rs1, _)
  | SLTU (_, rs1, _) | XOR (_, rs1, _) | SRL (_, rs1, _) | SRA (_, rs1, _)
  | OR (_, rs1, _) | AND (_, rs1, _) ->
      rs1
  | MUL (_, rs1, _) | MULH (_, rs1, _) | MULHSU (_, rs1, _)
  | MULHU (_, rs1, _) | DIV (_, rs1, _) | DIVU (_, rs1, _) | REM (_, rs1, _)
  | REMU (_, rs1, _) ->
      rs1
  | CSRRW (_, rs1, _) | CSRRS (_, rs1, _) | CSRRC (_, rs1, _) -> rs1
  | LUI _ | AUIPC _ | JAL _ | FENCE | ECALL | EBREAK | MRET | WFI
  | CSRRWI _ | CSRRSI _ | CSRRCI _ | ILLEGAL _ ->
      0

let rs2 = function
  | BEQ (_, rs2, _) | BNE (_, rs2, _) | BLT (_, rs2, _) | BGE (_, rs2, _)
  | BLTU (_, rs2, _) | BGEU (_, rs2, _) ->
      rs2
  | SB (_, rs2, _) | SH (_, rs2, _) | SW (_, rs2, _) -> rs2
  | ADD (_, _, rs2) | SUB (_, _, rs2) | SLL (_, _, rs2) | SLT (_, _, rs2)
  | SLTU (_, _, rs2) | XOR (_, _, rs2) | SRL (_, _, rs2) | SRA (_, _, rs2)
  | OR (_, _, rs2) | AND (_, _, rs2) ->
      rs2
  | MUL (_, _, rs2) | MULH (_, _, rs2) | MULHSU (_, _, rs2)
  | MULHU (_, _, rs2) | DIV (_, _, rs2) | DIVU (_, _, rs2) | REM (_, _, rs2)
  | REMU (_, _, rs2) ->
      rs2
  | LUI _ | AUIPC _ | JAL _ | JALR _ | LB _ | LH _ | LW _ | LBU _ | LHU _
  | ADDI _ | SLTI _ | SLTIU _ | XORI _ | ORI _ | ANDI _ | SLLI _ | SRLI _
  | SRAI _ | FENCE | ECALL | EBREAK | MRET | WFI | CSRRW _ | CSRRS _
  | CSRRC _ | CSRRWI _ | CSRRSI _ | CSRRCI _ | ILLEGAL _ ->
      0
