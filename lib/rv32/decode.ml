open Insn

let sext ~width v =
  let v = v land ((1 lsl width) - 1) in
  if v land (1 lsl (width - 1)) <> 0 then v - (1 lsl width) else v

let decode w =
  let w = w land 0xffffffff in
  let opcode = w land 0x7f in
  let rd = (w lsr 7) land 0x1f in
  let funct3 = (w lsr 12) land 0x7 in
  let rs1 = (w lsr 15) land 0x1f in
  let rs2 = (w lsr 20) land 0x1f in
  let funct7 = (w lsr 25) land 0x7f in
  let i_imm = sext ~width:12 (w lsr 20) in
  let s_imm = sext ~width:12 (((w lsr 25) lsl 5) lor rd) in
  let b_imm =
    sext ~width:13
      (((w lsr 31) lsl 12)
      lor (((w lsr 7) land 0x1) lsl 11)
      lor (((w lsr 25) land 0x3f) lsl 5)
      lor (((w lsr 8) land 0xf) lsl 1))
  in
  let u_imm = w land 0xfffff000 in
  let j_imm =
    sext ~width:21
      (((w lsr 31) lsl 20)
      lor (((w lsr 12) land 0xff) lsl 12)
      lor (((w lsr 20) land 0x1) lsl 11)
      lor (((w lsr 21) land 0x3ff) lsl 1))
  in
  match opcode with
  | 0x37 -> LUI (rd, u_imm)
  | 0x17 -> AUIPC (rd, u_imm)
  | 0x6f -> JAL (rd, j_imm)
  | 0x67 -> if funct3 = 0 then JALR (rd, rs1, i_imm) else ILLEGAL w
  | 0x63 -> (
      match funct3 with
      | 0 -> BEQ (rs1, rs2, b_imm)
      | 1 -> BNE (rs1, rs2, b_imm)
      | 4 -> BLT (rs1, rs2, b_imm)
      | 5 -> BGE (rs1, rs2, b_imm)
      | 6 -> BLTU (rs1, rs2, b_imm)
      | 7 -> BGEU (rs1, rs2, b_imm)
      | _ -> ILLEGAL w)
  | 0x03 -> (
      match funct3 with
      | 0 -> LB (rd, rs1, i_imm)
      | 1 -> LH (rd, rs1, i_imm)
      | 2 -> LW (rd, rs1, i_imm)
      | 4 -> LBU (rd, rs1, i_imm)
      | 5 -> LHU (rd, rs1, i_imm)
      | _ -> ILLEGAL w)
  | 0x23 -> (
      match funct3 with
      | 0 -> SB (rs1, rs2, s_imm)
      | 1 -> SH (rs1, rs2, s_imm)
      | 2 -> SW (rs1, rs2, s_imm)
      | _ -> ILLEGAL w)
  | 0x13 -> (
      match funct3 with
      | 0 -> ADDI (rd, rs1, i_imm)
      | 2 -> SLTI (rd, rs1, i_imm)
      | 3 -> SLTIU (rd, rs1, i_imm)
      | 4 -> XORI (rd, rs1, i_imm)
      | 6 -> ORI (rd, rs1, i_imm)
      | 7 -> ANDI (rd, rs1, i_imm)
      | 1 -> if funct7 = 0 then SLLI (rd, rs1, rs2) else ILLEGAL w
      | 5 ->
          if funct7 = 0 then SRLI (rd, rs1, rs2)
          else if funct7 = 0x20 then SRAI (rd, rs1, rs2)
          else ILLEGAL w
      | _ -> ILLEGAL w)
  | 0x33 -> (
      match (funct7, funct3) with
      | 0x00, 0 -> ADD (rd, rs1, rs2)
      | 0x20, 0 -> SUB (rd, rs1, rs2)
      | 0x00, 1 -> SLL (rd, rs1, rs2)
      | 0x00, 2 -> SLT (rd, rs1, rs2)
      | 0x00, 3 -> SLTU (rd, rs1, rs2)
      | 0x00, 4 -> XOR (rd, rs1, rs2)
      | 0x00, 5 -> SRL (rd, rs1, rs2)
      | 0x20, 5 -> SRA (rd, rs1, rs2)
      | 0x00, 6 -> OR (rd, rs1, rs2)
      | 0x00, 7 -> AND (rd, rs1, rs2)
      | 0x01, 0 -> MUL (rd, rs1, rs2)
      | 0x01, 1 -> MULH (rd, rs1, rs2)
      | 0x01, 2 -> MULHSU (rd, rs1, rs2)
      | 0x01, 3 -> MULHU (rd, rs1, rs2)
      | 0x01, 4 -> DIV (rd, rs1, rs2)
      | 0x01, 5 -> DIVU (rd, rs1, rs2)
      | 0x01, 6 -> REM (rd, rs1, rs2)
      | 0x01, 7 -> REMU (rd, rs1, rs2)
      | _ -> ILLEGAL w)
  | 0x0f -> FENCE
  | 0x73 -> (
      let csr = (w lsr 20) land 0xfff in
      match funct3 with
      | 0 -> (
          match (csr, rs1, rd) with
          | 0x000, 0, 0 -> ECALL
          | 0x001, 0, 0 -> EBREAK
          | 0x302, 0, 0 -> MRET
          | 0x105, 0, 0 -> WFI
          | _ -> ILLEGAL w)
      | 1 -> CSRRW (rd, rs1, csr)
      | 2 -> CSRRS (rd, rs1, csr)
      | 3 -> CSRRC (rd, rs1, csr)
      | 5 -> CSRRWI (rd, rs1, csr)
      | 6 -> CSRRSI (rd, rs1, csr)
      | 7 -> CSRRCI (rd, rs1, csr)
      | _ -> ILLEGAL w)
  | _ -> ILLEGAL w

(* --- Block classification ---------------------------------------------

   Which decoded instructions the basic-block machinery (Core's decoded
   block cache and the threaded-code compiler over it) may cache. *)

type block_class = Straight | Ender | Breaker

let block_class = function
  (* Excluded from blocks entirely: rare, complex side effects (traps,
     wfi, CSR traffic), always executed via the slow single-step path. *)
  | Insn.FENCE | Insn.ECALL | Insn.EBREAK | Insn.MRET | Insn.WFI
  | Insn.CSRRW _ | Insn.CSRRS _ | Insn.CSRRC _
  | Insn.CSRRWI _ | Insn.CSRRSI _ | Insn.CSRRCI _
  | Insn.ILLEGAL _ -> Breaker
  (* Control transfers end a block and are its last instruction. *)
  | Insn.JAL _ | Insn.JALR _
  | Insn.BEQ _ | Insn.BNE _ | Insn.BLT _ | Insn.BGE _
  | Insn.BLTU _ | Insn.BGEU _ -> Ender
  | _ -> Straight
