(* Memory is a table of 4 KiB pages, each allocated on its first
   write; a page never written reads as zeros, as a flat image would. A
   generated program touches its image and a scratch buffer, so a run
   costs a few pages, not the whole RAM. *)
let page_bits = 12
let page_size = 1 lsl page_bits

type t = {
  mem_base : int;
  mem_size : int;
  pages : Bytes.t option array;
  regs : int array;
  mutable pc : int;
  mutable retired : int;
  (* Machine-mode state, spelled out locally: the golden model shares no
     CSR code with the production core, so a WARL-mask or trap-stacking
     bug in either side shows up as a differential. *)
  mutable priv : int;
  mutable mstatus : int;
  mutable mie : int;
  mutable mtvec : int;
  mutable mscratch : int;
  mutable mepc : int;
  mutable mcause : int;
  mutable mtval : int;
}

type stop = Exited of int | Trap of int | Limit

let create ~mem_base ~mem_size =
  {
    mem_base;
    mem_size;
    pages = Array.make ((mem_size + page_size - 1) lsr page_bits) None;
    regs = Array.make 32 0;
    pc = mem_base;
    retired = 0;
    priv = 3;
    mstatus = 0x1800;
    mie = 0;
    mtvec = 0;
    mscratch = 0;
    mepc = 0;
    mcause = 0;
    mtval = 0;
  }

(* Byte access by offset from [mem_base]; callers check the range. *)
let get_byte t off =
  match t.pages.(off lsr page_bits) with
  | None -> 0
  | Some p -> Bytes.get_uint8 p (off land (page_size - 1))

let set_byte t off v =
  let i = off lsr page_bits in
  let p =
    match t.pages.(i) with
    | Some p -> p
    | None ->
        let p = Bytes.make page_size '\000' in
        t.pages.(i) <- Some p;
        p
  in
  Bytes.set_uint8 p (off land (page_size - 1)) v

(* Little-endian, a byte at a time, so an access may straddle pages. *)
let get_le t off width =
  let v = ref 0 in
  for k = width - 1 downto 0 do
    v := (!v lsl 8) lor get_byte t (off + k)
  done;
  !v

let set_le t off width v =
  for k = 0 to width - 1 do
    set_byte t (off + k) ((v lsr (8 * k)) land 0xff)
  done

let in_range t addr width =
  addr >= t.mem_base && addr + width <= t.mem_base + t.mem_size

let load t ~addr s =
  if not (in_range t addr (String.length s)) then
    invalid_arg "Golden.load: out of range";
  String.iteri (fun k c -> set_byte t (addr - t.mem_base + k) (Char.code c)) s

let set_pc t v = t.pc <- v land 0xffffffff
let set_reg t r v = if r <> 0 then t.regs.(r) <- v land 0xffffffff
let reg t r = t.regs.(r)
let pc t = t.pc
let priv t = t.priv
let mem_byte t addr =
  if not (in_range t addr 1) then invalid_arg "Golden.mem_byte: out of range";
  get_byte t (addr - t.mem_base)

let u32 v = v land 0xffffffff
let s32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

exception Stop of stop
exception Mem_fault of { cause : int; addr : int }

let load_v t width addr =
  if not (in_range t addr width) then raise_notrace (Mem_fault { cause = 5; addr });
  get_le t (addr - t.mem_base) width

let store_v t width addr v =
  if not (in_range t addr width) then raise_notrace (Mem_fault { cause = 7; addr });
  set_le t (addr - t.mem_base) width v

(* A synchronous trap: with no handler installed the run stops (the
   pre-privilege convention, kept for programs that never touch mtvec);
   otherwise stack MIE/MPIE/MPP, raise to machine mode and vector. *)
let enter_trap t ~cause ~tval ~epc =
  if t.mtvec land 0xfffffffc = 0 then raise (Stop (Trap cause));
  t.mepc <- epc;
  t.mcause <- u32 cause;
  t.mtval <- u32 tval;
  let mie = (t.mstatus lsr 3) land 1 in
  t.mstatus <- (t.mstatus land lnot 0x1888) lor (mie lsl 7) lor (t.priv lsl 11);
  t.priv <- 3;
  let base = t.mtvec land 0xfffffffc in
  t.pc <-
    (if t.mtvec land 3 = 1 && cause land 0x80000000 <> 0 then
       u32 (base + (4 * (cause land 0x7fffffff)))
     else base)

(* CSR reads; the production core models one cycle per instruction, so
   every counter reads as the retired-instruction count. *)
let csr_read t num =
  match num with
  | 0x300 -> Some t.mstatus
  | 0x301 -> Some 0x40101100 (* misa: MXL=1, extensions I, M, U *)
  | 0x304 -> Some t.mie
  | 0x305 -> Some t.mtvec
  | 0x340 -> Some t.mscratch
  | 0x341 -> Some t.mepc
  | 0x342 -> Some t.mcause
  | 0x343 -> Some t.mtval
  | 0x344 -> Some 0 (* mip: the golden model has no interrupt sources *)
  | 0xf11 | 0xf12 | 0xf13 | 0xf14 -> Some 0
  | 0xb00 | 0xb02 | 0xc00 | 0xc01 | 0xc02 -> Some (u32 t.retired)
  | _ -> None

let csr_write t num v =
  match num with
  | 0x300 ->
      (* Writable: MIE, MPIE, MPP; MPP is WARL over {U, M}. *)
      let mpp = if (v lsr 11) land 3 = 0 then 0 else 3 in
      t.mstatus <- (mpp lsl 11) lor (v land 0x88);
      true
  | 0x301 -> true (* misa is WARL: writes ignored *)
  | 0x304 ->
      t.mie <- v land 0x888;
      true
  | 0x305 ->
      (* Base 4-aligned; modes 0/1 implemented, reserved modes snap to 0. *)
      let mode = v land 3 in
      t.mtvec <- (v land 0xfffffffc) lor (if mode <= 1 then mode else 0);
      true
  | 0x340 ->
      t.mscratch <- u32 v;
      true
  | 0x341 ->
      t.mepc <- v land 0xfffffffc;
      true
  | 0x342 ->
      t.mcause <- u32 v;
      true
  | 0x343 ->
      t.mtval <- u32 v;
      true
  | 0x344 -> true (* software may not pend interrupts directly *)
  | _ -> false

let do_csr t pc0 word rd num ~src ~op ~do_write =
  if t.priv < (num lsr 8) land 3 then enter_trap t ~cause:2 ~tval:word ~epc:pc0
  else
    match csr_read t num with
    | None -> enter_trap t ~cause:2 ~tval:word ~epc:pc0
    | Some old ->
        let ok =
          if do_write then
            let v =
              match op with
              | `W -> src
              | `S -> old lor src
              | `C -> old land lnot src land 0xffffffff
            in
            csr_write t num v
          else true
        in
        if ok then (if rd <> 0 then t.regs.(rd) <- old)
        else enter_trap t ~cause:2 ~tval:word ~epc:pc0

let step t =
  let open Insn in
  let pc0 = t.pc in
  if pc0 land 3 <> 0 then enter_trap t ~cause:0 ~tval:pc0 ~epc:pc0
  else if not (in_range t pc0 4) then enter_trap t ~cause:1 ~tval:pc0 ~epc:pc0
  else begin
    let word = get_le t (pc0 - t.mem_base) 4 in
    let r = t.regs in
    let wr rd v = if rd <> 0 then r.(rd) <- u32 v in
    t.pc <- u32 (pc0 + 4);
    try
      match Decode.decode word with
      | LUI (rd, imm) -> wr rd imm
      | AUIPC (rd, imm) -> wr rd (pc0 + imm)
      | JAL (rd, off) ->
          wr rd (pc0 + 4);
          t.pc <- u32 (pc0 + off)
      | JALR (rd, rs1, off) ->
          let target = u32 (r.(rs1) + off) land lnot 1 in
          wr rd (pc0 + 4);
          t.pc <- target
      | BEQ (a, b, off) -> if r.(a) = r.(b) then t.pc <- u32 (pc0 + off)
      | BNE (a, b, off) -> if r.(a) <> r.(b) then t.pc <- u32 (pc0 + off)
      | BLT (a, b, off) -> if s32 r.(a) < s32 r.(b) then t.pc <- u32 (pc0 + off)
      | BGE (a, b, off) -> if s32 r.(a) >= s32 r.(b) then t.pc <- u32 (pc0 + off)
      | BLTU (a, b, off) -> if r.(a) < r.(b) then t.pc <- u32 (pc0 + off)
      | BGEU (a, b, off) -> if r.(a) >= r.(b) then t.pc <- u32 (pc0 + off)
      | LB (rd, rs1, off) ->
          let v = load_v t 1 (u32 (r.(rs1) + off)) in
          wr rd (if v land 0x80 <> 0 then v lor 0xffffff00 else v)
      | LH (rd, rs1, off) ->
          let v = load_v t 2 (u32 (r.(rs1) + off)) in
          wr rd (if v land 0x8000 <> 0 then v lor 0xffff0000 else v)
      | LW (rd, rs1, off) -> wr rd (load_v t 4 (u32 (r.(rs1) + off)))
      | LBU (rd, rs1, off) -> wr rd (load_v t 1 (u32 (r.(rs1) + off)))
      | LHU (rd, rs1, off) -> wr rd (load_v t 2 (u32 (r.(rs1) + off)))
      | SB (rs1, rs2, off) -> store_v t 1 (u32 (r.(rs1) + off)) r.(rs2)
      | SH (rs1, rs2, off) -> store_v t 2 (u32 (r.(rs1) + off)) r.(rs2)
      | SW (rs1, rs2, off) -> store_v t 4 (u32 (r.(rs1) + off)) r.(rs2)
      | ADDI (rd, rs1, imm) -> wr rd (r.(rs1) + imm)
      | SLTI (rd, rs1, imm) -> wr rd (if s32 r.(rs1) < imm then 1 else 0)
      | SLTIU (rd, rs1, imm) -> wr rd (if r.(rs1) < u32 imm then 1 else 0)
      | XORI (rd, rs1, imm) -> wr rd (r.(rs1) lxor u32 imm)
      | ORI (rd, rs1, imm) -> wr rd (r.(rs1) lor u32 imm)
      | ANDI (rd, rs1, imm) -> wr rd (r.(rs1) land u32 imm)
      | SLLI (rd, rs1, sh) -> wr rd (r.(rs1) lsl sh)
      | SRLI (rd, rs1, sh) -> wr rd (r.(rs1) lsr sh)
      | SRAI (rd, rs1, sh) -> wr rd (s32 r.(rs1) asr sh)
      | ADD (rd, a, b) -> wr rd (r.(a) + r.(b))
      | SUB (rd, a, b) -> wr rd (r.(a) - r.(b))
      | SLL (rd, a, b) -> wr rd (r.(a) lsl (r.(b) land 31))
      | SLT (rd, a, b) -> wr rd (if s32 r.(a) < s32 r.(b) then 1 else 0)
      | SLTU (rd, a, b) -> wr rd (if r.(a) < r.(b) then 1 else 0)
      | XOR (rd, a, b) -> wr rd (r.(a) lxor r.(b))
      | SRL (rd, a, b) -> wr rd (r.(a) lsr (r.(b) land 31))
      | SRA (rd, a, b) -> wr rd (s32 r.(a) asr (r.(b) land 31))
      | OR (rd, a, b) -> wr rd (r.(a) lor r.(b))
      | AND (rd, a, b) -> wr rd (r.(a) land r.(b))
      | MUL (rd, a, b) ->
          wr rd (Int64.to_int (Int64.mul (Int64.of_int r.(a)) (Int64.of_int r.(b))))
      | MULH (rd, a, b) ->
          wr rd
            (Int64.to_int
               (Int64.shift_right
                  (Int64.mul (Int64.of_int (s32 r.(a))) (Int64.of_int (s32 r.(b))))
                  32))
      | MULHSU (rd, a, b) ->
          wr rd
            (Int64.to_int
               (Int64.shift_right
                  (Int64.mul (Int64.of_int (s32 r.(a))) (Int64.of_int r.(b)))
                  32))
      | MULHU (rd, a, b) ->
          wr rd
            (Int64.to_int
               (Int64.shift_right_logical
                  (Int64.mul (Int64.of_int r.(a)) (Int64.of_int r.(b)))
                  32))
      | DIV (rd, a, b) ->
          let x = s32 r.(a) and y = s32 r.(b) in
          wr rd
            (if y = 0 then -1
             else if x = -0x80000000 && y = -1 then -0x80000000
             else x / y)
      | DIVU (rd, a, b) -> wr rd (if r.(b) = 0 then 0xffffffff else r.(a) / r.(b))
      | REM (rd, a, b) ->
          let x = s32 r.(a) and y = s32 r.(b) in
          wr rd (if y = 0 then x else if x = -0x80000000 && y = -1 then 0 else x mod y)
      | REMU (rd, a, b) -> wr rd (if r.(b) = 0 then r.(a) else r.(a) mod r.(b))
      | FENCE -> ()
      | ECALL ->
          if t.priv = 3 && r.(17) = 93 then raise (Stop (Exited (s32 r.(10))))
          else
            enter_trap t
              ~cause:(if t.priv = 3 then 11 else 8)
              ~tval:0 ~epc:pc0
      | EBREAK ->
          if t.mtvec land 0xfffffffc <> 0 then
            enter_trap t ~cause:3 ~tval:pc0 ~epc:pc0
          else raise (Stop (Trap 3))
      | MRET ->
          if t.priv <> 3 then enter_trap t ~cause:2 ~tval:word ~epc:pc0
          else begin
            let mpie = (t.mstatus lsr 7) land 1 in
            let mpp = (t.mstatus lsr 11) land 3 in
            (* Unstack: MIE <- MPIE, MPIE <- 1, priv <- MPP, MPP <- U. *)
            t.mstatus <- (t.mstatus land lnot 0x1808) lor (mpie lsl 3) lor 0x80;
            t.priv <- mpp;
            t.pc <- u32 t.mepc
          end
      | WFI -> raise (Stop (Trap 2))
      | CSRRW (rd, rs1, n) ->
          do_csr t pc0 word rd n ~src:r.(rs1) ~op:`W ~do_write:true
      | CSRRS (rd, rs1, n) ->
          do_csr t pc0 word rd n ~src:r.(rs1) ~op:`S ~do_write:(rs1 <> 0)
      | CSRRC (rd, rs1, n) ->
          do_csr t pc0 word rd n ~src:r.(rs1) ~op:`C ~do_write:(rs1 <> 0)
      | CSRRWI (rd, z, n) -> do_csr t pc0 word rd n ~src:z ~op:`W ~do_write:true
      | CSRRSI (rd, z, n) ->
          do_csr t pc0 word rd n ~src:z ~op:`S ~do_write:(z <> 0)
      | CSRRCI (rd, z, n) ->
          do_csr t pc0 word rd n ~src:z ~op:`C ~do_write:(z <> 0)
      | ILLEGAL w -> enter_trap t ~cause:2 ~tval:w ~epc:pc0
    with Mem_fault { cause; addr } -> enter_trap t ~cause ~tval:addr ~epc:pc0
  end

let run t ~max_insns =
  let n = ref 0 in
  try
    while !n < max_insns do
      t.retired <- !n;
      step t;
      incr n
    done;
    (Limit, !n)
  with Stop s -> (s, !n + 1)
