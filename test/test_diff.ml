(* Differential fuzzing: VP and VP+ must compute identical architectural
   state on random programs — the DIFT engine may only ADD checks, never
   change values. This is the stress-testing direction the paper lists as
   future work, done with QCheck.

   Programs are straight-line RV32IM with optional one-instruction forward
   skips under any of the six branch conditions; memory traffic is
   confined to a scratch buffer. Four working registers start at the
   corner values 0, -1, 0x7fffffff and 0x80000000, so the DIV/REM
   overflow case and mixed-sign MULH* products come up routinely. *)

open Helpers
module A = Rv32_asm.Asm
module I = Rv32.Insn

(* Working registers x5..x15; x28 holds the scratch-buffer base.
   Results land in x5..x11 only, so x12..x15 keep their corner values
   for the whole program. *)
let wreg = QCheck.Gen.int_range 5 15
let dst = QCheck.Gen.int_range 5 11
let corner = QCheck.Gen.int_range 12 15
let buf_reg = 28

(* [Skip b]: the conditional branch [b] jumps over the next instruction. *)
type rinsn = Plain of I.t | Skip of I.t

let gen_rinsn =
  let open QCheck.Gen in
  let imm = int_range (-2048) 2047 in
  let off = map (fun x -> x * 4) (int_bound 62) (* word-aligned, in buffer *) in
  let shamt = int_bound 31 in
  (* Any two corner registers; a quarter of the time the DIV/REM
     overflow pair 0x80000000 / -1. *)
  let corner_pair =
    frequency [ (3, pair corner corner); (1, return (15, 13)) ]
  in
  frequency
    [
      (6, map3 (fun rd a b -> Plain (I.ADD (rd, a, b))) dst wreg wreg);
      (4, map3 (fun rd a b -> Plain (I.SUB (rd, a, b))) dst wreg wreg);
      (4, map3 (fun rd a b -> Plain (I.XOR (rd, a, b))) dst wreg wreg);
      (4, map3 (fun rd a b -> Plain (I.OR (rd, a, b))) dst wreg wreg);
      (4, map3 (fun rd a b -> Plain (I.AND (rd, a, b))) dst wreg wreg);
      (3, map3 (fun rd a b -> Plain (I.SLT (rd, a, b))) dst wreg wreg);
      (3, map3 (fun rd a b -> Plain (I.SLTU (rd, a, b))) dst wreg wreg);
      (3, map3 (fun rd a b -> Plain (I.SLL (rd, a, b))) dst wreg wreg);
      (3, map3 (fun rd a b -> Plain (I.SRL (rd, a, b))) dst wreg wreg);
      (3, map3 (fun rd a b -> Plain (I.SRA (rd, a, b))) dst wreg wreg);
      (4, map3 (fun rd a b -> Plain (I.MUL (rd, a, b))) dst wreg wreg);
      (2, map3 (fun rd a b -> Plain (I.MULH (rd, a, b))) dst wreg wreg);
      (2, map3 (fun rd a b -> Plain (I.MULHU (rd, a, b))) dst wreg wreg);
      (2, map3 (fun rd a b -> Plain (I.DIV (rd, a, b))) dst wreg wreg);
      (2, map3 (fun rd a b -> Plain (I.DIVU (rd, a, b))) dst wreg wreg);
      (2, map3 (fun rd a b -> Plain (I.REM (rd, a, b))) dst wreg wreg);
      (2, map3 (fun rd a b -> Plain (I.REMU (rd, a, b))) dst wreg wreg);
      (6, map3 (fun rd a i -> Plain (I.ADDI (rd, a, i))) dst wreg imm);
      (3, map3 (fun rd a i -> Plain (I.XORI (rd, a, i))) dst wreg imm);
      (3, map3 (fun rd a i -> Plain (I.ANDI (rd, a, i))) dst wreg imm);
      (3, map3 (fun rd a i -> Plain (I.ORI (rd, a, i))) dst wreg imm);
      (3, map3 (fun rd a s -> Plain (I.SLLI (rd, a, s))) dst wreg shamt);
      (3, map3 (fun rd a s -> Plain (I.SRAI (rd, a, s))) dst wreg shamt);
      (3, map3 (fun rd a s -> Plain (I.SRLI (rd, a, s))) dst wreg shamt);
      (3, map3 (fun rd a i -> Plain (I.SLTI (rd, a, i))) dst wreg imm);
      (3, map3 (fun rd a i -> Plain (I.SLTIU (rd, a, i))) dst wreg imm);
      (2, map3 (fun rd a b -> Plain (I.MULHSU (rd, a, b))) dst wreg wreg);
      (2, map2 (fun rd i -> Plain (I.LUI (rd, i lsl 12))) dst (int_bound 0xfffff));
      (2, map2 (fun rd i -> Plain (I.AUIPC (rd, i lsl 12))) dst (int_bound 0xfffff));
      (4, map2 (fun rd o -> Plain (I.LW (rd, buf_reg, o))) dst off);
      (3, map2 (fun rd o -> Plain (I.LBU (rd, buf_reg, o))) dst (map2 (+) off (int_bound 3)));
      (3, map2 (fun rd o -> Plain (I.LB (rd, buf_reg, o))) dst (map2 (+) off (int_bound 3)));
      (2, map2 (fun rd o -> Plain (I.LH (rd, buf_reg, o))) dst (map2 (fun a b -> a + 2 * b) off (int_bound 1)));
      (2, map2 (fun rd o -> Plain (I.LHU (rd, buf_reg, o))) dst (map2 (fun a b -> a + 2 * b) off (int_bound 1)));
      (4, map2 (fun rs o -> Plain (I.SW (buf_reg, rs, o))) wreg off);
      (3, map2 (fun rs o -> Plain (I.SB (buf_reg, rs, o))) wreg (map2 (+) off (int_bound 3)));
      (2, map2 (fun rs o -> Plain (I.SH (buf_reg, rs, o))) wreg (map2 (fun a b -> a + 2 * b) off (int_bound 1)));
      (* M-extension ops on two corner values. *)
      ( 8,
        map2
          (fun (op, rd) (a, b) -> Plain (op rd a b))
          (pair
             (oneofl
                [ (fun rd a b -> I.MUL (rd, a, b));
                  (fun rd a b -> I.MULH (rd, a, b));
                  (fun rd a b -> I.MULHSU (rd, a, b));
                  (fun rd a b -> I.MULHU (rd, a, b));
                  (fun rd a b -> I.DIV (rd, a, b));
                  (fun rd a b -> I.DIVU (rd, a, b));
                  (fun rd a b -> I.REM (rd, a, b));
                  (fun rd a b -> I.REMU (rd, a, b)) ])
             dst)
          corner_pair );
      ( 6,
        map3
          (fun cond a b -> Skip (cond a b))
          (oneofl
             [ (fun a b -> I.BEQ (a, b, 8)); (fun a b -> I.BNE (a, b, 8));
               (fun a b -> I.BLT (a, b, 8)); (fun a b -> I.BGE (a, b, 8));
               (fun a b -> I.BLTU (a, b, 8)); (fun a b -> I.BGEU (a, b, 8)) ])
          wreg wreg );
      (1, return (Plain I.FENCE));
    ]

let gen_program =
  QCheck.Gen.(list_size (int_range 10 60) gen_rinsn)

let print_program prog =
  String.concat "\n"
    (List.map
       (function
         | Plain i -> Rv32.Disasm.insn i
         | Skip b -> Rv32.Disasm.insn b ^ " (skip)")
       prog)

let arb_program = QCheck.make ~print:print_program gen_program

let build_image prog =
  let p = A.create () in
  Firmware.Rt.entry p ();
  (* Seed the working registers deterministically, the last four with
     corner values, and point x28 at the buffer. *)
  List.iteri (fun i r -> A.li p r (0x1234 * (i + 1))) [ 5; 6; 7; 8; 9; 10; 11 ];
  List.iter2 (A.li p) [ 12; 13; 14; 15 ] [ 0; -1; 0x7fffffff; 0x80000000 ];
  A.la p buf_reg "buf";
  List.iter
    (function
      | Plain i -> A.insn p i
      | Skip b -> A.insn p b)
    prog;
  (* A trailing skip must not jump over the exit sequence. *)
  A.nop p;
  A.li p 17 93;
  A.insn p I.ECALL;
  A.align p 4;
  A.label p "buf";
  (* Non-trivial initial contents. *)
  for i = 0 to 255 do
    A.byte p ((i * 37) land 0xff)
  done;
  A.assemble p

let run_flavour ~tracking img =
  let policy = integrity_policy () in
  let soc = soc_of_policy ~tracking policy in
  Vp.Soc.load_image soc img;
  match Vp.Soc.run_for_instructions soc 10_000 with
  | Rv32.Core.Exited code ->
      let regs = List.map (fun r -> Rv32.Core.get_reg soc.Vp.Soc.core r)
          [ 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ] in
      let buf_addr = Rv32_asm.Image.symbol img "buf" - Vp.Soc.ram_base in
      let mem = List.init 256 (fun i -> Vp.Memory.read_byte soc.Vp.Soc.memory (buf_addr + i)) in
      Some (code, regs, mem, Rv32.Core.instret soc.Vp.Soc.core)
  | _ -> None

let prop_differential =
  QCheck.Test.make ~name:"VP and VP+ agree on architectural state" ~count:150
    arb_program (fun prog ->
      let img = build_image prog in
      match (run_flavour ~tracking:false img, run_flavour ~tracking:true img) with
      | Some (c1, r1, m1, i1), Some (c2, r2, m2, i2) ->
          c1 = c2 && r1 = r2 && m1 = m2 && i1 = i2
      | None, None -> true (* both refused identically *)
      | _ -> false)

(* Random programs must also round-trip through the encoder at image
   level: disassembling the built image and re-assembling reproduces it. *)
let prop_image_disasm_stable =
  QCheck.Test.make ~name:"image disassembles to decodable words" ~count:100
    arb_program (fun prog ->
      let img = build_image prog in
      let code = img.Rv32_asm.Image.code in
      let buf_off = Rv32_asm.Image.symbol img "buf" - img.Rv32_asm.Image.org in
      let ok = ref true in
      let i = ref 0 in
      while !i + 4 <= buf_off do
        let w = Int32.to_int (Bytes.get_int32_le code !i) land 0xffffffff in
        (match Rv32.Decode.decode w with
        | Rv32.Insn.ILLEGAL _ -> ok := false
        | _ -> ());
        i := !i + 4
      done;
      !ok)

(* Golden-model differential: the production ISS must agree with the
   independent naive interpreter on registers, memory and retirement
   count. *)
let run_golden img =
  let g = Rv32.Golden.create ~mem_base:Vp.Soc.ram_base ~mem_size:(1 lsl 20) in
  Rv32.Golden.load g ~addr:img.Rv32_asm.Image.org
    (Bytes.to_string img.Rv32_asm.Image.code);
  Rv32.Golden.set_pc g img.Rv32_asm.Image.org;
  match Rv32.Golden.run g ~max_insns:10_000 with
  | Rv32.Golden.Exited code, n ->
      let regs = List.map (Rv32.Golden.reg g) [ 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ] in
      let buf = Rv32_asm.Image.symbol img "buf" in
      let mem = List.init 256 (fun i -> Rv32.Golden.mem_byte g (buf + i)) in
      Some (code, regs, mem, n)
  | _ -> None

let prop_golden_model =
  QCheck.Test.make ~name:"production ISS agrees with the golden model"
    ~count:150 arb_program (fun prog ->
      let img = build_image prog in
      match (run_golden img, run_flavour ~tracking:true img) with
      | Some (c1, r1, m1, n1), Some (c2, r2, m2, n2) ->
          (* The golden model counts the exit ecall in its retired total;
             the core counts it too — both via n. Exit codes are the s32
             view of a0 in both. *)
          c1 = c2 && r1 = r2 && m1 = m2 && n1 = n2
      | None, None -> true
      | _ -> false)

let test_fuzz_harness () =
  let config =
    { Difftest.Harness.default with seed = 7; programs = 60; props_every = 10 }
  in
  let report = Difftest.Harness.run ~config () in
  check_bool "invariants hold" true (Difftest.Harness.healthy report);
  check_int "all programs completed" 60 report.Difftest.Harness.completed;
  check_bool "checks actually ran" true (report.Difftest.Harness.checks > 0)

let () =
  Alcotest.run "diff"
    [
      ( "differential",
        List.map qtest
          [ prop_differential; prop_image_disasm_stable; prop_golden_model ] );
      ("policy fuzz", [ Alcotest.test_case "fuzz harness healthy" `Quick test_fuzz_harness ]);
    ]
