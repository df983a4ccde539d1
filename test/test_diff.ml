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

(* --- golden memory ------------------------------------------------------ *)

(* The golden model keeps RAM as 4 KiB pages allocated on first write.
   Every expectation below is what a flat RAM image gives: bytes never
   written read as zero, an access may straddle a page, and only an
   access that leaves RAM faults. *)

module R = Rv32.Reg

let ram_base = Vp.Soc.ram_base
let ram_end = Vp.Soc.ram_base + Vp.Soc.ram_size

(* Assemble [build] followed by an exit, and run it on a fresh golden
   model. *)
let golden_of build =
  let p = A.create () in
  build p;
  Firmware.Rt.exit_ p ~code:0 ();
  let img = A.assemble p in
  let g = Rv32.Golden.create ~mem_base:ram_base ~mem_size:Vp.Soc.ram_size in
  Rv32.Golden.load g ~addr:img.Rv32_asm.Image.org
    (Bytes.to_string img.Rv32_asm.Image.code);
  Rv32.Golden.set_pc g img.Rv32_asm.Image.org;
  let stop, _ = Rv32.Golden.run g ~max_insns:1_000 in
  (g, img, stop)

let expect_exited = function
  | Rv32.Golden.Exited 0 -> ()
  | _ -> Alcotest.fail "golden run did not exit 0"

let test_golden_page_straddle () =
  let p1 = ram_base + 0x2000 and p2 = ram_base + 0x5000 in
  let g, _, stop =
    golden_of (fun p ->
        A.li p R.t0 p1;
        A.li p R.t1 0x11223344;
        A.sw p R.t1 R.t0 (-2);
        A.lw p R.s2 R.t0 (-2);
        A.lh p R.s3 R.t0 (-1);
        (* A halfword store that allocates both of its pages. *)
        A.li p R.t0 p2;
        A.li p R.t1 0x80ff;
        A.sh p R.t1 R.t0 (-1);
        A.lh p R.s4 R.t0 (-1);
        A.lw p R.s5 R.t0 (-3);
        A.lhu p R.s6 R.t0 (-1))
  in
  expect_exited stop;
  check_int "misaligned lw across the boundary" 0x11223344
    (Rv32.Golden.reg g R.s2);
  check_int "misaligned lh across the boundary" 0x2233 (Rv32.Golden.reg g R.s3);
  check_int "lh sign-extends across the boundary" 0xffff80ff
    (Rv32.Golden.reg g R.s4);
  check_int "lw over zeros and the stored half" 0x80ff0000
    (Rv32.Golden.reg g R.s5);
  check_int "lhu across the boundary" 0x80ff (Rv32.Golden.reg g R.s6);
  List.iter
    (fun (addr, v) ->
      check_int (Printf.sprintf "byte at %#x" addr) v
        (Rv32.Golden.mem_byte g addr))
    [ (p1 - 3, 0); (p1 - 2, 0x44); (p1 - 1, 0x33); (p1, 0x22);
      (p1 + 1, 0x11); (p1 + 2, 0); (p2 - 1, 0xff); (p2, 0x80); (p2 + 1, 0) ]

let test_golden_unwritten_page () =
  let far = ram_base + 0x40000 in
  let g, _, stop =
    golden_of (fun p ->
        A.li p R.t0 far;
        A.li p R.s2 (-1);
        A.li p R.s3 (-1);
        A.li p R.s4 (-1);
        A.lw p R.s2 R.t0 0;
        A.lb p R.s3 R.t0 0x7ff;
        (* Straddles two pages, neither ever written. *)
        A.lw p R.s4 R.t0 (-2))
  in
  expect_exited stop;
  check_int "lw from a never-written page" 0 (Rv32.Golden.reg g R.s2);
  check_int "lb from a never-written page" 0 (Rv32.Golden.reg g R.s3);
  check_int "lw across two never-written pages" 0 (Rv32.Golden.reg g R.s4);
  check_int "mem_byte of a never-written page" 0
    (Rv32.Golden.mem_byte g (far + 123))

let test_golden_ram_ends () =
  let g, img, stop =
    golden_of (fun p ->
        A.li p R.t0 ram_base;
        A.lw p R.s2 R.t0 0;
        A.li p R.t0 (ram_end - 4);
        A.li p R.t1 0xa5c3e1f0;
        A.sw p R.t1 R.t0 0;
        A.lw p R.s3 R.t0 0;
        A.lbu p R.s4 R.t0 3)
  in
  expect_exited stop;
  check_int "first RAM word is the image's first word"
    (Int32.to_int (Bytes.get_int32_le img.Rv32_asm.Image.code 0)
    land 0xffffffff)
    (Rv32.Golden.reg g R.s2);
  check_int "last RAM word" 0xa5c3e1f0 (Rv32.Golden.reg g R.s3);
  check_int "last RAM byte" 0xa5 (Rv32.Golden.reg g R.s4);
  check_int "mem_byte of the last RAM byte" 0xa5
    (Rv32.Golden.mem_byte g (ram_end - 1));
  match Rv32.Golden.mem_byte g ram_end with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mem_byte past RAM accepted"

(* An access that leaves RAM by even one byte faults (load access fault
   5, store access fault 7) and writes nothing. *)
let test_golden_ram_faults () =
  List.iter
    (fun (name, addr, access, cause) ->
      let g, _, stop =
        golden_of (fun p ->
            A.li p R.t0 addr;
            A.li p R.t1 (-1);
            access p)
      in
      (match stop with
      | Rv32.Golden.Trap c -> check_int name cause c
      | _ -> Alcotest.failf "%s: no trap" name);
      check_int (name ^ ": last RAM byte untouched") 0
        (Rv32.Golden.mem_byte g (ram_end - 1)))
    [
      ("lw below RAM", ram_base - 4, (fun p -> A.lw p R.s2 R.t0 0), 5);
      ("lb below RAM", ram_base - 1, (fun p -> A.lb p R.s2 R.t0 0), 5);
      ("lw across the end", ram_end - 2, (fun p -> A.lw p R.s2 R.t0 0), 5);
      ("lw past the end", ram_end, (fun p -> A.lw p R.s2 R.t0 0), 5);
      ("sw below RAM", ram_base - 4, (fun p -> A.sw p R.t1 R.t0 0), 7);
      ("sh across the end", ram_end - 1, (fun p -> A.sh p R.t1 R.t0 0), 7);
      ("sw across the end", ram_end - 3, (fun p -> A.sw p R.t1 R.t0 0), 7);
      ("sb past the end", ram_end, (fun p -> A.sb p R.t1 R.t0 0), 7);
    ]

(* The golden model's memory costs the pages a program touches, not the
   RAM's size: a generated program's golden run allocates under 64 KiB
   (a flat image was 1 MiB). *)
let test_golden_allocation () =
  let rng = Difftest.Rng.create ~seed:5 in
  let prog = Difftest.Gen.program rng (Difftest.Coverage.create ()) ~size:30 in
  let img = Difftest.Prog.assemble prog in
  let words () =
    let minor, _, major = Gc.counters () in
    minor +. major
  in
  let before = words () in
  let outcome = Difftest.Oracle.run_golden img in
  let bytes = (words () -. before) *. float (Sys.word_size / 8) in
  ignore (Sys.opaque_identity outcome);
  if bytes >= 65536. then
    Alcotest.failf "Oracle.run_golden allocated %.0f bytes (bound 64 KiB)" bytes

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
      ( "golden pages",
        [
          Alcotest.test_case "accesses straddling a page" `Quick
            test_golden_page_straddle;
          Alcotest.test_case "never-written pages read zero" `Quick
            test_golden_unwritten_page;
          Alcotest.test_case "first and last RAM word" `Quick
            test_golden_ram_ends;
          Alcotest.test_case "faults just outside RAM" `Quick
            test_golden_ram_faults;
          Alcotest.test_case "run_golden allocates no RAM-sized image" `Quick
            test_golden_allocation;
        ] );
      ("policy fuzz", [ Alcotest.test_case "fuzz harness healthy" `Quick test_fuzz_harness ]);
    ]
