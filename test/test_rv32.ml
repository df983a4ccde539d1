(* The RV32IM ISS: decoder/encoder and instruction semantics. *)

open Helpers
module A = Rv32_asm.Asm
module R = Rv32.Reg
module I = Rv32.Insn

(* Run a tiny program that leaves its result in a0 and exits with it. *)
let result ?(setup = fun _ -> ()) body =
  let _, reason =
    run_program (fun p ->
        setup p;
        body p;
        Firmware.Rt.exit_a0 p)
  in
  match reason with
  | Rv32.Core.Exited c -> c land 0xffffffff
  | _ -> Alcotest.fail "program did not exit"

let li = A.li

let test_arith_wraparound () =
  check_int "add wraps"
    0x00000000
    (result (fun p ->
         li p R.t0 0xffffffff;
         li p R.t1 1;
         A.add p R.a0 R.t0 R.t1));
  check_int "sub wraps" 0xffffffff
    (result (fun p ->
         li p R.t0 0;
         li p R.t1 1;
         A.sub p R.a0 R.t0 R.t1))

let test_slt_signed_unsigned () =
  check_int "slt -1 < 1" 1
    (result (fun p ->
         li p R.t0 (-1);
         li p R.t1 1;
         A.slt p R.a0 R.t0 R.t1));
  check_int "sltu 0xffffffff > 1" 0
    (result (fun p ->
         li p R.t0 (-1);
         li p R.t1 1;
         A.sltu p R.a0 R.t0 R.t1));
  check_int "slti" 1
    (result (fun p ->
         li p R.t0 (-100);
         A.slti p R.a0 R.t0 (-5)));
  check_int "sltiu treats imm as unsigned after sext" 1
    (result (fun p ->
         li p R.t0 5;
         A.sltiu p R.a0 R.t0 (-1)))

let test_shifts () =
  check_int "sll" 0x10 (result (fun p -> li p R.t0 1; li p R.t1 4; A.sll p R.a0 R.t0 R.t1));
  check_int "shift amount masked to 5 bits" 2
    (result (fun p ->
         li p R.t0 1;
         li p R.t1 33;
         A.sll p R.a0 R.t0 R.t1));
  check_int "srl logical" 0x7fffffff
    (result (fun p ->
         li p R.t0 (-2);
         li p R.t1 1;
         A.srl p R.a0 R.t0 R.t1));
  check_int "sra arithmetic" 0xffffffff
    (result (fun p ->
         li p R.t0 (-2);
         li p R.t1 1;
         A.sra p R.a0 R.t0 R.t1));
  check_int "srai" 0xfffffff0
    (result (fun p ->
         li p R.t0 (-256);
         A.srai p R.a0 R.t0 4))

let test_logic_ops () =
  check_int "xor" 0x0ff0
    (result (fun p -> li p R.t0 0x0f0f; li p R.t1 0x00ff; A.xor p R.a0 R.t0 R.t1));
  check_int "andi" 0x0f
    (result (fun p -> li p R.t0 0xff; A.andi p R.a0 R.t0 0x0f));
  check_int "ori sign-extends imm" 0xffffffff
    (result (fun p -> li p R.t0 0; A.ori p R.a0 R.t0 (-1)))

let test_mul_div () =
  check_int "mul low" ((123 * 456) land 0xffffffff)
    (result (fun p -> li p R.t0 123; li p R.t1 456; A.mul p R.a0 R.t0 R.t1));
  check_int "mul wraps" 0x00020001
    (result (fun p ->
         li p R.t0 0x10001;
         li p R.t1 0x10001;
         A.mul p R.a0 R.t0 R.t1));
  check_int "mulh signed" 0xffffffff
    (result (fun p ->
         li p R.t0 (-2);
         li p R.t1 3;
         A.mulh p R.a0 R.t0 R.t1));
  check_int "mulhu" 0xfffffffe
    (result (fun p ->
         li p R.t0 (-1);
         li p R.t1 (-1);
         A.mulhu p R.a0 R.t0 R.t1));
  check_int "mulhsu" 0xffffffff
    (result (fun p ->
         li p R.t0 (-1);
         li p R.t1 2;
         A.mulhsu p R.a0 R.t0 R.t1));
  check_int "div" ((-7) / 2 land 0xffffffff)
    (result (fun p -> li p R.t0 (-7); li p R.t1 2; A.div p R.a0 R.t0 R.t1));
  check_int "div by zero = -1" 0xffffffff
    (result (fun p -> li p R.t0 42; li p R.t1 0; A.div p R.a0 R.t0 R.t1));
  check_int "div overflow" 0x80000000
    (result (fun p ->
         li p R.t0 0x80000000;
         li p R.t1 (-1);
         A.div p R.a0 R.t0 R.t1));
  check_int "divu by zero = all ones" 0xffffffff
    (result (fun p -> li p R.t0 42; li p R.t1 0; A.divu p R.a0 R.t0 R.t1));
  check_int "rem" (-1 land 0xffffffff)
    (result (fun p -> li p R.t0 (-7); li p R.t1 2; A.rem p R.a0 R.t0 R.t1));
  check_int "rem by zero = dividend" 42
    (result (fun p -> li p R.t0 42; li p R.t1 0; A.rem p R.a0 R.t0 R.t1));
  check_int "rem overflow = 0" 0
    (result (fun p ->
         li p R.t0 0x80000000;
         li p R.t1 (-1);
         A.rem p R.a0 R.t0 R.t1));
  check_int "remu by zero = dividend" 42
    (result (fun p -> li p R.t0 42; li p R.t1 0; A.remu p R.a0 R.t0 R.t1))

let test_x0_is_zero () =
  check_int "write to x0 discarded" 0
    (result (fun p ->
         li p R.t0 99;
         A.add p R.zero R.t0 R.t0;
         A.mv p R.a0 R.zero))

let test_load_sign_extension () =
  let prog load p =
    A.la p R.t0 "data";
    load p;
    A.j p "end";
    A.label p "data";
    A.word p 0x8180ff7f;
    A.label p "end";
    A.nop p
  in
  check_int "lb sign-extends" 0x7f (result (prog (fun p -> A.lb p R.a0 R.t0 0)));
  check_int "lb negative" 0xffffffff (result (prog (fun p -> A.lb p R.a0 R.t0 1)));
  check_int "lbu" 0xff (result (prog (fun p -> A.lbu p R.a0 R.t0 1)));
  check_int "lh sign-extends" 0xffffff7f (result (prog (fun p -> A.lh p R.a0 R.t0 0)));
  check_int "lhu" 0x8180 (result (prog (fun p -> A.lhu p R.a0 R.t0 2)));
  check_int "lw" 0x8180ff7f (result (prog (fun p -> A.lw p R.a0 R.t0 0)))

let test_store_widths () =
  check_int "sb only touches one byte" 0x12345699
    (result (fun p ->
         A.la p R.t0 "buf";
         li p R.t1 0x12345678;
         A.sw p R.t1 R.t0 0;
         li p R.t2 0x99;
         A.sb p R.t2 R.t0 0;
         A.lw p R.a0 R.t0 0;
         A.j p "end";
         A.align p 4;
         A.label p "buf";
         A.space p 4;
         A.label p "end";
         A.nop p))

let test_branches () =
  let taken br = result (fun p ->
      br p;
      li p R.a0 0;
      A.j p "end";
      A.label p "yes";
      li p R.a0 1;
      A.label p "end";
      A.nop p)
  in
  check_int "beq taken" 1
    (taken (fun p -> li p R.t0 5; li p R.t1 5; A.beq_l p R.t0 R.t1 "yes"));
  check_int "bne not taken" 0
    (taken (fun p -> li p R.t0 5; li p R.t1 5; A.bne_l p R.t0 R.t1 "yes"));
  check_int "blt signed" 1
    (taken (fun p -> li p R.t0 (-1); li p R.t1 0; A.blt_l p R.t0 R.t1 "yes"));
  check_int "bltu unsigned" 0
    (taken (fun p -> li p R.t0 (-1); li p R.t1 0; A.bltu_l p R.t0 R.t1 "yes"));
  check_int "bgeu" 1
    (taken (fun p -> li p R.t0 (-1); li p R.t1 0; A.bgeu_l p R.t0 R.t1 "yes"))

let test_jal_jalr_link () =
  check_int "jalr clears bit 0 of target" 77
    (result (fun p ->
         A.la p R.t0 "target";
         A.ori p R.t0 R.t0 1;
         A.jalr p R.ra R.t0 0;
         A.label p "target";
         li p R.a0 77))

let test_lui_auipc () =
  check_int "lui" 0xabcde000
    (result (fun p -> A.lui p R.a0 0xabcde000));
  (* auipc: pc-relative; a0 - pc_of_auipc = 0x1000. *)
  let _, reason =
    run_program (fun p ->
        A.label p "here";
        A.auipc p R.t0 0x1000;
        A.la p R.t1 "here";
        A.sub p R.a0 R.t0 R.t1;
        Firmware.Rt.exit_a0 p)
  in
  (match reason with
  | Rv32.Core.Exited c -> check_int "auipc offset" 0x1000 (c land 0xffffffff)
  | _ -> Alcotest.fail "no exit")

let test_csr_ops () =
  check_int "csrrw returns old, installs new" 0x123
    (result (fun p ->
         li p R.t0 0x123;
         A.csrrw p R.zero 0x340 R.t0 (* mscratch *);
         li p R.t1 0x456;
         A.csrrw p R.a0 0x340 R.t1));
  check_int "csrrs sets bits" 0x7
    (result (fun p ->
         li p R.t0 0x3;
         A.csrrw p R.zero 0x340 R.t0;
         li p R.t1 0x4;
         A.csrrs p R.zero 0x340 R.t1;
         A.csrrs p R.a0 0x340 R.zero));
  check_int "csrrc clears bits" 0x1
    (result (fun p ->
         li p R.t0 0x3;
         A.csrrw p R.zero 0x340 R.t0;
         li p R.t1 0x2;
         A.csrrc p R.zero 0x340 R.t1;
         A.csrrs p R.a0 0x340 R.zero));
  check_int "csrrwi immediate" 13
    (result (fun p ->
         A.csrrwi p R.zero 0x340 13;
         A.csrrs p R.a0 0x340 R.zero));
  check_int "instret counter readable" 1
    (result (fun p ->
         A.csrrs p R.t0 0xc02 R.zero;
         A.csrrs p R.t1 0xc02 R.zero;
         A.sub p R.a0 R.t1 R.t0))

let test_illegal_instruction_traps () =
  (* With a handler installed, an illegal instruction vectors to it with
     mcause=2 and mtval=the word. *)
  check_int "mcause on illegal" 2
    (result (fun p ->
         A.j p "start";
         A.align p 4;
         A.label p "handler";
         A.csrrs p R.a0 0x342 R.zero (* mcause *);
         Firmware.Rt.exit_a0 p;
         A.label p "start";
         Firmware.Rt.setup_trap_handler p "handler";
         A.insn p (I.ILLEGAL 0xffffffff)))

let test_illegal_without_handler_is_fatal () =
  let p = A.create () in
  Firmware.Rt.entry p ();
  A.insn p (I.ILLEGAL 0);
  let img = A.assemble p in
  let policy = trivial_policy () in
  let soc = soc_of_policy policy in
  Vp.Soc.load_image soc img;
  check_bool "Fatal_trap raised" true
    (try
       ignore (Vp.Soc.run_for_instructions soc 100);
       false
     with Rv32.Core.Fatal_trap _ -> true)

let test_ecall_trap_non_exit () =
  (* ecall with a7 <> 93 traps with cause 11. *)
  check_int "mcause" 11
    (result (fun p ->
         A.j p "start";
         A.align p 4;
         A.label p "handler";
         A.csrrs p R.a0 0x342 R.zero;
         Firmware.Rt.exit_a0 p;
         A.label p "start";
         Firmware.Rt.setup_trap_handler p "handler";
         li p R.a7 1;
         A.ecall p))

let test_mret_returns () =
  check_int "resumes after trap" 5
    (result (fun p ->
         A.j p "start";
         A.align p 4;
         A.label p "handler";
         (* skip the faulting instruction: mepc += 4 *)
         A.csrrs p R.t0 0x341 R.zero;
         A.addi p R.t0 R.t0 4;
         A.csrrw p R.zero 0x341 R.t0;
         A.mret p;
         A.label p "start";
         Firmware.Rt.setup_trap_handler p "handler";
         li p R.a0 5;
         li p R.a7 1;
         A.ecall p (* traps, handler skips it *)))

let test_fetch_from_unmapped_is_fatal () =
  let p = A.create () in
  Firmware.Rt.entry p ();
  li p R.t0 0x30000000;
  A.jalr p R.zero R.t0 0;
  let img = A.assemble p in
  let soc = soc_of_policy (trivial_policy ()) in
  Vp.Soc.load_image soc img;
  check_bool "fatal fetch fault" true
    (try
       ignore (Vp.Soc.run_for_instructions soc 100);
       false
     with Rv32.Core.Fatal_trap { cause = 1; _ } -> true)

let test_load_fault_traps () =
  check_int "load fault cause 5" 5
    (result (fun p ->
         A.j p "start";
         A.align p 4;
         A.label p "handler";
         A.csrrs p R.a0 0x342 R.zero;
         Firmware.Rt.exit_a0 p;
         A.label p "start";
         Firmware.Rt.setup_trap_handler p "handler";
         li p R.t0 0x30000000;
         A.lw p R.t1 R.t0 0))

let test_wfi_with_pending_is_nop () =
  (* WFI with an already-pending (but globally disabled) interrupt falls
     straight through. *)
  check_int "continues past wfi" 9
    (result (fun p ->
         (* make the timer pending: mtimecmp = 0 *)
         li p R.t0 (Vp.Soc.clint_base + 0x4000);
         A.sw p R.zero R.t0 0;
         A.sw p R.zero R.t0 4;
         li p R.t0 0x80;
         A.csrrs p R.zero 0x304 R.t0 (* mie.MTIE, but mstatus.MIE off *);
         A.wfi p;
         li p R.a0 9))

let test_readonly_counter_write_traps () =
  check_int "csrrw to cycle traps illegal" 2
    (result (fun p ->
         A.j p "start";
         A.align p 4;
         A.label p "handler";
         A.csrrs p R.a0 0x342 R.zero;
         Firmware.Rt.exit_a0 p;
         A.label p "start";
         Firmware.Rt.setup_trap_handler p "handler";
         li p R.t0 1;
         A.csrrw p R.zero 0xc00 R.t0))

let test_mtval_holds_fault_address () =
  let faulting = 0x30000004 in
  check_int "mtval = bad address" faulting
    (result (fun p ->
         A.j p "start";
         A.align p 4;
         A.label p "handler";
         A.csrrs p R.a0 0x343 R.zero (* mtval *);
         Firmware.Rt.exit_a0 p;
         A.label p "start";
         Firmware.Rt.setup_trap_handler p "handler";
         li p R.t0 faulting;
         A.lw p R.t1 R.t0 0))

let test_mepc_points_at_faulting_insn () =
  (* The handler reads mepc and returns it relative to _start. *)
  let _, reason =
    run_program (fun p ->
        A.j p "start";
        A.align p 4;
        A.label p "handler";
        A.csrrs p R.t0 0x341 R.zero;
        A.la p R.t1 "fault_site";
        A.sub p R.a0 R.t0 R.t1;
        Firmware.Rt.exit_a0 p;
        A.label p "start";
        Firmware.Rt.setup_trap_handler p "handler";
        A.label p "fault_site";
        A.insn p (I.ILLEGAL 0xffffffff))
  in
  expect_exit reason 0

(* --- decoder / encoder ---------------------------------------------- *)

let test_decode_known_words () =
  (* Cross-checked against the RISC-V spec / gas. *)
  let cases =
    [ (0x00000013, "addi zero, zero, 0");
      (0x00a00513, "addi a0, zero, 10");
      (0xfff00513, "addi a0, zero, -1");
      (0x00112623, "sw ra, 12(sp)");
      (0x00c12083, "lw ra, 12(sp)");
      (0x00008067, "jalr zero, 0(ra)");
      (0x00000073, "ecall");
      (0x30200073, "mret");
      (0x02a5d5b3, "divu a1, a1, a0") ]
  in
  List.iter
    (fun (w, expected) -> check_string (Printf.sprintf "0x%08x" w) expected (Rv32.Disasm.word w))
    cases

let gen_insn =
  let open QCheck.Gen in
  let reg = int_bound 31 in
  let imm12 = map (fun x -> x - 2048) (int_bound 4095) in
  let boff = map (fun x -> (x - 2048) * 2) (int_bound 4095) in
  let joff = map (fun x -> (x - 0x80000) * 2) (int_bound 0xfffff) in
  let uimm = map (fun x -> x lsl 12) (int_bound 0xfffff) in
  let shamt = int_bound 31 in
  let csr = int_bound 0xfff in
  let r3 f = map3 (fun a b c -> f (a, b, c)) reg reg reg in
  let open I in
  frequency
    [
      (2, map2 (fun a b -> LUI (a, b)) reg uimm);
      (2, map2 (fun a b -> AUIPC (a, b)) reg uimm);
      (2, map2 (fun a b -> JAL (a, b)) reg joff);
      (2, r3 (fun (a, b, _) -> JALR (a, b, 0)));
      (2, map3 (fun a b c -> JALR (a, b, c)) reg reg imm12);
      (6, map3 (fun a b c -> BEQ (a, b, c)) reg reg boff);
      (6, map3 (fun a b c -> BNE (a, b, c)) reg reg boff);
      (6, map3 (fun a b c -> LW (a, b, c)) reg reg imm12);
      (6, map3 (fun a b c -> SB (a, b, c)) reg reg imm12);
      (6, map3 (fun a b c -> ADDI (a, b, c)) reg reg imm12);
      (3, map3 (fun a b c -> SLLI (a, b, c)) reg reg shamt);
      (3, map3 (fun a b c -> SRAI (a, b, c)) reg reg shamt);
      (6, r3 (fun (a, b, c) -> ADD (a, b, c)));
      (6, r3 (fun (a, b, c) -> SUB (a, b, c)));
      (6, r3 (fun (a, b, c) -> MULHSU (a, b, c)));
      (6, r3 (fun (a, b, c) -> REMU (a, b, c)));
      (3, map3 (fun a b c -> CSRRW (a, b, c)) reg reg csr);
      (3, map3 (fun a b c -> CSRRS (a, b, c)) reg reg csr);
      (3, map3 (fun a b c -> CSRRCI (a, b, c)) reg (int_bound 31) csr);
      (1, return FENCE);
      (1, return ECALL);
      (1, return EBREAK);
      (1, return MRET);
      (1, return WFI);
    ]

let arb_insn = QCheck.make ~print:Rv32.Disasm.insn gen_insn

let prop_encode_decode =
  QCheck.Test.make ~name:"decode (encode i) = i" ~count:2000 arb_insn
    (fun i -> Rv32.Decode.decode (Rv32.Encode.encode i) = i)

let prop_decode_total =
  QCheck.Test.make ~name:"decode never raises" ~count:2000
    QCheck.(int_bound 0xffffffff)
    (fun w ->
      ignore (Rv32.Decode.decode w);
      true)

(* Textual round trip: every disassembly must re-parse to the same word
   (ECALL-class and CSR forms included). *)
let prop_disasm_parse_roundtrip =
  QCheck.Test.make ~name:"parse (disasm i) = i" ~count:1000 arb_insn
    (fun i ->
      match i with
      | I.ILLEGAL _ -> true (* prints as .word, not an instruction *)
      | _ ->
          let text = Rv32.Disasm.insn i ^ "\n" in
          let img = Rv32_asm.Parser.parse_string text in
          let w =
            Int32.to_int (Bytes.get_int32_le img.Rv32_asm.Image.code 0)
            land 0xffffffff
          in
          w = Rv32.Encode.encode i)

let prop_decode_encode_word =
  QCheck.Test.make ~name:"encode (decode w) = w for decodable words"
    ~count:2000 arb_insn (fun i ->
      let w = Rv32.Encode.encode i in
      Rv32.Encode.encode (Rv32.Decode.decode w) = w)

(* --- DMI tag shadow ---------------------------------------------------- *)

(* A tracking bus over a 16-byte DMI region at 0 (the DMI path never
   touches the socket). *)
let shadow_bus lat =
  let bus =
    Rv32.Bus_if.create ~lattice:lat ~default_tag:0 ~tracking:true ~name:"cpu"
  in
  let data = Bytes.make 16 '\000' and tags = Bytes.make 16 '\000' in
  Rv32.Bus_if.set_dmi bus ~base:0 ~data ~tags;
  (bus, data, tags)

(* The tag a load must take: the byte tags folded left by [lub], with the
   (a, b, r) stream a merge hook must see. *)
let byte_fold lat bytes =
  match bytes with
  | [] -> assert false
  | t0 :: rest ->
      List.fold_left
        (fun (acc, stream) x ->
          let r = Dift.Lattice.lub lat acc x in
          (r, (acc, x, r) :: stream))
        (t0, []) rest
      |> fun (t, stream) -> (t, List.rev stream)

(* Every byte-tag tuple of each width, over lattices small and large:
   equal and mixed bytes, with and without a merge hook. *)
let test_shadow_loads () =
  List.iter
    (fun lat ->
      let n = Dift.Lattice.size lat in
      let bus, _, tags = shadow_bus lat in
      let stream = ref [] in
      let rec tuples w =
        if w = 0 then [ [] ]
        else
          List.concat_map
            (fun rest -> List.init n (fun x -> x :: rest))
            (tuples (w - 1))
      in
      List.iter
        (fun width ->
          List.iter
            (fun bytes ->
              (* Misaligned by one so the word read is not at offset 0. *)
              List.iteri (fun i x -> Bytes.set tags (1 + i) (Char.chr x)) bytes;
              let want, want_stream = byte_fold lat bytes in
              let what =
                Printf.sprintf "width %d, tags [%s]" width
                  (String.concat ";" (List.map string_of_int bytes))
              in
              Rv32.Bus_if.set_merge_hook bus None;
              ignore (Rv32.Bus_if.load bus ~width ~addr:1);
              check_int (what ^ ", no hook") want (Rv32.Bus_if.last_tag bus);
              stream := [];
              Rv32.Bus_if.set_merge_hook bus
                (Some (fun a b r -> stream := (a, b, r) :: !stream));
              ignore (Rv32.Bus_if.load bus ~width ~addr:1);
              check_int (what ^ ", hooked") want (Rv32.Bus_if.last_tag bus);
              check_bool (what ^ ", hook stream") true
                (List.rev !stream = want_stream))
            (tuples width))
        [ 1; 2; 4 ])
    [ Dift.Lattice.ifp3 (); Dift.Lattice.per_byte_key ~n:8 ]

let test_shadow_stores () =
  let lat = Dift.Lattice.per_byte_key ~n:8 in
  let bus, data, tags = shadow_bus lat in
  List.iter
    (fun (width, tag) ->
      Bytes.fill tags 0 16 '\000';
      Rv32.Bus_if.store bus ~width ~addr:5 ~value:0x11223344 ~tag;
      for i = 0 to 15 do
        check_int
          (Printf.sprintf "width %d tag %d: byte %d" width tag i)
          (if i >= 5 && i < 5 + width then tag else 0)
          (Char.code (Bytes.get tags i))
      done)
    [ (1, 3); (2, 7); (4, 10); (4, 1) ];
  check_int "the word landed" 0x11223344
    (Int32.to_int (Bytes.get_int32_le data 5));
  (* A tag the byte shadow cannot hold is refused. *)
  check_bool "tag 256 refused" true
    (match Rv32.Bus_if.store bus ~width:4 ~addr:0 ~value:0 ~tag:256 with
    | exception Invalid_argument _ -> true
    | () -> false)

let () =
  Alcotest.run "rv32"
    [
      ( "semantics",
        [
          Alcotest.test_case "arith wraparound" `Quick test_arith_wraparound;
          Alcotest.test_case "slt/sltu signed-unsigned" `Quick
            test_slt_signed_unsigned;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "logic ops" `Quick test_logic_ops;
          Alcotest.test_case "mul/div edge cases" `Quick test_mul_div;
          Alcotest.test_case "x0 is hardwired zero" `Quick test_x0_is_zero;
          Alcotest.test_case "load sign extension" `Quick
            test_load_sign_extension;
          Alcotest.test_case "store widths" `Quick test_store_widths;
          Alcotest.test_case "branches" `Quick test_branches;
          Alcotest.test_case "jalr target masking" `Quick test_jal_jalr_link;
          Alcotest.test_case "lui/auipc" `Quick test_lui_auipc;
          Alcotest.test_case "csr operations" `Quick test_csr_ops;
        ] );
      ( "traps",
        [
          Alcotest.test_case "illegal traps to handler" `Quick
            test_illegal_instruction_traps;
          Alcotest.test_case "illegal without handler fatal" `Quick
            test_illegal_without_handler_is_fatal;
          Alcotest.test_case "ecall traps (non-exit)" `Quick
            test_ecall_trap_non_exit;
          Alcotest.test_case "mret resumes" `Quick test_mret_returns;
          Alcotest.test_case "fetch fault fatal" `Quick
            test_fetch_from_unmapped_is_fatal;
          Alcotest.test_case "load fault traps" `Quick test_load_fault_traps;
          Alcotest.test_case "wfi with pending is nop" `Quick
            test_wfi_with_pending_is_nop;
          Alcotest.test_case "read-only counter write traps" `Quick
            test_readonly_counter_write_traps;
          Alcotest.test_case "mtval holds fault address" `Quick
            test_mtval_holds_fault_address;
          Alcotest.test_case "mepc points at faulting insn" `Quick
            test_mepc_points_at_faulting_insn;
        ] );
      ( "tag shadow",
        [
          Alcotest.test_case "DMI loads fold like the bytes" `Quick
            test_shadow_loads;
          Alcotest.test_case "DMI stores tag every byte" `Quick
            test_shadow_stores;
        ] );
      ( "decode/encode",
        [ Alcotest.test_case "known words" `Quick test_decode_known_words ]
        @ List.map qtest
            [ prop_encode_decode; prop_decode_total; prop_decode_encode_word;
              prop_disasm_parse_roundtrip ]
      );
    ]
