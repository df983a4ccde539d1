(* The coverage-guided differential-testing subsystem, exercised with fixed
   seeds so tier-1 runs are deterministic:

   - a ~100-program smoke run of the three-way oracle (golden model, plain
     VP, VP+) with taint-metamorphic property checks must hold every
     invariant and reach full RV32IM opcode coverage;
   - an injected fault (a stand-in for a tag-propagation bug in one
     instruction) must be detected, shrunk to a minimal program, and
     emitted as re-assembleable .s source that still reproduces;
   - the textual reproducer path must agree byte-for-byte with the binary
     assembly path. *)

open Helpers
module H = Difftest.Harness
module P = Difftest.Prog

let smoke_cfg =
  { H.default with seed = 0xd1f7; programs = 100; size = 30; shrink = false }

let smoke = lazy (H.run ~config:smoke_cfg ())

let test_smoke_healthy () =
  let r = Lazy.force smoke in
  check_bool "invariants hold" true (H.healthy r);
  check_int "no injected hits" 0 r.H.injected_hits;
  check_bool "most programs complete" true (r.H.completed > 90);
  check_bool "clearance checks ran" true (r.H.checks > 0)

let test_smoke_coverage () =
  let r = Lazy.force smoke in
  check_bool "all RV32IM opcodes executed"
    true
    (Difftest.Coverage.missing r.H.coverage = []);
  (* Branches must have been exercised in both directions overall. *)
  let taken, not_taken =
    List.fold_left
      (fun (t, n) op ->
        ( t + Difftest.Coverage.taken r.H.coverage op,
          n + Difftest.Coverage.not_taken r.H.coverage op ))
      (0, 0)
      [ "beq"; "bne"; "blt"; "bge"; "bltu"; "bgeu" ]
  in
  check_bool "branches taken" true (taken > 0);
  check_bool "branches not taken" true (not_taken > 0)

(* The block-cache transparency check of the harness: every program is
   additionally replayed with the cache and fast path off, and the two runs
   must agree on all architectural and taint state. Fixed seed, fewer
   programs than the smoke run (each costs four extra simulations). *)
let test_cache_diff_clean () =
  let cfg =
    {
      H.default with
      seed = 0xcac4e;
      programs = 40;
      size = 30;
      shrink = false;
      cache_diff = true;
    }
  in
  let r = H.run ~config:cfg () in
  check_bool "invariants hold" true (H.healthy r);
  check_int "no cache-vs-nocache mismatches" 0 r.H.cache_mismatches;
  check_bool "programs completed" true (r.H.completed > 30)

(* The generator emits real control flow and memory traffic, not just
   straight-line code. *)
let test_generator_structure () =
  let rng = Difftest.Rng.create ~seed:0xabcd in
  let cov = Difftest.Coverage.create () in
  let progs = List.init 20 (fun _ -> Difftest.Gen.program rng cov ~size:30) in
  let has f = List.exists (fun p -> List.exists f p) progs in
  check_bool "guards generated" true (has (function P.Guard _ -> true | _ -> false));
  check_bool "loops generated" true (has (function P.Loop _ -> true | _ -> false));
  check_bool "calls generated" true (has (function P.Call _ -> true | _ -> false));
  check_bool "memory ops generated" true
    (has (fun b -> List.exists Rv32.Insn.is_memory (P.body_of b)))

let test_to_asm_matches_assemble () =
  let rng = Difftest.Rng.create ~seed:0xbeef in
  let cov = Difftest.Coverage.create () in
  for _ = 1 to 10 do
    let prog = Difftest.Gen.program rng cov ~size:20 in
    let direct = P.assemble prog in
    let parsed = Rv32_asm.Parser.parse_string (P.to_asm prog) in
    check_bool "same code bytes" true
      (Bytes.equal direct.Rv32_asm.Image.code parsed.Rv32_asm.Image.code)
  done

(* Injected fault end-to-end: detect, shrink to a 1-minimal program, emit
   .s that re-assembles and still reproduces. *)
let test_injected_fault_shrinks () =
  let config =
    {
      H.default with
      seed = 7;
      programs = 5;
      props_every = 0;
      inject = Some "mulhsu";
    }
  in
  let r = H.run ~config () in
  check_bool "fault detected" true (r.H.injected_hits > 0);
  check_bool "other invariants still hold" true (H.healthy r);
  match r.H.failures with
  | [] -> Alcotest.fail "no failure recorded"
  | f :: _ ->
      check_bool "shrunk to very few blocks" true (f.H.f_blocks <= 2);
      check_bool "shrunk to very few insns" true (f.H.f_insns <= 3);
      (* The reproducer must re-assemble and still execute the opcode. *)
      let img = Rv32_asm.Parser.parse_string f.H.f_asm in
      let cov = Difftest.Coverage.create () in
      let res = Difftest.Oracle.run ~trace:(Difftest.Coverage.hook cov) img in
      check_bool "reproducer still executes mulhsu" true
        (Difftest.Coverage.count cov "mulhsu" > 0);
      check_bool "reproducer exits cleanly" true
        (match res.Difftest.Oracle.vpp.Difftest.Oracle.stop with
        | Difftest.Oracle.Exited _ -> true
        | _ -> false);
      (* The forensic replay attaches a rendered report to the failure. *)
      match f.H.f_forensics with
      | None -> Alcotest.fail "no forensic report attached"
      | Some text ->
          check_bool "forensic report non-empty" true (String.length text > 0);
          check_bool "forensic report has event window" true
            (let re = "last " in
             let n = String.length text and m = String.length re in
             let rec find i =
               i + m <= n && (String.sub text i m = re || find (i + 1))
             in
             find 0)

(* The shrinker is 1-minimal against a cheap static predicate: removing any
   remaining block or body instruction must clear the predicate. *)
let test_shrinker_minimal () =
  let count_op prog =
    List.fold_left
      (fun acc b ->
        acc
        + List.length
            (List.filter
               (fun i -> Rv32.Insn.opcode i = "mul")
               (P.body_of b)))
      0 prog
  in
  let pred p = count_op p >= 2 in
  let rng = Difftest.Rng.create ~seed:0x5eed1 in
  let cov = Difftest.Coverage.create () in
  (* Find a program with at least two MULs to start from. *)
  let rec find () =
    let p = Difftest.Gen.program rng cov ~size:40 in
    if pred p then p else find ()
  in
  let prog = find () in
  let shrunk, stats = Difftest.Shrink.minimize pred prog in
  check_bool "still failing" true (pred shrunk);
  check_bool "got smaller" true (stats.Difftest.Shrink.to_insns <= stats.Difftest.Shrink.from_insns);
  check_int "exactly the two needed insns survive elsewhere" 2 (count_op shrunk);
  (* 1-minimality at block level. *)
  let n = List.length shrunk in
  for i = 0 to n - 1 do
    let without = List.filteri (fun j _ -> j <> i) shrunk in
    if without <> [] && pred without then
      Alcotest.failf "block %d is removable — not minimal" i
  done

let test_oracle_agreement_on_fixed_program () =
  (* A deterministic structured program through the full oracle. *)
  let prog =
    [
      P.Straight (P.li_insns 5 0x80000000 @ P.li_insns 6 0xffffffff @ [ Rv32.Insn.DIV (7, 5, 6) ]);
      P.Loop { count = 3; body = [ Rv32.Insn.ADDI (8, 8, 1) ] };
      P.Guard { kind = P.Bne; rs1 = 8; rs2 = 9; body = [ Rv32.Insn.XOR (10, 10, 10) ] };
      P.Call { via_jalr = true; body = [ Rv32.Insn.SW (P.buf_reg, 7, 16) ] };
    ]
  in
  let res = Difftest.Oracle.run (P.assemble prog) in
  check_bool "golden agrees with VP" true
    (Difftest.Oracle.agree res.Difftest.Oracle.golden res.Difftest.Oracle.vp);
  check_bool "VP agrees with VP+" true
    (Difftest.Oracle.agree res.Difftest.Oracle.vp res.Difftest.Oracle.vpp);
  (* INT_MIN / -1 = INT_MIN must have landed in the scratch buffer. *)
  let w =
    let m = res.Difftest.Oracle.vpp.Difftest.Oracle.mem in
    Char.code m.[16] lor (Char.code m.[17] lsl 8) lor (Char.code m.[18] lsl 16)
    lor (Char.code m.[19] lsl 24)
  in
  check_int "INT_MIN / -1 stored" 0x80000000 w

let test_props_hold_on_random_programs () =
  let rng = Difftest.Rng.create ~seed:0xfeed in
  let cov = Difftest.Coverage.create () in
  for _ = 1 to 5 do
    let img = P.assemble (Difftest.Gen.program rng cov ~size:15) in
    Option.iter (Alcotest.failf "purity: %s") (Difftest.Props.purity img);
    Option.iter
      (Alcotest.failf "monotonicity: %s")
      (Difftest.Props.monotonic (Difftest.Props.draw_ranges rng) img)
  done

let () =
  Alcotest.run "difftest"
    [
      ( "smoke",
        [
          Alcotest.test_case "fixed-seed run healthy" `Quick test_smoke_healthy;
          Alcotest.test_case "full RV32IM coverage" `Quick test_smoke_coverage;
          Alcotest.test_case "cache-vs-nocache diff clean" `Quick
            test_cache_diff_clean;
        ] );
      ( "generator",
        [
          Alcotest.test_case "structured programs" `Quick test_generator_structure;
          Alcotest.test_case ".s emission = binary emission" `Quick
            test_to_asm_matches_assemble;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "three-way agreement" `Quick
            test_oracle_agreement_on_fixed_program;
          Alcotest.test_case "metamorphic properties" `Quick
            test_props_hold_on_random_programs;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "injected fault to minimal .s" `Quick
            test_injected_fault_shrinks;
          Alcotest.test_case "1-minimal result" `Quick test_shrinker_minimal;
        ] );
    ]
