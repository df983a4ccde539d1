(* Dift.Monitor unit coverage: Halt vs Record interception, mode switches
   mid-run, check counting (passed and failed), and clear semantics. *)

open Helpers

let lat () = Dift.Lattice.confidentiality ()

let violation ?(detail = "test") lat =
  {
    Dift.Violation.kind = Dift.Violation.Custom "unit";
    data_tag = Dift.Lattice.tag_of_name lat "HC";
    required_tag = Dift.Lattice.tag_of_name lat "LC";
    pc = Some 0x8000_0000;
    detail;
  }

let test_halt_reraises () =
  let lat = lat () in
  let m = Dift.Monitor.create lat in
  check_bool "default mode is Halt" true (Dift.Monitor.mode m = Dift.Monitor.Halt);
  (match Dift.Monitor.violation m (violation lat) with
  | () -> Alcotest.fail "Halt mode must re-raise"
  | exception Dift.Violation.Violation v ->
      check_string "violation detail" "test" v.Dift.Violation.detail);
  (* The violation is recorded before the re-raise. *)
  check_int "recorded despite raise" 1 (Dift.Monitor.violation_count m)

let test_record_continues () =
  let lat = lat () in
  let m = Dift.Monitor.create ~mode:Dift.Monitor.Record lat in
  Dift.Monitor.violation m (violation lat ~detail:"a");
  Dift.Monitor.violation m (violation lat ~detail:"b");
  check_int "both recorded" 2 (Dift.Monitor.violation_count m);
  check_int "events in order" 2 (List.length (Dift.Monitor.events m));
  match Dift.Monitor.violations m with
  | [ va; vb ] ->
      check_string "oldest first" "a" va.Dift.Violation.detail;
      check_string "newest last" "b" vb.Dift.Violation.detail
  | l -> Alcotest.failf "expected 2 violations, got %d" (List.length l)

let test_set_mode_mid_run () =
  let lat = lat () in
  let m = Dift.Monitor.create ~mode:Dift.Monitor.Record lat in
  Dift.Monitor.violation m (violation lat);
  Dift.Monitor.set_mode m Dift.Monitor.Halt;
  check_bool "mode switched" true (Dift.Monitor.mode m = Dift.Monitor.Halt);
  (match Dift.Monitor.violation m (violation lat) with
  | () -> Alcotest.fail "post-switch violation must raise"
  | exception Dift.Violation.Violation _ -> ());
  check_int "count includes both" 2 (Dift.Monitor.violation_count m);
  (* And back: Record resumes continuing. *)
  Dift.Monitor.set_mode m Dift.Monitor.Record;
  Dift.Monitor.violation m (violation lat);
  check_int "third recorded without raise" 3 (Dift.Monitor.violation_count m)

let test_check_count_passed_and_failed () =
  let lat = lat () in
  let m = Dift.Monitor.create ~mode:Dift.Monitor.Record lat in
  (* The engine counts every clearance check; only failed ones also record
     a violation. Simulate three passed checks and two failed ones. *)
  Dift.Monitor.count_check m;
  Dift.Monitor.count_check m;
  Dift.Monitor.count_check m;
  Dift.Monitor.count_check m;
  Dift.Monitor.violation m (violation lat);
  Dift.Monitor.count_check m;
  Dift.Monitor.violation m (violation lat);
  check_int "checks counted independently of outcome" 5 (Dift.Monitor.check_count m);
  check_int "violations counted separately" 2 (Dift.Monitor.violation_count m)

let test_clear () =
  let lat = lat () in
  let m = Dift.Monitor.create ~mode:Dift.Monitor.Record lat in
  Dift.Monitor.violation m (violation lat);
  Dift.Monitor.report m
    (Dift.Monitor.Declassified
       {
         where = "aes";
         from_tag = Dift.Lattice.tag_of_name lat "HC";
         to_tag = Dift.Lattice.tag_of_name lat "LC";
       });
  Dift.Monitor.report m (Dift.Monitor.Note "note");
  Dift.Monitor.count_check m;
  check_int "events before clear" 3 (List.length (Dift.Monitor.events m));
  check_int "declass before clear" 1 (Dift.Monitor.declassification_count m);
  Dift.Monitor.clear m;
  check_int "no events" 0 (List.length (Dift.Monitor.events m));
  check_int "no violations" 0 (Dift.Monitor.violation_count m);
  check_int "no declassifications" 0 (Dift.Monitor.declassification_count m);
  check_int "no checks" 0 (Dift.Monitor.check_count m);
  check_bool "mode survives clear" true (Dift.Monitor.mode m = Dift.Monitor.Record);
  (* The monitor keeps working after clear. *)
  Dift.Monitor.violation m (violation lat);
  check_int "usable after clear" 1 (Dift.Monitor.violation_count m)

(* The core counts its checks in place, in the cell the monitor reads:
   after [clear] the total restarts at 0 and then counts every fetch
   check of a tainted program, on the compiled core as on the
   reference. *)
let test_core_counts_into_cell () =
  let lat = Dift.Lattice.integrity () in
  let li = Dift.Lattice.tag_of_name lat "LI" in
  (* LI code with an LI fetch clearance: every fetch is checked and
     passes, and no instruction runs on the untainted fast path. *)
  let policy =
    Dift.Policy.make ~lattice:lat ~default_tag:li
      ~classification:
        [
          Dift.Policy.region ~name:"code" ~lo:0x8000_0000 ~hi:0x8000_ffff
            ~tag:li;
        ]
      ~exec_fetch:li ()
  in
  let p = Rv32_asm.Asm.create () in
  Rv32_asm.Asm.label p "_start";
  Rv32_asm.Asm.li p Rv32.Reg.t0 20;
  Rv32_asm.Asm.label p "loop";
  Rv32_asm.Asm.addi p Rv32.Reg.t0 Rv32.Reg.t0 (-1);
  Rv32_asm.Asm.bne_l p Rv32.Reg.t0 Rv32.Reg.zero "loop";
  Rv32_asm.Asm.exit_ecall p ();
  let img = Rv32_asm.Asm.assemble p in
  List.iter
    (fun block_cache ->
      let m = Dift.Monitor.create ~mode:Dift.Monitor.Record lat in
      Dift.Monitor.count_check m;
      Dift.Monitor.clear m;
      check_int "0 after clear" 0 (Dift.Monitor.check_count m);
      let soc = Vp.Soc.create ~policy ~monitor:m ~block_cache () in
      Vp.Soc.load_image soc img;
      expect_exit (Vp.Soc.run_for_instructions soc 10_000) 0;
      let what = if block_cache then "compiled" else "reference" in
      check_int (what ^ ": one fetch check per instruction")
        (Rv32.Core.instret soc.Vp.Soc.core)
        (Dift.Monitor.check_count m);
      check_int (what ^ ": no violation") 0 (Dift.Monitor.violation_count m);
      Dift.Monitor.clear m;
      check_int (what ^ ": 0 after a second clear") 0
        (Dift.Monitor.check_count m))
    [ true; false ]

(* End-to-end: a VP+ run in Record mode collects violations the same
   program raises fatally in Halt mode. *)
let test_modes_against_engine () =
  let lat = Dift.Lattice.integrity () in
  let hi = Dift.Lattice.tag_of_name lat "HI" in
  let li = Dift.Lattice.tag_of_name lat "LI" in
  (* The program region is classified LI (think injected / untrusted code)
     while fetch requires HI: every fetch violates. *)
  let policy =
    Dift.Policy.make ~lattice:lat ~default_tag:li
      ~classification:
        [
          Dift.Policy.region ~name:"untrusted" ~lo:0x8000_0000 ~hi:0x8000_ffff
            ~tag:li;
        ]
      ~exec_fetch:hi ()
  in
  let build p =
    Rv32_asm.Asm.label p "_start";
    Rv32_asm.Asm.nop p;
    Rv32_asm.Asm.exit_ecall p ()
  in
  (* Record: runs to completion, violations recorded. *)
  let record = Dift.Monitor.create ~mode:Dift.Monitor.Record lat in
  let _, reason = run_program ~policy ~monitor:record build in
  expect_exit reason 0;
  check_bool "violations recorded" true (Dift.Monitor.violation_count record > 0);
  (* Halt: the same program stops at the first fetch. *)
  let halt = Dift.Monitor.create ~mode:Dift.Monitor.Halt lat in
  (match run_program ~policy ~monitor:halt build with
  | _ -> Alcotest.fail "Halt mode must abort the run"
  | exception Dift.Violation.Violation v ->
      check_bool "fetch violation" true (v.Dift.Violation.kind = Dift.Violation.Exec_fetch));
  check_int "exactly one recorded before halt" 1 (Dift.Monitor.violation_count halt)

let () =
  Alcotest.run "monitor"
    [
      ( "modes",
        [
          Alcotest.test_case "halt re-raises" `Quick test_halt_reraises;
          Alcotest.test_case "record continues" `Quick test_record_continues;
          Alcotest.test_case "set_mode mid-run" `Quick test_set_mode_mid_run;
          Alcotest.test_case "engine halt vs record" `Quick test_modes_against_engine;
        ] );
      ( "counters",
        [
          Alcotest.test_case "check_count passed+failed" `Quick
            test_check_count_passed_and_failed;
          Alcotest.test_case "clear semantics" `Quick test_clear;
          Alcotest.test_case "core counts into the monitor's cell" `Quick
            test_core_counts_into_cell;
        ] );
    ]
