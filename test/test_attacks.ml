(* Table I: the Wilander-Kamkar code-injection suite, plus the
   trap-driven attack scenarios of the privilege architecture. *)

open Helpers
module W = Firmware.Wilander
module TA = Firmware.Trap_attacks

let outcome_name = function
  | W.Detected -> "Detected"
  | W.Missed c -> Printf.sprintf "Missed (exit %d)" c
  | W.Not_applicable -> "N/A"

let test_attack id () =
  match W.run id with
  | W.Detected -> ()
  | other -> Alcotest.failf "attack %d: expected Detected, got %s" id (outcome_name other)

(* The attacks genuinely work when tracking is off: the payload executes
   and exits with code 7 — proving the detection isn't vacuous. *)
let test_attack_lands_untracked id () =
  match W.run ~tracking:false id with
  | W.Missed 7 -> ()
  | other ->
      Alcotest.failf "attack %d (VP): expected the payload to run, got %s" id
        (outcome_name other)

let test_table_shape () =
  check_int "18 rows" 18 (List.length W.attacks);
  check_int "10 applicable" 10
    (List.length (List.filter (fun a -> a.W.applicable) W.attacks));
  List.iter
    (fun a ->
      check_bool "expected_detected matches applicability" a.W.applicable
        (List.mem a.W.id W.expected_detected))
    W.attacks

let test_na_rows_report_na () =
  List.iter
    (fun a ->
      if not a.W.applicable then
        match W.run a.W.id with
        | W.Not_applicable -> ()
        | o -> Alcotest.failf "attack %d: expected N/A, got %s" a.W.id (outcome_name o))
    W.attacks

(* --- trap-driven attacks (privilege architecture) --------------------- *)

let ta_outcome_name = function
  | TA.Detected -> "Detected"
  | TA.Missed c -> Printf.sprintf "Missed (exit %d)" c

let test_trap_attack_detected s () =
  match TA.run s with
  | TA.Detected -> ()
  | other ->
      Alcotest.failf "%s: expected Detected, got %s" (TA.name s)
        (ta_outcome_name other)

let test_trap_attack_lands s () =
  match TA.run ~tracking:false s with
  | TA.Missed c when c = TA.exit_code -> ()
  | other ->
      Alcotest.failf "%s (VP): expected the attack to land with exit %d, got %s"
        (TA.name s) TA.exit_code (ta_outcome_name other)

(* The hijack gadget announces itself on the UART when it runs — check
   the untracked run is a real machine-mode control-flow capture, not
   just an exit-code coincidence. *)
let test_hijack_gadget_observable () =
  let img = TA.image TA.Mtvec_hijack in
  let pol = TA.policy TA.Mtvec_hijack img in
  let monitor = Dift.Monitor.create pol.Dift.Policy.lattice in
  let soc = Vp.Soc.create ~policy:pol ~monitor ~tracking:false () in
  Vp.Soc.load_image soc img;
  (match TA.payload TA.Mtvec_hijack img with
  | Some bytes -> Vp.Uart.push_rx soc.Vp.Soc.uart bytes
  | None -> ());
  Rv32.Core.set_max_instructions soc.Vp.Soc.core 1_000_000;
  Vp.Soc.start soc;
  Vp.Soc.run soc;
  check_string "gadget printed" "P" (Vp.Uart.tx_string soc.Vp.Soc.uart)

(* Detection comes with a forensics chain: replaying the detected run
   with a tracer attached yields recorded events and a rendered report
   naming the violation. *)
let test_trap_attack_forensics s lat () =
  let tracer = Trace.Tracer.create lat in
  (match TA.run ~tracer s with
  | TA.Detected -> ()
  | other ->
      Alcotest.failf "%s (traced): expected Detected, got %s" (TA.name s)
        (ta_outcome_name other));
  check_bool "events recorded" true (Trace.Tracer.events_recorded tracer > 0);
  let text =
    Trace.Forensics.to_string
      (Trace.Forensics.make ~context:(TA.describe s) tracer ())
  in
  check_bool "report renders events" true
    (Astring_contains.contains ~sub:"trap" text
    || Astring_contains.contains ~sub:"VIOLATION" text)

let () =
  let detected_cases =
    List.map
      (fun id ->
        Alcotest.test_case (Printf.sprintf "attack %2d detected" id) `Quick
          (test_attack id))
      W.expected_detected
  in
  let landed_cases =
    List.map
      (fun id ->
        Alcotest.test_case
          (Printf.sprintf "attack %2d lands without DIFT" id)
          `Quick
          (test_attack_lands_untracked id))
      W.expected_detected
  in
  let trap_cases =
    List.concat_map
      (fun s ->
        [
          Alcotest.test_case (TA.name s ^ " detected") `Quick
            (test_trap_attack_detected s);
          Alcotest.test_case (TA.name s ^ " lands without DIFT") `Quick
            (test_trap_attack_lands s);
        ])
      TA.scenarios
    @ [
        Alcotest.test_case "mtvec-hijack gadget runs in M-mode" `Quick
          test_hijack_gadget_observable;
        Alcotest.test_case "mtvec-hijack forensics" `Quick
          (test_trap_attack_forensics TA.Mtvec_hijack
             (Dift.Lattice.integrity ()));
        Alcotest.test_case "irq-leak forensics" `Quick
          (test_trap_attack_forensics TA.Irq_leak
             (Dift.Lattice.confidentiality ()));
      ]
  in
  Alcotest.run "attacks"
    [
      ("table-1 shape", [ Alcotest.test_case "rows" `Quick test_table_shape;
                          Alcotest.test_case "n/a rows" `Quick test_na_rows_report_na ]);
      ("detection (VP+)", detected_cases);
      ("efficacy (plain VP)", landed_cases);
      ("trap-driven attacks", trap_cases);
    ]
