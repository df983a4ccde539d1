(* Transparency of the untainted fast path: the default compiled path
   (fast path on) vs the single-step reference ([~block_cache:false], no
   fast path), every observable of a run must be bit-identical — exit
   reason, retired instructions, register tags, the memory taint map and
   the recorded violations. The fast path may only change how fast the
   simulation runs and how many checks the monitor counts. *)

open Helpers
module A = Rv32_asm.Asm
module R = Rv32.Reg
module L = Dift.Lattice
module Immo = Firmware.Immo_fw

let lat = L.ifp3 ()
let t n = L.tag_of_name lat n

(* Same shape as the policy in test_dift: (HC,HI) secret region, program
   region at ifp3's bottom (LC,HI), all execution clearances on — so the
   fast path is enabled and engages until the first tainted load. *)
let policy_with ~secret_lo ~secret_hi ~image () =
  let lo, hi = image in
  Dift.Policy.make ~lattice:lat ~default_tag:(t "LC,LI")
    ~classification:
      [
        Dift.Policy.region ~name:"secret" ~lo:secret_lo ~hi:secret_hi
          ~tag:(t "HC,HI");
        Dift.Policy.region ~name:"program" ~lo ~hi ~tag:(t "LC,HI");
      ]
    ~output_clearance:[ ("uart", t "LC,LI") ]
    ~exec_fetch:(t "LC,HI") ~exec_branch:(t "LC,LI")
    ~exec_mem_addr:(t "LC,LI") ()

type snapshot = {
  s_reason : Rv32.Core.exit_reason;
  s_instret : int;
  s_reg_tags : int list;
  s_taint : (int * int * Dift.Lattice.tag) list;
  s_violations : Dift.Violation.t list;
  s_checks : int;
  s_fast : int;
}

let run_scenario ?(block_cache = true) build =
  let p = A.create () in
  build p;
  let img = A.assemble p in
  let secret_lo = Rv32_asm.Image.symbol img "secret" in
  let policy =
    policy_with ~secret_lo
      ~secret_hi:(secret_lo + 15)
      ~image:(img.Rv32_asm.Image.org, Rv32_asm.Image.limit img - 1)
      ()
  in
  let monitor = Dift.Monitor.create ~mode:Dift.Monitor.Record lat in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking:true ~block_cache () in
  Vp.Soc.load_image soc img;
  let reason = Vp.Soc.run_for_instructions soc 200_000 in
  let core = soc.Vp.Soc.core in
  {
    s_reason = reason;
    s_instret = Rv32.Core.instret core;
    s_reg_tags = List.init 32 (fun r -> Rv32.Core.get_reg_tag core r);
    s_taint =
      Vp.Memory.tainted_regions soc.Vp.Soc.memory ~baseline:(t "LC,HI");
    s_violations = Dift.Monitor.violations monitor;
    s_checks = Dift.Monitor.check_count monitor;
    s_fast = Rv32.Core.fast_retired core;
  }

let check_equal ~name a b =
  check_bool (name ^ ": exit reason") true (a.s_reason = b.s_reason);
  check_int (name ^ ": instret") a.s_instret b.s_instret;
  check_bool (name ^ ": register tags") true (a.s_reg_tags = b.s_reg_tags);
  check_bool (name ^ ": memory taint map") true (a.s_taint = b.s_taint);
  check_int (name ^ ": violation count")
    (List.length a.s_violations)
    (List.length b.s_violations);
  check_bool (name ^ ": violations") true (a.s_violations = b.s_violations)

(* Compiled vs reference; the compiled run must actually exercise the
   fast path. *)
let compare_scenario ~name ?(expect_fast = true) build =
  let on = run_scenario build in
  let off = run_scenario ~block_cache:false build in
  check_equal ~name on off;
  check_int (name ^ ": no fast path on the reference") 0 off.s_fast;
  if expect_fast then
    check_bool (name ^ ": fast path exercised") true (on.s_fast > 0)

(* A warm-up loop of pure-constant work: every instruction is eligible for
   the fast path. *)
let warm_loop p =
  A.li p R.s4 50;
  A.label p "warm";
  A.addi p R.s5 R.s5 3;
  A.addi p R.s4 R.s4 (-1);
  A.bnez_l p R.s4 "warm"

let secret_data p =
  A.align p 4;
  A.label p "secret";
  A.ascii p "0123456789abcdef"

(* Taint enters via a load and propagates through the ALU; no violation. *)
let alu_scenario p =
  Firmware.Rt.entry p ();
  warm_loop p;
  A.la p R.t0 "secret";
  A.lw p R.t1 R.t0 0;
  A.li p R.t2 1;
  A.add p R.s2 R.t1 R.t2;
  A.xor p R.s3 R.t1 R.t1;
  Firmware.Rt.exit_ p ();
  secret_data p

let test_alu () =
  compare_scenario ~name:"alu taint" alu_scenario;
  (* The taint itself must be there (guards against "identical because the
     engine did nothing"). *)
  let on = run_scenario alu_scenario in
  check_bool "s2 tainted" true
    (List.nth on.s_reg_tags R.s2 = t "HC,HI")

(* Branching on a secret: an Exec_branch violation must be recorded
   identically whether or not the fast path was live moments before. *)
let branch_scenario p =
  Firmware.Rt.entry p ();
  warm_loop p;
  A.la p R.t0 "secret";
  A.lw p R.t1 R.t0 0;
  A.beqz_l p R.t1 "somewhere";
  A.label p "somewhere";
  A.beqz_l p R.t1 "elsewhere";
  A.label p "elsewhere";
  Firmware.Rt.exit_ p ();
  secret_data p

let test_branch_violation () =
  compare_scenario ~name:"branch violation" branch_scenario;
  let on = run_scenario branch_scenario in
  check_int "two violations recorded" 2 (List.length on.s_violations);
  List.iter
    (fun v ->
      check_bool "kind is exec-branch" true
        (v.Dift.Violation.kind = Dift.Violation.Exec_branch))
    on.s_violations

(* Secret-dependent address: Exec_mem_addr. *)
let mem_addr_scenario p =
  Firmware.Rt.entry p ();
  warm_loop p;
  A.la p R.t0 "secret";
  A.lw p R.t1 R.t0 0;
  A.andi p R.t1 R.t1 3;
  A.la p R.t2 "scratch";
  A.add p R.t2 R.t2 R.t1;
  A.lbu p R.a0 R.t2 0;
  Firmware.Rt.exit_ p ();
  secret_data p;
  A.label p "scratch";
  A.space p 8

let test_mem_addr_violation () =
  compare_scenario ~name:"mem-addr violation" mem_addr_scenario;
  let on = run_scenario mem_addr_scenario in
  check_bool "exec-mem-addr recorded" true
    (List.exists
       (fun v -> v.Dift.Violation.kind = Dift.Violation.Exec_mem_addr)
       on.s_violations)

(* Taint written to memory: the taint MAP must agree, not just registers. *)
let store_scenario p =
  Firmware.Rt.entry p ();
  warm_loop p;
  A.la p R.t0 "secret";
  A.lbu p R.t1 R.t0 0;
  A.la p R.t2 "scratch";
  A.sb p R.t1 R.t2 0;
  A.lbu p R.s2 R.t2 0;
  Firmware.Rt.exit_ p ();
  secret_data p;
  A.label p "scratch";
  A.space p 4

let test_store_taint () =
  compare_scenario ~name:"store taint" store_scenario;
  let on = run_scenario store_scenario in
  check_bool "taint map not empty" true (on.s_taint <> [])

(* The immobilizer case study end to end: protocol run and a detected
   attack, compiled vs reference. *)
let immo_soc ~block_cache img =
  let policy = Immo.base_policy img in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let aes_out_tag, aes_in_clearance = Immo.aes_args policy in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking:true ~aes_out_tag
      ~aes_in_clearance ~block_cache ()
  in
  Vp.Soc.load_image soc img;
  soc

let test_immobilizer_protocol () =
  let run block_cache =
    let img = Immo.image ~variant:(Immo.Normal { fixed_dump = true }) () in
    let soc = immo_soc ~block_cache img in
    let engine = Immo.Engine.attach soc ~challenge:"CHLLNG42" in
    let reason = Vp.Soc.run_for_instructions soc 2_000_000 in
    expect_exit reason 0;
    check_bool "response valid" true (Immo.Engine.response_valid engine);
    Rv32.Core.instret soc.Vp.Soc.core
  in
  check_int "instret agrees" (run true) (run false)

let test_immobilizer_leak_detected () =
  List.iter
    (fun block_cache ->
      let img = Immo.image ~variant:Immo.Leak_direct () in
      let soc = immo_soc ~block_cache img in
      match Vp.Soc.run_for_instructions soc 2_000_000 with
      | exception Dift.Violation.Violation v ->
          check_bool "uart output-clearance violation" true
            (match v.Dift.Violation.kind with
            | Dift.Violation.Output_clearance "uart" -> true
            | _ -> false)
      | _ ->
          Alcotest.failf "leak not detected (block_cache=%b)" block_cache)
    [ true; false ]

let () =
  Alcotest.run "fastpath"
    [
      ( "transparency",
        [
          Alcotest.test_case "alu taint" `Quick test_alu;
          Alcotest.test_case "branch violation" `Quick test_branch_violation;
          Alcotest.test_case "mem-addr violation" `Quick
            test_mem_addr_violation;
          Alcotest.test_case "store taint map" `Quick test_store_taint;
        ] );
      ( "immobilizer",
        [
          Alcotest.test_case "protocol unchanged" `Quick
            test_immobilizer_protocol;
          Alcotest.test_case "leak still detected" `Quick
            test_immobilizer_leak_detected;
        ] );
    ]
