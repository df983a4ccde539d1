(* Shared helpers for the test suites. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A permissive single-class policy for tests that don't exercise DIFT. *)
let trivial_policy () =
  let lat = Dift.Lattice.make_exn ~classes:[ "ANY" ] ~flows:[] in
  Dift.Policy.unrestricted lat ~default_tag:0

(* An integrity policy (IFP-2): HI-classified program region, HI fetch
   clearance; everything else LI. *)
let integrity_policy ?(image_hi = (0x8000_0000, 0x8000_ffff)) () =
  let lat = Dift.Lattice.integrity () in
  let hi = Dift.Lattice.tag_of_name lat "HI" in
  let li = Dift.Lattice.tag_of_name lat "LI" in
  let lo, hi_addr = image_hi in
  Dift.Policy.make ~lattice:lat ~default_tag:li
    ~classification:[ Dift.Policy.region ~name:"program" ~lo ~hi:hi_addr ~tag:hi ]
    ~exec_fetch:hi ()

let soc_of_policy ?(tracking = true) ?monitor ?aes_out_tag ?aes_in_clearance
    ?sensor_period policy =
  let monitor =
    match monitor with
    | Some m -> m
    | None -> Dift.Monitor.create policy.Dift.Policy.lattice
  in
  Vp.Soc.create ~policy ~monitor ~tracking ?aes_out_tag ?aes_in_clearance
    ?sensor_period ()

(* Assemble a program given by a builder function and run it to completion
   (or the instruction cap); returns the SoC for inspection. *)
let run_program ?(tracking = true) ?(policy = trivial_policy ()) ?monitor
    ?(max_insns = 2_000_000) build =
  let p = Rv32_asm.Asm.create () in
  build p;
  let img = Rv32_asm.Asm.assemble p in
  let soc = soc_of_policy ~tracking ?monitor policy in
  Vp.Soc.load_image soc img;
  let reason = Vp.Soc.run_for_instructions soc max_insns in
  (soc, reason)

let expect_exit reason code =
  match reason with
  | Rv32.Core.Exited c -> check_int "exit code" code c
  | Rv32.Core.Running -> Alcotest.fail "program still running"
  | Rv32.Core.Breakpoint -> Alcotest.fail "program hit ebreak"
  | Rv32.Core.Insn_limit -> Alcotest.fail "program hit the instruction limit"

let qtest = QCheck_alcotest.to_alcotest

(* A function is called, then its first instruction is overwritten through
   a plain store; later calls must execute the patched instruction. Exits
   with 201: the first call adds 1, the two patched ones 100 each. *)
let smc_cross_block p =
  let module A = Rv32_asm.Asm in
  let module R = Rv32.Reg in
  A.li p R.s1 0;
  A.li p R.s2 3;
  A.la p R.t0 "site";
  A.la p R.t1 "newinsn";
  A.lw p R.t1 R.t1 0;
  A.label p "loop";
  A.call p "site_fn";
  A.sw p R.t1 R.t0 0;
  A.addi p R.s2 R.s2 (-1);
  A.bnez_l p R.s2 "loop";
  A.mv p R.a0 R.s1;
  A.li p R.a7 93;
  A.ecall p;
  A.label p "site_fn";
  A.label p "site";
  A.addi p R.s1 R.s1 1;
  A.ret p;
  A.align p 4;
  A.label p "newinsn";
  (* addi s1, s1, 100 *)
  A.word p (Rv32.Encode.encode (Rv32.Insn.ADDI (R.s1, R.s1, 100)))
