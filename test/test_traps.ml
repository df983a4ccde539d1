(* Architectural trap tests: every synchronous exception cause delivered
   to an installed machine handler, with mcause/mepc/mtval and the
   mstatus MIE/MPIE/MPP stack-unstack checked — on both execution paths:
   the threaded-code block compiler (the default) and, with the
   block cache off, the single-step reference. *)

open Helpers
module A = Rv32_asm.Asm
module R = Rv32.Reg
module C = Rv32.Csr

(* Every case runs the same scaffold: enable mstatus.MIE, install the
   handler, run an optional [pre] (e.g. drop to U-mode), then the
   trigger. The handler records mcause/mepc/mtval/mstatus into
   s2/s3/s4/s5, redirects mepc to [resume] (forcing MPP back to M so the
   epilogue runs privileged), and mrets; [resume] records the unstacked
   mstatus into s6 and exits 0. Triggers place the label [fault_at]
   immediately before the faulting instruction. *)
let scaffold ?(pre = fun _ -> ()) trigger p =
  Firmware.Rt.entry p ();
  A.li p R.t0 C.mstatus_mie;
  A.csrrs p R.zero C.mstatus R.t0;
  A.la p R.t6 "tvec";
  A.csrrw p R.zero C.mtvec R.t6;
  pre p;
  trigger p;
  A.label p "resume";
  A.csrrs p R.s6 C.mstatus 0;
  Firmware.Rt.exit_ p ~code:0 ();
  (* Landing pad for the control-flow triggers (never executed). *)
  A.align p 4;
  A.label p "target";
  A.nop p;
  A.nop p;
  A.align p 4;
  A.label p "tvec";
  A.csrrs p R.s2 C.mcause 0;
  A.csrrs p R.s3 C.mepc 0;
  A.csrrs p R.s4 C.mtval 0;
  A.csrrs p R.s5 C.mstatus 0;
  A.la p R.t6 "resume";
  A.csrrw p R.zero C.mepc R.t6;
  A.li p R.t6 C.mstatus_mpp_mask;
  A.csrrs p R.zero C.mstatus R.t6;
  A.mret p;
  A.align p 4;
  A.label p "data";
  A.word p 0x11223344;
  A.word p 0

let unmapped = 0x0000_0100

(* Expected mepc / mtval, resolved against the assembled image. *)
type addr = Fault_at | Target_plus of int | Data_plus of int | Abs of int

let resolve img = function
  | Fault_at -> Rv32_asm.Image.symbol img "fault_at"
  | Target_plus k -> Rv32_asm.Image.symbol img "target" + k
  | Data_plus k -> Rv32_asm.Image.symbol img "data" + k
  | Abs a -> a

type case = {
  c_name : string;
  c_cause : int;
  c_epc : addr;
  c_tval : addr;
  c_priv : int; (* privilege captured in mstatus.MPP at trap entry *)
  c_strict : bool; (* needs a strict-alignment SoC *)
  c_pre : A.t -> unit;
  c_trigger : A.t -> unit;
}

let mk ?(priv = C.priv_m) ?(strict = false) ?(pre = fun _ -> ()) name cause epc
    tval trigger =
  {
    c_name = name;
    c_cause = cause;
    c_epc = epc;
    c_tval = tval;
    c_priv = priv;
    c_strict = strict;
    c_pre = pre;
    c_trigger = trigger;
  }

(* Drop to U-mode at the trigger: mepc <- the trigger, MPIE <- 1 (so the
   mret leaves MIE set, same as the machine-mode cases), MPP <- U. *)
let drop_to_u p =
  A.li p R.t0 C.mstatus_mpie;
  A.csrrs p R.zero C.mstatus R.t0;
  A.la p R.t6 "umode";
  A.csrrw p R.zero C.mepc R.t6;
  A.li p R.t6 C.mstatus_mpp_mask;
  A.csrrc p R.zero C.mstatus R.t6;
  A.mret p;
  A.label p "umode"

let cases =
  [
    mk "fetch-misaligned" C.cause_fetch_misaligned (Target_plus 2)
      (Target_plus 2) (fun p ->
        A.la p R.t1 "target";
        A.addi p R.t1 R.t1 2;
        A.label p "fault_at";
        A.jalr p R.zero R.t1 0);
    mk "fetch-fault" C.cause_fetch_fault (Abs unmapped) (Abs unmapped)
      (fun p ->
        A.li p R.t1 unmapped;
        A.label p "fault_at";
        A.jalr p R.zero R.t1 0);
    mk "illegal" C.cause_illegal Fault_at (Abs 0xffff_ffff) (fun p ->
        A.label p "fault_at";
        A.word p 0xffff_ffff);
    mk "breakpoint" C.cause_breakpoint Fault_at Fault_at (fun p ->
        A.label p "fault_at";
        A.ebreak p);
    mk "load-misaligned" ~strict:true C.cause_load_misaligned Fault_at
      (Data_plus 2) (fun p ->
        A.la p R.t1 "data";
        A.label p "fault_at";
        A.lw p R.t2 R.t1 2);
    mk "load-fault" C.cause_load_fault Fault_at (Abs unmapped) (fun p ->
        A.li p R.t1 unmapped;
        A.label p "fault_at";
        A.lw p R.t2 R.t1 0);
    mk "store-misaligned" ~strict:true C.cause_store_misaligned Fault_at
      (Data_plus 2) (fun p ->
        A.la p R.t1 "data";
        A.label p "fault_at";
        A.sw p R.t2 R.t1 2);
    mk "store-fault" C.cause_store_fault Fault_at (Abs unmapped) (fun p ->
        A.li p R.t1 unmapped;
        A.label p "fault_at";
        A.sw p R.t2 R.t1 0);
    mk "ecall-u" ~priv:C.priv_u ~pre:drop_to_u C.cause_ecall_u Fault_at
      (Abs 0) (fun p ->
        A.label p "fault_at";
        A.ecall p);
    mk "ecall-m" C.cause_ecall_m Fault_at (Abs 0) (fun p ->
        A.li p R.a7 0;
        A.label p "fault_at";
        A.ecall p);
  ]

let run_scaffold ~block_cache ~strict_align ?pre trigger =
  let p = A.create () in
  scaffold ?pre trigger p;
  let img = A.assemble p in
  let policy = trivial_policy () in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking:true ~block_cache ~strict_align ()
  in
  Vp.Soc.load_image soc img;
  expect_exit (Vp.Soc.run_for_instructions soc 100_000) 0;
  (soc, img)

let reg soc r = Rv32.Core.get_reg soc.Vp.Soc.core r

let test_case ~block_cache c () =
  let soc, img =
    run_scaffold ~block_cache ~strict_align:c.c_strict ~pre:c.c_pre
      c.c_trigger
  in
  check_int "mcause" c.c_cause (reg soc R.s2);
  check_int "mepc" (resolve img c.c_epc) (reg soc R.s3);
  check_int "mtval" (resolve img c.c_tval) (reg soc R.s4);
  (* Trap entry stacks: MIE <- 0, MPIE <- old MIE (1), MPP <- old priv. *)
  let in_handler = reg soc R.s5 in
  check_int "handler mstatus.MIE" 0 (in_handler land C.mstatus_mie);
  check_int "handler mstatus.MPIE" C.mstatus_mpie
    (in_handler land C.mstatus_mpie);
  check_int "handler mstatus.MPP" c.c_priv (C.mstatus_mpp in_handler);
  (* mret unstacks: MIE <- MPIE (1), MPIE <- 1, MPP <- U. *)
  let after = reg soc R.s6 in
  check_int "post-mret mstatus.MIE" C.mstatus_mie (after land C.mstatus_mie);
  check_int "post-mret mstatus.MPIE" C.mstatus_mpie
    (after land C.mstatus_mpie);
  check_int "post-mret mstatus.MPP" C.priv_u (C.mstatus_mpp after)

(* Without strict alignment the same misaligned access completes (the
   handler never runs: s2 keeps its reset value). *)
let test_lenient_misaligned ~block_cache () =
  let soc, _ =
    run_scaffold ~block_cache ~strict_align:false (fun p ->
        A.la p R.t1 "data";
        A.label p "fault_at";
        A.lw p R.t2 R.t1 2)
  in
  check_int "no trap taken" 0 (reg soc R.s2);
  (* data = 0x11223344 .. 0x00000000; the straddling word is 0x00001122. *)
  check_int "misaligned value" 0x1122 (reg soc R.t2)

let () =
  let configs = [ ("threaded", true); ("threaded/nocache", false) ] in
  let suites =
    List.map
      (fun (cname, block_cache) ->
        ( cname,
          List.map
            (fun c ->
              Alcotest.test_case c.c_name `Quick (test_case ~block_cache c))
            cases ))
      configs
  in
  Alcotest.run "traps"
    (suites
    @ [
        ( "lenient alignment",
          [
            Alcotest.test_case "interp" `Quick
              (test_lenient_misaligned ~block_cache:false);
            Alcotest.test_case "threaded" `Quick
              (test_lenient_misaligned ~block_cache:true);
          ] );
      ])
