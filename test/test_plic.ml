(* PLIC semantics: priority/threshold arbitration, the claim/complete
   protocol with its in-service window, level-source re-assertion, the
   public-control-plane taint invariant pinned by plic.mli, and a
   vectored-mtvec interrupt dispatch on the full SoC. *)

open Helpers
module P = Tlm.Payload
module S = Tlm.Socket
module A = Rv32_asm.Asm
module R = Rv32.Reg
module C = Rv32.Csr

let lat = Dift.Lattice.ifp3 ()
let t n = Dift.Lattice.tag_of_name lat n

let fresh_plic () =
  let policy = Dift.Policy.make ~lattice:lat ~default_tag:(t "LC,LI") () in
  let monitor = Dift.Monitor.create lat in
  let kernel = Sysc.Kernel.create () in
  let env = Vp.Env.create kernel policy monitor in
  let pl = Vp.Plic.create env ~name:"plic" in
  let meip = ref false in
  Vp.Plic.set_ext_irq_callback pl (fun on -> meip := on);
  (env, pl, Vp.Plic.socket pl, meip)

let read_word sock ~addr ~tag =
  let p = P.create ~cmd:P.Read ~addr ~len:4 ~default_tag:tag () in
  ignore (S.call sock p Sysc.Time.zero);
  p

let write_word sock ~addr ~value ~tag =
  let p = P.create ~cmd:P.Write ~addr ~len:4 ~default_tag:tag () in
  P.set_value p value ~tag;
  ignore (S.call sock p Sysc.Time.zero)

let claim_reg = 8
let threshold_reg = 0x10
let priority_reg src = 0x80 + (4 * src)
let enable sock mask = write_word sock ~addr:4 ~value:mask ~tag:(t "LC,HI")

let claim sock =
  P.value (read_word sock ~addr:claim_reg ~tag:(t "LC,LI"))

let complete sock src =
  write_word sock ~addr:claim_reg ~value:src ~tag:(t "LC,HI")

(* Higher priority wins regardless of source id; equal priorities tie to
   the lowest id. *)
let test_priority_arbitration () =
  let _, pl, sock, _ = fresh_plic () in
  enable sock 0b11100;
  write_word sock ~addr:(priority_reg 4) ~value:5 ~tag:(t "LC,HI");
  Vp.Plic.trigger pl 2;
  Vp.Plic.trigger pl 3;
  Vp.Plic.trigger pl 4;
  check_int "highest priority first" 4 (claim sock);
  check_int "then lowest id among ties" 2 (claim sock);
  check_int "then the other tie" 3 (claim sock);
  check_int "drained" 0 (claim sock)

(* Sources at or below the threshold are withheld: no MEIP, claim reads
   0; raising the source's priority above the threshold delivers it. *)
let test_threshold_gates_delivery () =
  let _, pl, sock, meip = fresh_plic () in
  enable sock 0b100;
  write_word sock ~addr:threshold_reg ~value:3 ~tag:(t "LC,HI");
  Vp.Plic.trigger pl 2;
  check_bool "below threshold: no meip" false !meip;
  check_int "below threshold: claim 0" 0 (claim sock);
  check_bool "claim did not consume it" true (Vp.Plic.pending pl land 0b100 <> 0);
  write_word sock ~addr:(priority_reg 2) ~value:4 ~tag:(t "LC,HI");
  check_bool "above threshold: meip" true !meip;
  check_int "delivered" 2 (claim sock)

(* The in-service window: between claim and complete the source is not
   re-delivered even if re-triggered; complete reopens it. *)
let test_in_service_window () =
  let _, pl, sock, meip = fresh_plic () in
  enable sock 0b100;
  Vp.Plic.trigger pl 2;
  check_int "claimed" 2 (claim sock);
  check_int "in service" 0b100 (Vp.Plic.in_service pl);
  Vp.Plic.trigger pl 2;
  check_bool "no re-delivery while in service" false !meip;
  check_int "claim empty while in service" 0 (claim sock);
  complete sock 2;
  check_bool "re-armed after complete" true !meip;
  check_int "re-delivered" 2 (claim sock);
  complete sock 2;
  check_int "no longer in service" 0 (Vp.Plic.in_service pl)

(* A level source still asserted at COMPLETE goes straight back to
   pending (this is what makes the irq-leak ISR re-enter); a released
   one does not. *)
let test_level_reassertion () =
  let _, pl, sock, meip = fresh_plic () in
  enable sock 0b10;
  Vp.Plic.set_level pl 1 true;
  check_int "asserted level source" 1 (claim sock);
  complete sock 1;
  check_bool "still asserted: pending again" true !meip;
  check_int "re-claimed" 1 (claim sock);
  Vp.Plic.set_level pl 1 false;
  complete sock 1;
  check_bool "released: quiet" false !meip;
  check_int "nothing pending" 0 (claim sock)

(* Control-plane invariant: whatever taint arrives on the configuration
   writes, every value read back from the controller is public — a
   tainted payload in a triggering peripheral must not taint the
   claim/dispatch path. *)
let test_control_plane_stays_public () =
  let env, pl, sock, _ = fresh_plic () in
  let hot = t "HC,LI" in
  write_word sock ~addr:4 ~value:0b100 ~tag:hot;
  write_word sock ~addr:(priority_reg 2) ~value:7 ~tag:hot;
  write_word sock ~addr:threshold_reg ~value:1 ~tag:hot;
  Vp.Plic.trigger pl 2;
  List.iter
    (fun (name, addr) ->
      let p = read_word sock ~addr ~tag:hot in
      check_int (name ^ " reads public") env.Vp.Env.pub (P.get_tag p 0))
    [
      ("pending", 0); ("enable", 4); ("claim", claim_reg);
      ("threshold", threshold_reg); ("priority", priority_reg 2);
    ]

(* End-to-end vectored dispatch: mtvec mode 1 sends a machine software
   interrupt (cause 3) to base + 12. *)
let test_vectored_interrupt () =
  let soc, reason =
    run_program (fun p ->
        Firmware.Rt.entry p ();
        A.la p R.t6 "vec";
        A.ori p R.t6 R.t6 1;
        A.csrrw p R.zero C.mtvec R.t6;
        A.li p R.t0 C.bit_msi;
        A.csrrs p R.zero C.mie R.t0;
        A.li p R.t0 C.mstatus_mie;
        A.csrrs p R.zero C.mstatus R.t0;
        A.li p R.t0 Vp.Soc.clint_base;
        A.li p R.t1 1;
        A.sw p R.t1 R.t0 0;
        A.label p "spin";
        A.j p "spin";
        A.align p 4;
        A.label p "vec";
        A.j p "fail";
        A.j p "fail";
        A.j p "fail";
        A.j p "msi";
        A.label p "fail";
        Firmware.Rt.exit_ p ~code:1 ();
        A.label p "msi";
        Firmware.Rt.exit_ p ~code:42 ())
  in
  expect_exit reason 42;
  check_int "mcause is interrupt 3" (C.cause_interrupt 3)
    (Rv32.Core.csr soc.Vp.Soc.core).C.v_mcause

let () =
  Alcotest.run "plic"
    [
      ( "arbitration",
        [
          Alcotest.test_case "priority order" `Quick test_priority_arbitration;
          Alcotest.test_case "threshold gating" `Quick
            test_threshold_gates_delivery;
        ] );
      ( "claim/complete",
        [
          Alcotest.test_case "in-service window" `Quick test_in_service_window;
          Alcotest.test_case "level re-assertion" `Quick test_level_reassertion;
        ] );
      ( "taint",
        [
          Alcotest.test_case "control plane stays public" `Quick
            test_control_plane_stays_public;
        ] );
      ( "delivery",
        [ Alcotest.test_case "vectored mtvec" `Quick test_vectored_interrupt ] );
    ]
