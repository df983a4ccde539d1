(* Integration tests: full firmware runs on the composed SoC. *)

open Helpers
module A = Rv32_asm.Asm
module R = Rv32.Reg

(* Sum 1..10 and exit with the result. *)
let test_sum_loop () =
  let _, reason =
    run_program (fun p ->
        A.li p R.a0 0;
        A.li p R.t0 1;
        A.li p R.t1 10;
        A.label p "loop";
        A.add p R.a0 R.a0 R.t0;
        A.addi p R.t0 R.t0 1;
        A.bge_l p R.t1 R.t0 "loop";
        A.li p R.a7 93;
        A.ecall p)
  in
  expect_exit reason 55

(* Store/load through RAM, byte and word granularity. *)
let test_memory_roundtrip () =
  let _, reason =
    run_program (fun p ->
        A.la p R.t0 "buf";
        A.li p R.t1 0x12345678;
        A.sw p R.t1 R.t0 0;
        A.lbu p R.a0 R.t0 1 (* expect 0x56 *);
        A.lw p R.t2 R.t0 0;
        A.bne_l p R.t1 R.t2 "fail";
        A.li p R.a7 93;
        A.ecall p;
        A.label p "fail";
        A.li p R.a7 93;
        A.li p R.a0 1;
        A.ecall p;
        A.align p 4;
        A.label p "buf";
        A.space p 8)
  in
  (match reason with
  | Rv32.Core.Exited 0x56 -> ()
  | r ->
      Alcotest.failf "expected exit 0x56, got %s"
        (match r with
        | Rv32.Core.Exited c -> Printf.sprintf "exit %d" c
        | Rv32.Core.Running -> "running"
        | Rv32.Core.Breakpoint -> "breakpoint"
        | Rv32.Core.Insn_limit -> "insn limit"));
  ignore reason

(* Firmware writes a class the lattice does not have to the sensor's
   DATA_TAG register: the store faults (cause 7) and the class stays as
   it was, so the frames refilled after it, loaded and added into a
   register, carry a class the core's tables know. *)
let test_sensor_class_refused () =
  let policy = integrity_policy () in
  let soc = soc_of_policy ~sensor_period:(Sysc.Time.us 50) policy in
  let before = Vp.Sensor.data_tag soc.Vp.Soc.sensor in
  let p = A.create () in
  A.j p "start";
  A.align p 4;
  A.label p "handler";
  (* Record the cause and step over the faulting store. *)
  A.csrrs p R.s0 Rv32.Csr.mcause R.zero;
  A.csrrs p R.t5 Rv32.Csr.mepc R.zero;
  A.addi p R.t5 R.t5 4;
  A.csrrw p R.zero Rv32.Csr.mepc R.t5;
  A.mret p;
  A.label p "start";
  A.la p R.t0 "handler";
  A.csrrw p R.zero Rv32.Csr.mtvec R.t0;
  A.li p R.t0 Vp.Soc.sensor_base;
  A.li p R.t1 200;
  A.sb p R.t1 R.t0 0x40;
  (* Several refill periods of 5,000 instructions each. *)
  A.li p R.t2 20_000;
  A.label p "wait";
  A.addi p R.t2 R.t2 (-1);
  A.bnez_l p R.t2 "wait";
  A.lw p R.t3 R.t0 0;
  A.add p R.t4 R.t3 R.t3;
  A.mv p R.a0 R.s0;
  A.li p R.a7 93;
  A.ecall p;
  Vp.Soc.load_image soc (A.assemble p);
  let reason = Vp.Soc.run_for_instructions soc 200_000 in
  expect_exit reason Rv32.Csr.cause_store_fault;
  check_bool "frames were refilled" true
    (Vp.Sensor.frames_generated soc.Vp.Soc.sensor > 0);
  check_int "class unchanged" before (Vp.Sensor.data_tag soc.Vp.Soc.sensor)

(* Write a string to the UART; check it on the host side. *)
let test_uart_tx () =
  let soc, reason =
    run_program (fun p ->
        A.la p R.t0 "msg";
        A.li p R.t1 Vp.Soc.uart_base;
        A.label p "loop";
        A.lbu p R.t2 R.t0 0;
        A.beqz_l p R.t2 "done";
        A.sb p R.t2 R.t1 0;
        A.addi p R.t0 R.t0 1;
        A.j p "loop";
        A.label p "done";
        A.exit_ecall p ();
        A.label p "msg";
        A.asciz p "hello, vp!")
  in
  expect_exit reason 0;
  check_string "uart output" "hello, vp!" (Vp.Uart.tx_string soc.Vp.Soc.uart)

(* Read bytes from the UART rx FIFO (host-injected). *)
let test_uart_rx () =
  let policy = trivial_policy () in
  let soc = soc_of_policy policy in
  let p = A.create () in
  A.li p R.t1 Vp.Soc.uart_base;
  (* Read 3 bytes (assume available), sum them, exit. *)
  A.li p R.a0 0;
  A.li p R.t3 3;
  A.label p "rd";
  A.lbu p R.t0 R.t1 8 (* STATUS *);
  A.andi p R.t0 R.t0 1;
  A.beqz_l p R.t0 "rd";
  A.lbu p R.t2 R.t1 4 (* RXDATA *);
  A.add p R.a0 R.a0 R.t2;
  A.addi p R.t3 R.t3 (-1);
  A.bnez_l p R.t3 "rd";
  A.li p R.a7 93;
  A.ecall p;
  Vp.Soc.load_image soc (A.assemble p);
  Vp.Uart.push_rx soc.Vp.Soc.uart "\x01\x02\x03";
  let reason = Vp.Soc.run_for_instructions soc 10_000 in
  expect_exit reason 6

(* Timer interrupt: set mtimecmp, enable MTI, wfi, count in the handler. *)
let test_timer_interrupt () =
  let _, reason =
    run_program ~max_insns:200_000 (fun p ->
        (* trap handler *)
        A.j p "start";
        A.align p 4;
        A.label p "handler";
        (* stop the timer by setting mtimecmp far away *)
        A.li p R.t0 (Vp.Soc.clint_base + 0x4000);
        A.li p R.t1 0x7fffffff;
        A.sw p R.t1 R.t0 0;
        A.sw p R.t1 R.t0 4;
        A.li p R.a0 42;
        A.li p R.a7 93;
        A.ecall p;
        A.label p "start";
        A.la p R.t0 "handler";
        A.csrrw p R.zero 0x305 R.t0 (* mtvec *);
        (* mtimecmp = mtime + 10 ticks *)
        A.li p R.t0 (Vp.Soc.clint_base + 0xbff8);
        A.lw p R.t1 R.t0 0;
        A.addi p R.t1 R.t1 10;
        A.li p R.t0 (Vp.Soc.clint_base + 0x4000);
        A.sw p R.t1 R.t0 0;
        A.sw p R.zero R.t0 4;
        (* enable MTI + global interrupts *)
        A.li p R.t0 0x80 (* mie.MTIE *);
        A.csrrs p R.zero 0x304 R.t0;
        A.li p R.t0 0x8;
        A.csrrs p R.zero 0x300 R.t0 (* mstatus.MIE *);
        A.label p "idle";
        A.wfi p;
        A.j p "idle")
  in
  expect_exit reason 42

(* Sensor -> PLIC -> external interrupt -> claim. *)
let test_sensor_interrupt () =
  let policy = trivial_policy () in
  let soc = soc_of_policy ~sensor_period:(Sysc.Time.us 50) policy in
  let p = A.create () in
  A.j p "start";
  A.align p 4;
  A.label p "handler";
  (* claim the interrupt, store the source id, exit *)
  A.li p R.t0 (Vp.Soc.plic_base + 8);
  A.lw p R.a0 R.t0 0;
  A.li p R.a7 93;
  A.ecall p;
  A.label p "start";
  A.la p R.t0 "handler";
  A.csrrw p R.zero 0x305 R.t0;
  (* enable sensor source in PLIC *)
  A.li p R.t0 (Vp.Soc.plic_base + 4);
  A.li p R.t1 (1 lsl Vp.Soc.irq_sensor);
  A.sw p R.t1 R.t0 0;
  (* enable MEI + MIE *)
  A.li p R.t0 0x800;
  A.csrrs p R.zero 0x304 R.t0;
  A.li p R.t0 0x8;
  A.csrrs p R.zero 0x300 R.t0;
  A.label p "idle";
  A.wfi p;
  A.j p "idle";
  Vp.Soc.load_image soc (A.assemble p);
  let reason = Vp.Soc.run_for_instructions soc 100_000 in
  expect_exit reason Vp.Soc.irq_sensor

(* DMA copy: program the engine, poll busy, compare buffers. *)
let test_dma_copy () =
  let soc, reason =
    run_program ~max_insns:100_000 (fun p ->
        A.la p R.t0 "src";
        A.la p R.t1 "dst";
        A.li p R.t2 Vp.Soc.dma_base;
        A.sw p R.t0 R.t2 0x0;
        A.sw p R.t1 R.t2 0x4;
        A.li p R.t3 8;
        A.sw p R.t3 R.t2 0x8;
        A.li p R.t3 1;
        A.sw p R.t3 R.t2 0xc;
        A.label p "poll";
        A.lw p R.t3 R.t2 0xc;
        A.bnez_l p R.t3 "poll";
        (* compare first word *)
        A.lw p R.t4 R.t0 0;
        A.lw p R.t5 R.t1 0;
        A.bne_l p R.t4 R.t5 "fail";
        A.exit_ecall p ();
        A.label p "fail";
        A.exit_ecall p ~code:1 ();
        A.align p 4;
        A.label p "src";
        A.word p 0xdeadbeef;
        A.word p 0x01020304;
        A.label p "dst";
        A.space p 8)
  in
  expect_exit reason 0;
  let mem = soc.Vp.Soc.memory in
  ignore mem

(* AES peripheral: encrypt a block from firmware; verify against host AES. *)
let test_aes_peripheral () =
  let soc, reason =
    run_program ~max_insns:200_000 (fun p ->
        A.li p R.t0 Vp.Soc.aes_base;
        (* key = 00.01...0f, data = 00x16 *)
        A.la p R.t1 "key";
        A.li p R.t3 16;
        A.li p R.t4 0;
        A.label p "wk";
        A.add p R.t5 R.t1 R.t4;
        A.lbu p R.t2 R.t5 0;
        A.add p R.t5 R.t0 R.t4;
        A.sb p R.t2 R.t5 0;
        A.addi p R.t4 R.t4 1;
        A.blt_l p R.t4 R.t3 "wk";
        (* din stays zero: write zeros *)
        A.li p R.t4 0;
        A.label p "wd";
        A.add p R.t5 R.t0 R.t4;
        A.sb p R.zero R.t5 0x10;
        A.addi p R.t4 R.t4 1;
        A.blt_l p R.t4 R.t3 "wd";
        (* start, poll *)
        A.li p R.t2 1;
        A.sb p R.t2 R.t0 0x30;
        A.label p "poll";
        A.lbu p R.t2 R.t0 0x30;
        A.bnez_l p R.t2 "poll";
        (* read first ct byte *)
        A.lbu p R.a0 R.t0 0x20;
        A.li p R.a7 93;
        A.ecall p;
        A.label p "key";
        List.iter (fun i -> A.byte p i) (List.init 16 (fun i -> i)))
  in
  let key = String.init 16 Char.chr in
  let ct =
    Crypto.Aes128.encrypt_block (Crypto.Aes128.expand key) (String.make 16 '\000')
  in
  expect_exit reason (Char.code ct.[0]);
  ignore soc

(* CAN mailbox: firmware sends a frame; host model receives and replies. *)
let test_can_roundtrip () =
  let policy = trivial_policy () in
  let soc = soc_of_policy policy in
  let received = ref "" in
  Vp.Can.set_tx_callback soc.Vp.Soc.can (fun frame ->
      received := frame;
      Vp.Can.push_rx_frame soc.Vp.Soc.can "ACK\000\000\000\000\000");
  let p = A.create () in
  A.li p R.t0 Vp.Soc.can_base;
  (* send "PING" *)
  A.la p R.t1 "msg";
  A.lw p R.t2 R.t1 0;
  A.sw p R.t2 R.t0 0;
  A.sw p R.zero R.t0 4;
  A.li p R.t2 1;
  A.sb p R.t2 R.t0 8;
  (* wait for rx *)
  A.label p "poll";
  A.lbu p R.t2 R.t0 0x18;
  A.beqz_l p R.t2 "poll";
  A.lbu p R.a0 R.t0 0x10 (* 'A' *);
  A.li p R.a7 93;
  A.ecall p;
  A.label p "msg";
  A.ascii p "PING";
  A.word p 0;
  Vp.Soc.load_image soc (A.assemble p);
  let reason = Vp.Soc.run_for_instructions soc 50_000 in
  expect_exit reason (Char.code 'A');
  check_string "frame" "PING\000\000\000\000" !received


(* Interrupt priority: external is taken before software before timer. *)
let test_interrupt_priority () =
  let policy = trivial_policy () in
  let soc = soc_of_policy policy in
  let p = A.create () in
  A.j p "start";
  A.align p 4;
  A.label p "handler";
  A.csrrs p R.a0 0x342 R.zero (* mcause *);
  A.li p R.a7 93;
  A.ecall p;
  A.label p "start";
  A.la p R.t0 "handler";
  A.csrrw p R.zero 0x305 R.t0;
  (* Enable all three, then raise all three before enabling MIE. *)
  A.li p R.t0 0x888;
  A.csrrs p R.zero 0x304 R.t0;
  (* Raise MSIP via CLINT and MTIP by making mtimecmp = 0. *)
  A.li p R.t0 Vp.Soc.clint_base;
  A.li p R.t1 1;
  A.sw p R.t1 R.t0 0 (* msip *);
  A.li p R.t0 (Vp.Soc.clint_base + 0x4000);
  A.sw p R.zero R.t0 0;
  A.sw p R.zero R.t0 4 (* mtimecmp = 0 -> pending at once *);
  (* External: trigger the PLIC from firmware is not possible; use the
     sensor by enabling its source and waiting a frame? Simpler: MEI is
     raised host-side before MIE is set below, see after-load code. *)
  A.li p R.t0 0x8;
  A.csrrs p R.zero 0x300 R.t0 (* MIE on: all three pending *);
  A.label p "spin";
  A.j p "spin";
  Vp.Soc.load_image soc (A.assemble p);
  (* Raise the external line directly. *)
  Rv32.Core.set_irq soc.Vp.Soc.core ~bit:Rv32.Csr.bit_mei true;
  let reason = Vp.Soc.run_for_instructions soc 10_000 in
  (* cause = interrupt bit | 11 (external). *)
  (match reason with
  | Rv32.Core.Exited c ->
      check_int "external first" (0x80000000 lor 11) (c land 0xffffffff)
  | _ -> Alcotest.fail "no exit")

(* mstatus.MPIE/MIE save-restore across trap and mret. *)
let test_mstatus_trap_restore () =
  let _, reason =
    run_program (fun p ->
        A.j p "start";
        A.align p 4;
        A.label p "handler";
        (* Inside the handler MIE must be 0 and MPIE must hold the old MIE
           (1). Record mstatus, skip the ecall, return. *)
        A.csrrs p R.s2 0x300 R.zero;
        A.csrrs p R.t0 0x341 R.zero;
        A.addi p R.t0 R.t0 4;
        A.csrrw p R.zero 0x341 R.t0;
        A.mret p;
        A.label p "start";
        Firmware.Rt.setup_trap_handler p "handler";
        A.li p R.t0 0x8;
        A.csrrs p R.zero 0x300 R.t0 (* MIE = 1 *);
        A.li p R.a7 1;
        A.ecall p (* trap *);
        (* Back from mret: MIE must be restored to 1. *)
        A.csrrs p R.s3 0x300 R.zero;
        (* a0 = (handler saw MIE=0, MPIE=1) and (restored MIE=1) *)
        A.andi p R.t0 R.s2 0x8;
        A.snez p R.t0 R.t0 (* 1 if MIE was set in handler (bad) *);
        A.andi p R.t1 R.s2 0x80;
        A.snez p R.t1 R.t1 (* 1 if MPIE set in handler (good) *);
        A.andi p R.t2 R.s3 0x8;
        A.snez p R.t2 R.t2 (* 1 if MIE restored (good) *);
        (* encode: a0 = t0*100 + t1*10 + t2, expect 011 *)
        A.li p R.t3 100;
        A.mul p R.a0 R.t0 R.t3;
        A.li p R.t3 10;
        A.mul p R.t1 R.t1 R.t3;
        A.add p R.a0 R.a0 R.t1;
        A.add p R.a0 R.a0 R.t2;
        Firmware.Rt.exit_a0 p)
  in
  expect_exit reason 11

(* The whole platform still works with the DMI fast path disabled (every
   access routed through TLM). *)
let test_tlm_only_mode () =
  let policy = trivial_policy () in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking:true ~dmi:false () in
  let p = A.create () in
  A.li p R.a0 0;
  A.li p R.t0 1;
  A.li p R.t1 100;
  A.label p "loop";
  A.add p R.a0 R.a0 R.t0;
  A.addi p R.t0 R.t0 1;
  A.bge_l p R.t1 R.t0 "loop";
  A.li p R.a7 93;
  A.ecall p;
  Vp.Soc.load_image soc (A.assemble p);
  expect_exit (Vp.Soc.run_for_instructions soc 10_000) 5050

(* UART receive interrupt wakes a wfi loop: echo each byte, exit on NUL. *)
let test_uart_irq_echo () =
  let policy = trivial_policy () in
  let soc = soc_of_policy policy in
  let p = A.create () in
  A.j p "start";
  A.align p 4;
  A.label p "handler";
  A.li p R.t0 (Vp.Soc.plic_base + 8);
  A.lw p R.t1 R.t0 0 (* claim *);
  A.li p R.t2 Vp.Soc.uart_base;
  A.label p "drain";
  A.lbu p R.t3 R.t2 8;
  A.andi p R.t3 R.t3 1;
  A.beqz_l p R.t3 "h.done";
  A.lbu p R.t4 R.t2 4 (* rx byte *);
  A.beqz_l p R.t4 "h.exit";
  A.sb p R.t4 R.t2 0 (* echo *);
  A.j p "drain";
  A.label p "h.exit";
  A.exit_ecall p ();
  A.label p "h.done";
  A.sw p R.t1 R.t0 0;
  A.mret p;
  A.label p "start";
  Firmware.Rt.entry p ();
  Firmware.Rt.setup_trap_handler p "handler";
  A.li p R.t0 (Vp.Soc.plic_base + 4);
  A.li p R.t1 (1 lsl Vp.Soc.irq_uart);
  A.sw p R.t1 R.t0 0;
  (* Enable the UART rx interrupt in the device. *)
  A.li p R.t0 Vp.Soc.uart_base;
  A.li p R.t1 1;
  A.sb p R.t1 R.t0 0xc;
  Firmware.Rt.enable_machine_interrupts p ~mie_bits:0x800;
  A.label p "idle";
  A.wfi p;
  A.j p "idle";
  Vp.Soc.load_image soc (A.assemble p);
  Vp.Uart.push_rx soc.Vp.Soc.uart "echo!\000";
  let reason = Vp.Soc.run_for_instructions soc 100_000 in
  expect_exit reason 0;
  check_string "echoed" "echo!" (Vp.Uart.tx_string soc.Vp.Soc.uart)

(* GPIO scenario: a tamper switch drives a classified input pin; the
   firmware branches on it and reports over the UART. With the pin
   classified HC and a branch clearance of LC, the DIFT engine flags the
   implicit flow. With an LC pin the same firmware runs clean. *)
let gpio_firmware () =
  let p = A.create () in
  Firmware.Rt.entry p ();
  A.li p R.t0 Vp.Soc.gpio_base;
  A.lw p R.t1 R.t0 8 (* IN *);
  A.andi p R.t1 R.t1 1 (* pin 0 = tamper switch *);
  A.beqz_l p R.t1 "ok";
  A.li p R.t2 Vp.Soc.uart_base;
  A.li p R.t3 (Char.code 'T');
  A.sb p R.t3 R.t2 0;
  A.label p "ok";
  A.exit_ecall p ();
  A.assemble p

let gpio_soc ~tamper_tag =
  let lat = Dift.Lattice.confidentiality () in
  let lc = Dift.Lattice.tag_of_name lat "LC" in
  let policy =
    Dift.Policy.make ~lattice:lat ~default_tag:lc
      ~output_clearance:[ ("uart", lc) ]
      ~exec_branch:lc ()
  in
  let monitor = Dift.Monitor.create lat in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking:true () in
  Vp.Soc.load_image soc (gpio_firmware ());
  Vp.Gpio.drive_input soc.Vp.Soc.gpio ~pin:0
    ~tag:(Dift.Lattice.tag_of_name lat tamper_tag)
    true;
  soc

let test_gpio_tamper_classified () =
  let soc = gpio_soc ~tamper_tag:"HC" in
  match Vp.Soc.run_for_instructions soc 10_000 with
  | exception Dift.Violation.Violation v ->
      check_bool "branch on classified pin flagged" true
        (v.Dift.Violation.kind = Dift.Violation.Exec_branch)
  | _ -> Alcotest.fail "classified tamper pin must trip the branch check"

let test_gpio_tamper_public () =
  let soc = gpio_soc ~tamper_tag:"LC" in
  expect_exit (Vp.Soc.run_for_instructions soc 10_000) 0;
  check_string "tamper reported" "T" (Vp.Uart.tx_string soc.Vp.Soc.uart)

(* Creating a SoC costs the RAM's value and tag bytes (2 MiB, 262,144
   words) plus a bounded rest; the core's code caches grow with the pages
   the program runs, so no RAM-sized table may come back (with three of
   them, creation allocated about 1,051,000 words). *)
let test_create_allocation () =
  let policy = trivial_policy () in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let before = Gc.allocated_bytes () in
  let soc = Vp.Soc.create ~policy ~monitor () in
  let words = (Gc.allocated_bytes () -. before) /. float (Sys.word_size / 8) in
  ignore (Sys.opaque_identity soc);
  if words >= 400_000. then
    Alcotest.failf "Vp.Soc.create allocated %.0f words (bound 400,000)" words

let () =
  Alcotest.run "soc"

    [
      ( "integration",
        [
          Alcotest.test_case "sum loop" `Quick test_sum_loop;
          Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "uart tx" `Quick test_uart_tx;
          Alcotest.test_case "uart rx" `Quick test_uart_rx;
          Alcotest.test_case "timer interrupt" `Quick test_timer_interrupt;
          Alcotest.test_case "sensor interrupt" `Quick test_sensor_interrupt;
          Alcotest.test_case "sensor class outside the lattice" `Quick
            test_sensor_class_refused;
          Alcotest.test_case "dma copy" `Quick test_dma_copy;
          Alcotest.test_case "aes peripheral" `Quick test_aes_peripheral;
          Alcotest.test_case "can roundtrip" `Quick test_can_roundtrip;
          Alcotest.test_case "interrupt priority" `Quick test_interrupt_priority;
          Alcotest.test_case "mstatus trap save/restore" `Quick
            test_mstatus_trap_restore;
          Alcotest.test_case "TLM-only mode (no DMI)" `Quick test_tlm_only_mode;
          Alcotest.test_case "uart irq echo" `Quick test_uart_irq_echo;
          Alcotest.test_case "gpio tamper pin (classified)" `Quick
            test_gpio_tamper_classified;
          Alcotest.test_case "gpio tamper pin (public)" `Quick
            test_gpio_tamper_public;
          Alcotest.test_case "create allocates no RAM-sized cache" `Quick
            test_create_allocation;
        ] );
    ]
