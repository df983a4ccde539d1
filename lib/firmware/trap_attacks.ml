module A = Rv32_asm.Asm
module R = Rv32.Reg

type scenario = Mtvec_hijack | Irq_leak
type outcome = Detected | Missed of int

let scenarios = [ Mtvec_hijack; Irq_leak ]
let name = function Mtvec_hijack -> "mtvec-hijack" | Irq_leak -> "irq-leak"

let describe = function
  | Mtvec_hijack ->
      "trap-handler hijack: attacker-supplied bytes reach a csrw mtvec"
  | Irq_leak ->
      "interrupt-driven leak: an ISR on an unclaimed PLIC source drains a \
       classified sensor frame to the UART"

let exit_code = 99
let leak_bytes = 16 (* sensor bytes the Irq_leak ISR drains before exiting *)

(* --- mtvec hijack -------------------------------------------------------

   The firmware models a "flexible vector table": it installs a legitimate
   trap handler, then accepts a 4-byte little-endian word from the UART as
   an updated vector base and writes it to mtvec unvalidated. The
   attacker supplies the address of [gadget], so the very next service
   ecall runs attacker-chosen code in machine mode. The trap-steering
   clearance (policy [trap_csr]) catches the csrw itself: the word is
   UART-derived (LI) and may not choose where a machine-mode handler
   runs. *)

let build_hijack p =
  Rt.entry p ();
  Rt.setup_trap_handler p "handler";
  (* Read 4 bytes from the UART into t0 (LSB first). *)
  A.li p R.t1 Vp.Soc.uart_base;
  A.li p R.t0 0;
  A.li p R.t4 0;
  A.label p "rd.loop";
  A.lbu p R.t2 R.t1 8;
  A.andi p R.t2 R.t2 1;
  A.beqz_l p R.t2 "rd.loop";
  A.lbu p R.t3 R.t1 4;
  A.sll p R.t3 R.t3 R.t4;
  A.or_ p R.t0 R.t0 R.t3;
  A.addi p R.t4 R.t4 8;
  A.li p R.t2 32;
  A.bne_l p R.t4 R.t2 "rd.loop";
  (* The vulnerability: the attacker-controlled word becomes the trap
     vector. *)
  A.csrrw p R.zero Rv32.Csr.mtvec R.t0;
  (* Any subsequent service call now dispatches through the hijacked
     vector. *)
  A.li p R.a7 0;
  A.ecall p;
  Rt.exit_ p ~code:0 ();
  (* The legitimate handler: skip the trapping instruction. *)
  A.align p 4;
  A.label p "handler";
  A.csrrs p R.t6 Rv32.Csr.mepc 0;
  A.addi p R.t6 R.t6 4;
  A.csrrw p R.zero Rv32.Csr.mepc R.t6;
  A.mret p;
  (* The attacker's destination: observable effect ('P' on the UART) and
     a distinctive exit code. *)
  A.align p 4;
  A.label p "gadget";
  A.li p R.t0 Vp.Soc.uart_base;
  A.li p R.t1 (Char.code 'P');
  A.sb p R.t1 R.t0 0;
  Rt.exit_ p ~code:exit_code ();
  A.label p "gadget_end";
  A.nop p

let hijack_payload img =
  let a = Rv32_asm.Image.symbol img "gadget" in
  String.init 4 (fun i -> Char.chr ((a lsr (8 * i)) land 0xff))

let hijack_policy img =
  let lat = Dift.Lattice.integrity () in
  let hi = Dift.Lattice.tag_of_name lat "HI" in
  let li = Dift.Lattice.tag_of_name lat "LI" in
  Dift.Policy.make ~lattice:lat ~default_tag:li
    ~classification:
      [
        Dift.Policy.region ~name:"program" ~lo:img.Rv32_asm.Image.org
          ~hi:(Rv32_asm.Image.limit img - 1)
          ~tag:hi;
      ]
    ~trap_csr:hi ()

(* --- interrupt-driven leak ----------------------------------------------

   The firmware enables the sensor's PLIC source and idles in wfi. Its
   ISR is buggy twice over: it copies classified sensor bytes straight to
   the UART, and it never claims the interrupt — so the still-pending
   source re-enters the ISR immediately after every mret, draining the
   frame one byte per spurious interrupt without the main loop ever
   running. The output clearance on the UART catches the first byte. *)

let build_leak p =
  A.j p "_start";
  A.align p 4;
  A.label p "isr";
  (* No claim: the PLIC source stays pending across the mret. *)
  A.la p R.t0 "nleaked";
  A.lw p R.t1 R.t0 0;
  A.li p R.t2 Vp.Soc.sensor_base;
  A.add p R.t2 R.t2 R.t1;
  A.lbu p R.t3 R.t2 0;
  A.li p R.t4 Vp.Soc.uart_base;
  A.sb p R.t3 R.t4 0;
  A.addi p R.t1 R.t1 1;
  A.sw p R.t1 R.t0 0;
  A.li p R.t2 leak_bytes;
  A.blt_l p R.t1 R.t2 "isr.done";
  Rt.exit_ p ~code:exit_code ();
  A.label p "isr.done";
  A.mret p;
  Rt.entry p ();
  Rt.setup_trap_handler p "isr";
  A.li p R.t0 (Vp.Soc.plic_base + 4);
  A.li p R.t1 (1 lsl Vp.Soc.irq_sensor);
  A.sw p R.t1 R.t0 0;
  Rt.enable_machine_interrupts p ~mie_bits:Rv32.Csr.bit_mei;
  A.label p "idle";
  A.wfi p;
  A.j p "idle";
  A.align p 4;
  A.label p "nleaked";
  A.word p 0

let leak_policy () =
  let lat = Dift.Lattice.confidentiality () in
  let lc = Dift.Lattice.tag_of_name lat "LC" in
  Dift.Policy.make ~lattice:lat ~default_tag:lc
    ~output_clearance:[ ("uart", lc) ] ()

(* --- assembly / execution ------------------------------------------------ *)

let image scenario =
  let p = A.create () in
  (match scenario with
  | Mtvec_hijack -> build_hijack p
  | Irq_leak -> build_leak p);
  A.assemble p

let policy scenario img =
  match scenario with
  | Mtvec_hijack -> hijack_policy img
  | Irq_leak -> leak_policy ()

let payload scenario img =
  match scenario with
  | Mtvec_hijack -> Some (hijack_payload img)
  | Irq_leak -> None

let sensor_period = Sysc.Time.us 10

let run ?(tracking = true) ?tracer scenario =
  let img = image scenario in
  let pol = policy scenario img in
  let monitor = Dift.Monitor.create pol.Dift.Policy.lattice in
  let soc =
    Vp.Soc.create ~policy:pol ~monitor ~tracking ~sensor_period ?tracer ()
  in
  (match scenario with
  | Irq_leak ->
      Vp.Sensor.set_data_tag soc.Vp.Soc.sensor
        (Dift.Lattice.tag_of_name pol.Dift.Policy.lattice "HC")
  | Mtvec_hijack -> ());
  Vp.Soc.load_image soc img;
  (match payload scenario img with
  | Some bytes -> Vp.Uart.push_rx soc.Vp.Soc.uart bytes
  | None -> ());
  Rv32.Core.set_max_instructions soc.Vp.Soc.core 1_000_000;
  Vp.Soc.start soc;
  match Vp.Soc.run soc with
  | exception Dift.Violation.Violation _ -> Detected
  | () -> (
      match Rv32.Core.exit_reason soc.Vp.Soc.core with
      | Rv32.Core.Exited code -> Missed code
      | Rv32.Core.Running | Rv32.Core.Breakpoint | Rv32.Core.Insn_limit ->
          Missed (-1))
