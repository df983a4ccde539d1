(** Trap-driven attack scenarios for the privilege architecture: two
    end-to-end case studies where the attack travels through the
    machine-trap machinery itself, and detection needs the
    privilege-boundary DIFT policies rather than a memory clearance.

    - {!Mtvec_hijack}: the firmware accepts an attacker-supplied word
      from the UART and installs it as the trap vector (a "flexible
      vector table update"). The next service ecall then runs the
      attacker's gadget in machine mode. The trap-steering clearance
      ({!Dift.Policy.t.trap_csr}) detects the tainted [csrw mtvec] at
      the write, before any trap is taken.
    - {!Irq_leak}: a doubly buggy ISR on the sensor's PLIC source copies
      classified frame bytes to the UART and never claims the interrupt,
      so the still-pending source re-enters the ISR after every mret and
      drains the frame without the main loop running. The UART output
      clearance detects the first classified byte.

    Both attacks genuinely land on the untracked VP (exit code
    {!exit_code}), proving the detections are not vacuous — same
    structure as the {!Wilander} suite. *)

type scenario = Mtvec_hijack | Irq_leak

type outcome =
  | Detected  (** The DIFT engine raised a violation. *)
  | Missed of int  (** The program ran to completion with this exit code. *)

val scenarios : scenario list
val name : scenario -> string
val describe : scenario -> string

val exit_code : int
(** Exit code of a successful (undetected) attack: 99. *)

val image : scenario -> Rv32_asm.Image.t

val policy : scenario -> Rv32_asm.Image.t -> Dift.Policy.t
(** {!Mtvec_hijack}: integrity lattice, program classified HI, UART input
    LI, [trap_csr] clearance HI. {!Irq_leak}: confidentiality lattice,
    everything LC except the sensor data (classified HC host-side by
    {!run}), UART output clearance LC. *)

val payload : scenario -> Rv32_asm.Image.t -> string option
(** The attacker's UART input: for {!Mtvec_hijack} the little-endian
    address of the gadget; [None] for {!Irq_leak} (the "input" is the
    sensor frame). *)

val run : ?tracking:bool -> ?tracer:Trace.Tracer.t -> scenario -> outcome
(** Execute the scenario on a fresh SoC (VP+ by default; [tracking:false]
    shows the attack landing). [tracer] must be built over a lattice
    structurally identical to {!policy}'s. *)
