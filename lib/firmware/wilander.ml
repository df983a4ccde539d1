module A = Rv32_asm.Asm
module R = Rv32.Reg

type outcome = Detected | Missed of int | Not_applicable

type attack = {
  id : int;
  location : string;
  target : string;
  technique : string;
  applicable : bool;
  na_reason : string;
}

let reg_param = "the RISC-V calling convention passes this parameter in a register"
let reg_fp = "the RISC-V ABI keeps the frame pointer in a register here"
let layout = "the RISC-V port's segment layout places the target before the buffer"

let attacks =
  [
    { id = 1; location = "Stack"; target = "Function Pointer (param)";
      technique = "Direct"; applicable = false; na_reason = reg_param };
    { id = 2; location = "Stack"; target = "Longjmp Buffer (param)";
      technique = "Direct"; applicable = false; na_reason = reg_param };
    { id = 3; location = "Stack"; target = "Return Address";
      technique = "Direct"; applicable = true; na_reason = "" };
    { id = 4; location = "Stack"; target = "Base Pointer";
      technique = "Direct"; applicable = false; na_reason = reg_fp };
    { id = 5; location = "Stack"; target = "Function Pointer (local)";
      technique = "Direct"; applicable = true; na_reason = "" };
    { id = 6; location = "Stack"; target = "Longjmp Buffer";
      technique = "Direct"; applicable = true; na_reason = "" };
    { id = 7; location = "Heap/BSS/Data"; target = "Function Pointer";
      technique = "Direct"; applicable = true; na_reason = "" };
    { id = 8; location = "Heap/BSS/Data"; target = "Longjmp Buffer";
      technique = "Direct"; applicable = false; na_reason = layout };
    { id = 9; location = "Stack"; target = "Function Pointer (param)";
      technique = "Indirect"; applicable = true; na_reason = "" };
    { id = 10; location = "Stack"; target = "Longjump Buffer (param)";
      technique = "Indirect"; applicable = true; na_reason = "" };
    { id = 11; location = "Stack"; target = "Return Address";
      technique = "Indirect"; applicable = true; na_reason = "" };
    { id = 12; location = "Stack"; target = "Base Pointer";
      technique = "Indirect"; applicable = false; na_reason = reg_fp };
    { id = 13; location = "Stack"; target = "Function Pointer (local)";
      technique = "Indirect"; applicable = true; na_reason = "" };
    { id = 14; location = "Stack"; target = "Longjmp Buffer";
      technique = "Indirect"; applicable = true; na_reason = "" };
    { id = 15; location = "Heap/BSS/Data"; target = "Return Address";
      technique = "Indirect"; applicable = false; na_reason = layout };
    { id = 16; location = "Heap/BSS/Data"; target = "Base Pointer";
      technique = "Indirect"; applicable = false; na_reason = reg_fp };
    { id = 17; location = "Heap/BSS/Data"; target = "Function Pointer (local)";
      technique = "Indirect"; applicable = true; na_reason = "" };
    { id = 18; location = "Heap/BSS/Data"; target = "Longjmp Buffer";
      technique = "Indirect"; applicable = false; na_reason = layout };
  ]

let expected_detected = [ 3; 5; 6; 7; 9; 10; 11; 13; 14; 17 ]

let st = Rt.stack_top

(* --- shared emission helpers -------------------------------------------- *)

(* copy_input: drain all pending UART bytes to the address in a0 — the
   unbounded strcpy-style vulnerability. *)
let emit_copy_input p =
  A.label p "copy_input";
  A.li p R.t1 Vp.Soc.uart_base;
  A.label p "ci.loop";
  A.lbu p R.t2 R.t1 8;
  A.andi p R.t2 R.t2 1;
  A.beqz_l p R.t2 "ci.done";
  A.lbu p R.t3 R.t1 4;
  A.sb p R.t3 R.a0 0;
  A.addi p R.a0 R.a0 1;
  A.j p "ci.loop";
  A.label p "ci.done";
  A.ret p

(* The injected payload: prints 'P' and exits 7. Classified LI by the
   policy (standing in for code that arrived from outside). *)
let emit_attack_code p =
  A.align p 4;
  A.label p "attack_code";
  A.li p R.t0 Vp.Soc.uart_base;
  A.li p R.t1 (Char.code 'P');
  A.sb p R.t1 R.t0 0;
  Rt.exit_ p ~code:7 ();
  A.label p "attack_code_end";
  A.nop p

let emit_benign p =
  A.label p "benign";
  A.ret p

(* Minimal setjmp/longjmp: the jump buffer holds { ra; sp }. *)
let emit_setjmp_longjmp p =
  A.label p "setjmp";
  A.sw p R.ra R.a0 0;
  A.sw p R.sp R.a0 4;
  A.li p R.a0 0;
  A.ret p;
  A.label p "longjmp";
  A.lw p R.t0 R.a0 0;
  A.lw p R.sp R.a0 4;
  A.mv p R.a0 R.a1;
  A.jalr p R.zero R.t0 0

let addr_le a =
  String.init 4 (fun i -> Char.chr ((a lsr (8 * i)) land 0xff))

let filler n = String.make n 'A'

(* --- the ten applicable attack programs --------------------------------- *)

(* 3: stack / return address / direct.
   vuln frame (32 bytes, sp = st-32): buffer at 0, saved ra at 28. *)
let build_3 p =
  Rt.entry p ();
  A.call p "vuln";
  Rt.exit_ p ();
  A.label p "vuln";
  A.addi p R.sp R.sp (-32);
  A.sw p R.ra R.sp 28;
  A.mv p R.a0 R.sp;
  A.call p "copy_input";
  A.lw p R.ra R.sp 28;
  A.addi p R.sp R.sp 32;
  A.ret p;
  emit_copy_input p;
  emit_attack_code p

let payload_3 img = filler 28 ^ addr_le (Rv32_asm.Image.symbol img "attack_code")

(* 5: stack / local function pointer / direct.
   vuln frame (32): buffer 0..15, fnptr at 16, ra at 28. *)
let build_5 p =
  Rt.entry p ();
  A.call p "vuln";
  Rt.exit_ p ();
  A.label p "vuln";
  A.addi p R.sp R.sp (-32);
  A.sw p R.ra R.sp 28;
  A.la p R.t0 "benign";
  A.sw p R.t0 R.sp 16;
  A.mv p R.a0 R.sp;
  A.call p "copy_input";
  A.lw p R.t0 R.sp 16;
  A.jalr p R.ra R.t0 0;
  A.lw p R.ra R.sp 28;
  A.addi p R.sp R.sp 32;
  A.ret p;
  emit_copy_input p;
  emit_attack_code p;
  emit_benign p

let payload_5 img = filler 16 ^ addr_le (Rv32_asm.Image.symbol img "attack_code")

(* 6: stack / longjmp buffer / direct.
   vuln frame (48): buffer 0..15, jmp_buf at 16..23, ra at 44. *)
let build_6 p =
  Rt.entry p ();
  A.call p "vuln";
  Rt.exit_ p ();
  A.label p "vuln";
  A.addi p R.sp R.sp (-48);
  A.sw p R.ra R.sp 44;
  A.addi p R.a0 R.sp 16;
  A.call p "setjmp";
  A.bnez_l p R.a0 "vuln.out";
  A.mv p R.a0 R.sp;
  A.call p "copy_input";
  A.addi p R.a0 R.sp 16;
  A.li p R.a1 1;
  A.call p "longjmp";
  A.label p "vuln.out";
  A.lw p R.ra R.sp 44;
  A.addi p R.sp R.sp 48;
  A.ret p;
  emit_copy_input p;
  emit_attack_code p;
  emit_setjmp_longjmp p

let payload_6 img = filler 16 ^ addr_le (Rv32_asm.Image.symbol img "attack_code")

(* 7: BSS / function pointer / direct: static buffer adjacent to a static
   function pointer. *)
let build_7 p =
  Rt.entry p ();
  A.la p R.t0 "benign";
  A.la p R.t1 "gfnptr";
  A.sw p R.t0 R.t1 0;
  A.la p R.a0 "gbuf";
  A.call p "copy_input";
  A.la p R.t1 "gfnptr";
  A.lw p R.t0 R.t1 0;
  A.jalr p R.ra R.t0 0;
  Rt.exit_ p ();
  emit_copy_input p;
  emit_attack_code p;
  emit_benign p;
  A.align p 4;
  A.label p "gbuf";
  A.space p 16;
  A.label p "gfnptr";
  A.word p 0

let payload_7 img = filler 16 ^ addr_le (Rv32_asm.Image.symbol img "attack_code")

(* Indirect skeleton: vuln's frame holds buffer 0..15, a data pointer at
   16 and a value slot at 20; the overflow rewrites both, then the program
   performs [* ptr = value] — an arbitrary-write primitive. *)
let emit_vuln_indirect p ~frame ~after_write =
  A.label p "vuln";
  A.addi p R.sp R.sp (-frame);
  A.sw p R.ra R.sp (frame - 4);
  A.la p R.t0 "scratch";
  A.sw p R.t0 R.sp 16 (* benign initial pointer *);
  A.mv p R.a0 R.sp;
  A.call p "copy_input";
  A.lw p R.t0 R.sp 16;
  A.lw p R.t1 R.sp 20;
  A.sw p R.t1 R.t0 0 (* the indirect write *);
  after_write ();
  A.lw p R.ra R.sp (frame - 4);
  A.addi p R.sp R.sp frame;
  A.ret p

let indirect_payload ~target_addr img =
  filler 16 ^ addr_le target_addr
  ^ addr_le (Rv32_asm.Image.symbol img "attack_code")

(* 9: stack / function pointer (param) / indirect: main's local fnptr
   (passed by reference) is the write target.
   main frame (16, sp = st-16): fnptr at 12 => address st-4.
   vuln frame 32 below it. *)
let build_9 p =
  Rt.entry p ();
  A.addi p R.sp R.sp (-16);
  A.la p R.t0 "benign";
  A.sw p R.t0 R.sp 12;
  A.addi p R.a0 R.sp 12 (* &fnptr parameter *);
  A.call p "vuln";
  A.lw p R.t0 R.sp 12;
  A.jalr p R.ra R.t0 0;
  A.addi p R.sp R.sp 16;
  Rt.exit_ p ();
  emit_vuln_indirect p ~frame:32 ~after_write:(fun () -> ());
  emit_copy_input p;
  emit_attack_code p;
  emit_benign p;
  A.align p 4;
  A.label p "scratch";
  A.word p 0

let payload_9 = indirect_payload ~target_addr:(st - 4)

(* 10: stack / longjmp buffer (param) / indirect: main's jmp_buf at
   st-8..st-1, passed to vuln; the write corrupts jb.ra. *)
let build_10 p =
  Rt.entry p ();
  A.addi p R.sp R.sp (-16);
  A.addi p R.a0 R.sp 8;
  A.call p "setjmp";
  A.bnez_l p R.a0 "out";
  A.addi p R.a0 R.sp 8 (* &jb parameter *);
  A.call p "vuln";
  A.addi p R.a0 R.sp 8;
  A.li p R.a1 1;
  A.call p "longjmp";
  A.label p "out";
  A.addi p R.sp R.sp 16;
  Rt.exit_ p ();
  emit_vuln_indirect p ~frame:32 ~after_write:(fun () -> ());
  emit_copy_input p;
  emit_attack_code p;
  emit_setjmp_longjmp p;
  A.align p 4;
  A.label p "scratch";
  A.word p 0

let payload_10 = indirect_payload ~target_addr:(st - 8)

(* 11: stack / return address / indirect: the write targets vuln's own
   saved-ra slot (frame 32 at st-32, slot at st-4; main is frameless). *)
let build_11 p =
  Rt.entry p ();
  A.call p "vuln";
  Rt.exit_ p ();
  emit_vuln_indirect p ~frame:32 ~after_write:(fun () -> ());
  emit_copy_input p;
  emit_attack_code p;
  A.align p 4;
  A.label p "scratch";
  A.word p 0

let payload_11 = indirect_payload ~target_addr:(st - 4)

(* 13: stack / local function pointer / indirect: vuln frame 48 holds a
   local fnptr at 24 (address st-48+24 = st-24); call it after the write. *)
let build_13 p =
  Rt.entry p ();
  A.call p "vuln";
  Rt.exit_ p ();
  A.label p "vuln";
  A.addi p R.sp R.sp (-48);
  A.sw p R.ra R.sp 44;
  A.la p R.t0 "scratch";
  A.sw p R.t0 R.sp 16;
  A.la p R.t0 "benign";
  A.sw p R.t0 R.sp 24;
  A.mv p R.a0 R.sp;
  A.call p "copy_input";
  A.lw p R.t0 R.sp 16;
  A.lw p R.t1 R.sp 20;
  A.sw p R.t1 R.t0 0;
  A.lw p R.t0 R.sp 24;
  A.jalr p R.ra R.t0 0;
  A.lw p R.ra R.sp 44;
  A.addi p R.sp R.sp 48;
  A.ret p;
  emit_copy_input p;
  emit_attack_code p;
  emit_benign p;
  A.align p 4;
  A.label p "scratch";
  A.word p 0

let payload_13 = indirect_payload ~target_addr:(st - 24)

(* 14: stack / longjmp buffer / indirect: vuln frame 48 holds a jmp_buf at
   24..31 (jb.ra at st-24); longjmp after the write. *)
let build_14 p =
  Rt.entry p ();
  A.call p "vuln";
  Rt.exit_ p ();
  A.label p "vuln";
  A.addi p R.sp R.sp (-48);
  A.sw p R.ra R.sp 44;
  A.addi p R.a0 R.sp 24;
  A.call p "setjmp";
  A.bnez_l p R.a0 "vuln.out";
  A.la p R.t0 "scratch";
  A.sw p R.t0 R.sp 16;
  A.mv p R.a0 R.sp;
  A.call p "copy_input";
  A.lw p R.t0 R.sp 16;
  A.lw p R.t1 R.sp 20;
  A.sw p R.t1 R.t0 0;
  A.addi p R.a0 R.sp 24;
  A.li p R.a1 1;
  A.call p "longjmp";
  A.label p "vuln.out";
  A.lw p R.ra R.sp 44;
  A.addi p R.sp R.sp 48;
  A.ret p;
  emit_copy_input p;
  emit_attack_code p;
  emit_setjmp_longjmp p;
  A.align p 4;
  A.label p "scratch";
  A.word p 0

let payload_14 = indirect_payload ~target_addr:(st - 24)

(* 17: BSS / function pointer / indirect: the overflow rewrites a static
   pointer + value; the write targets a static fnptr elsewhere. *)
let build_17 p =
  Rt.entry p ();
  A.la p R.t0 "benign";
  A.la p R.t1 "gfnptr";
  A.sw p R.t0 R.t1 0;
  A.la p R.t0 "scratch";
  A.la p R.t1 "gptr";
  A.sw p R.t0 R.t1 0;
  A.la p R.a0 "gbuf";
  A.call p "copy_input";
  A.la p R.t2 "gptr";
  A.lw p R.t0 R.t2 0;
  A.lw p R.t1 R.t2 4 (* gval *);
  A.sw p R.t1 R.t0 0;
  A.la p R.t1 "gfnptr";
  A.lw p R.t0 R.t1 0;
  A.jalr p R.ra R.t0 0;
  Rt.exit_ p ();
  emit_copy_input p;
  emit_attack_code p;
  emit_benign p;
  A.align p 4;
  A.label p "gbuf";
  A.space p 16;
  A.label p "gptr";
  A.word p 0;
  A.label p "gval";
  A.word p 0;
  A.label p "gfnptr";
  A.word p 0;
  A.label p "scratch";
  A.word p 0

let payload_17 img =
  indirect_payload ~target_addr:(Rv32_asm.Image.symbol img "gfnptr") img

(* --- assembly / policy / execution --------------------------------------- *)

let builders =
  [ (3, build_3); (5, build_5); (6, build_6); (7, build_7); (9, build_9);
    (10, build_10); (11, build_11); (13, build_13); (14, build_14);
    (17, build_17) ]

let image_for id =
  match List.assoc_opt id builders with
  | None -> None
  | Some build ->
      let p = A.create () in
      build p;
      Some (A.assemble p)

let payload_for id img =
  match id with
  | 3 -> payload_3 img
  | 5 -> payload_5 img
  | 6 -> payload_6 img
  | 7 -> payload_7 img
  | 9 -> payload_9 img
  | 10 -> payload_10 img
  | 11 -> payload_11 img
  | 13 -> payload_13 img
  | 14 -> payload_14 img
  | 17 -> payload_17 img
  | _ -> invalid_arg "Wilander.payload_for: attack not applicable"

(* Section VI-B's code-injection policy: program HI, fetch clearance HI,
   external input LI, the payload function classified LI. *)
let policy img =
  let lat = Dift.Lattice.integrity () in
  let hi = Dift.Lattice.tag_of_name lat "HI" in
  let li = Dift.Lattice.tag_of_name lat "LI" in
  Dift.Policy.make ~lattice:lat ~default_tag:li
    ~classification:
      [
        Dift.Policy.region ~name:"attack-code"
          ~lo:(Rv32_asm.Image.symbol img "attack_code")
          ~hi:(Rv32_asm.Image.symbol img "attack_code_end" - 1)
          ~tag:li;
        Dift.Policy.region ~name:"program" ~lo:img.Rv32_asm.Image.org
          ~hi:(Rv32_asm.Image.limit img - 1)
          ~tag:hi;
      ]
    ~exec_fetch:hi ()

let run ?(tracking = true) ?tracer id =
  match image_for id with
  | None -> Not_applicable
  | Some img -> (
      let pol = policy img in
      let monitor = Dift.Monitor.create pol.Dift.Policy.lattice in
      let soc = Vp.Soc.create ~policy:pol ~monitor ~tracking ?tracer () in
      Vp.Soc.load_image soc img;
      Vp.Uart.push_rx soc.Vp.Soc.uart (payload_for id img);
      Rv32.Core.set_max_instructions soc.Vp.Soc.core 1_000_000;
      Vp.Soc.start soc;
      match Vp.Soc.run soc with
      | exception Dift.Violation.Violation _ -> Detected
      | () -> (
          match Rv32.Core.exit_reason soc.Vp.Soc.core with
          | Rv32.Core.Exited code -> Missed code
          | Rv32.Core.Running | Rv32.Core.Breakpoint | Rv32.Core.Insn_limit ->
              Missed (-1)))
