(* Parity of the core's two execution paths: the block compiler (the
   default — each cached block compiled into a closure chain with a
   value-only variant, every block exit linked to its target's chain
   through an exit cache, jalr targets predicted) must be
   observationally identical to the single-step reference
   ([~block_cache:false]) — same exit reason, same retired-instruction
   count, byte-identical architectural state including every register's
   taint tag, and byte-identical full-platform snapshots.  Covers every
   rv32im opcode class, both as cold straight-line code and looped so
   its exits link; taint entering mid-block and mid-chain (fast variant
   -> guard -> full-chain fallback); SMC and DMA patches landing in
   compiled and linked code; polymorphic jalr demotion; a trap firing
   out of the middle of a chain; the Fatal_trap path when no handler is
   installed (mtvec = 0); and a snapshot saved on the reference and
   restored under the compiler.  The counter assertions pin that
   compiled chains, linked exits, chain transitions and jalr exit-cache
   hits/misses really happened, and that every crossing of a hot direct
   edge after the first runs through a linked exit. *)

open Helpers
module A = Rv32_asm.Asm
module R = Rv32.Reg

let reason_str = function
  | Rv32.Core.Running -> "running"
  | Rv32.Core.Exited c -> Printf.sprintf "exited %d" c
  | Rv32.Core.Breakpoint -> "breakpoint"
  | Rv32.Core.Insn_limit -> "insn limit"

(* [mode] is the monitor's; a Halt-mode violation stops the run where
   it fired, with the core still running and the violation recorded.
   [on_merge] becomes the core's merge hook. *)
let run_e ?(tracking = true) ?policy ?mode ?on_merge ?(seed = fun _ _ -> ())
    ?(max_insns = 500_000) ~block_cache build =
  let p = A.create () in
  build p;
  let img = A.assemble p in
  let policy =
    match policy with Some pol -> pol | None -> trivial_policy ()
  in
  let monitor = Dift.Monitor.create ?mode policy.Dift.Policy.lattice in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking ~block_cache () in
  Vp.Soc.load_image soc img;
  seed soc img;
  if on_merge <> None then Rv32.Core.set_merge_hook soc.Vp.Soc.core on_merge;
  let reason =
    try Vp.Soc.run_for_instructions soc max_insns
    with Dift.Violation.Violation _ -> Rv32.Core.exit_reason soc.Vp.Soc.core
  in
  (soc, reason)

let monitor soc = soc.Vp.Soc.env.Vp.Env.monitor

let violation_str lat v =
  Printf.sprintf "%s data=%d required=%d pc=%s: %s"
    (Dift.Violation.to_string lat v) v.Dift.Violation.data_tag
    v.Dift.Violation.required_tag
    (match v.Dift.Violation.pc with
    | Some pc -> Printf.sprintf "0x%08x" pc
    | None -> "-")
    v.Dift.Violation.detail

(* Run [build] on the reference and on the compiler and demand
   indistinguishable outcomes: exit reason, instret, all 32 registers
   and their tags, the full platform snapshot (registers, tags,
   CSRs, RAM contents and RAM tag planes, peripheral state, kernel
   time), the monitor's violations (kind, pc, tags, detail) and its
   declassification count. In Halt mode both runs must stop short on
   the same violation, at the same instret and pc. [on_merge block_cache] is each run's merge hook.
   Returns the compiled SoC for extra per-test assertions. *)
let check_engines ?tracking ?policy ?mode ?on_merge ?seed ?code ~name build =
  let run block_cache =
    run_e ?tracking ?policy ?mode
      ?on_merge:(Option.map (fun f -> f block_cache) on_merge)
      ?seed ~block_cache build
  in
  let soc_r, r_r = run false in
  let soc_c, r_c = run true in
  (match (r_r, r_c) with
  | Rv32.Core.Exited a, Rv32.Core.Exited b ->
      check_int (name ^ ": exit code agrees") a b;
      Option.iter (fun c -> check_int (name ^ ": expected exit code") c a) code
  | Rv32.Core.Running, Rv32.Core.Running when mode = Some Dift.Monitor.Halt ->
      ()
  | a, b ->
      Alcotest.failf "%s: reference %s, compiled %s" name (reason_str a)
        (reason_str b));
  check_int
    (name ^ ": instret agrees")
    (Rv32.Core.instret soc_r.Vp.Soc.core)
    (Rv32.Core.instret soc_c.Vp.Soc.core);
  for r = 0 to 31 do
    check_int
      (Printf.sprintf "%s: x%d value" name r)
      (Rv32.Core.get_reg soc_r.Vp.Soc.core r)
      (Rv32.Core.get_reg soc_c.Vp.Soc.core r);
    check_int
      (Printf.sprintf "%s: x%d tag" name r)
      (Rv32.Core.get_reg_tag soc_r.Vp.Soc.core r)
      (Rv32.Core.get_reg_tag soc_c.Vp.Soc.core r)
  done;
  check_int
    (name ^ ": pc agrees")
    (Rv32.Core.pc soc_r.Vp.Soc.core)
    (Rv32.Core.pc soc_c.Vp.Soc.core);
  (* A SoC stopped short by a violation cannot be saved. *)
  if Rv32.Core.halted soc_r.Vp.Soc.core then
    check_bool
      (name ^ ": full platform snapshot byte-identical")
      true
      (String.equal (Vp.Soc.save soc_r) (Vp.Soc.save soc_c));
  let mon_r = monitor soc_r and mon_c = monitor soc_c in
  let violations mon =
    List.map
      (violation_str (Dift.Monitor.lattice mon))
      (Dift.Monitor.violations mon)
  in
  Alcotest.(check (list string))
    (name ^ ": violations") (violations mon_r) (violations mon_c);
  check_int
    (name ^ ": declassifications")
    (Dift.Monitor.declassification_count mon_r)
    (Dift.Monitor.declassification_count mon_c);
  soc_c

let exit_with p reg =
  A.mv p R.a0 reg;
  A.li p R.a7 93;
  A.ecall p

(* --- opcode classes ------------------------------------------------------ *)

(* Integer register-immediate and register-register ops, lui/auipc,
   shift-amount masking with a negative register operand — straight-line
   code that runs once, so it retires from unlinked chains. *)
let alu_straight_prog p =
  A.lui p R.t0 0x12345000;
  A.auipc p R.t1 0;
  A.li p R.s0 0;
  let acc r = A.add p R.s0 R.s0 r in
  acc R.t0;
  acc R.t1;
  A.addi p R.t2 R.t0 (-273);
  acc R.t2;
  A.slti p R.t3 R.t2 (-1);
  acc R.t3;
  A.sltiu p R.t3 R.t2 (-1);
  acc R.t3;
  A.xori p R.t3 R.t2 0x4d2;
  acc R.t3;
  A.ori p R.t3 R.t2 0x2a;
  acc R.t3;
  A.andi p R.t3 R.t2 0x7ff;
  acc R.t3;
  A.slli p R.t3 R.t2 7;
  acc R.t3;
  A.srli p R.t3 R.t2 3;
  acc R.t3;
  A.srai p R.t3 R.t2 3;
  acc R.t3;
  A.li p R.t4 (-5);
  A.add p R.t3 R.t2 R.t4;
  acc R.t3;
  A.sub p R.t3 R.t2 R.t4;
  acc R.t3;
  A.sll p R.t3 R.t2 R.t4 (* shamt = -5 land 31 = 27 *);
  acc R.t3;
  A.srl p R.t3 R.t2 R.t4;
  acc R.t3;
  A.sra p R.t3 R.t2 R.t4;
  acc R.t3;
  A.slt p R.t3 R.t2 R.t4;
  acc R.t3;
  A.sltu p R.t3 R.t2 R.t4;
  acc R.t3;
  A.xor p R.t3 R.t2 R.t4;
  acc R.t3;
  A.or_ p R.t3 R.t2 R.t4;
  acc R.t3;
  A.and_ p R.t3 R.t2 R.t4;
  acc R.t3;
  A.andi p R.s0 R.s0 0x3f;
  exit_with p R.s0

(* A hot self-loop (the block's back-branch exit links to its own
   entry) plus a two-block loop whose first branch alternates every
   iteration, so its taken and fall-off exits both link. *)
let alu_loop_prog p =
  A.li p R.s0 0;
  A.li p R.s1 100;
  A.label p "spin";
  A.addi p R.s0 R.s0 1;
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "spin";
  A.li p R.s1 64;
  A.label p "loop";
  A.addi p R.s0 R.s0 3;
  A.xori p R.s0 R.s0 0x155;
  A.slli p R.t0 R.s0 2;
  A.srai p R.t1 R.t0 1;
  A.add p R.s0 R.s0 R.t1;
  A.lui p R.t2 0xffff000;
  A.xor p R.t3 R.s0 R.t2;
  A.sltu p R.t4 R.s0 R.t3;
  A.add p R.s0 R.s0 R.t4;
  A.andi p R.s0 R.s0 0x7ff;
  A.andi p R.t2 R.s1 1;
  A.beqz_l p R.t2 "even" (* alternates taken/not-taken *);
  A.addi p R.s0 R.s0 5;
  A.label p "even";
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "loop";
  A.andi p R.s0 R.s0 0x3f;
  exit_with p R.s0

let test_alu () = ignore (check_engines ~name:"alu" alu_straight_prog)

let test_alu_loop () =
  ignore (check_engines ~name:"alu (self-loop)" alu_loop_prog)

(* The M extension over a table of operand pairs that includes every edge
   case: division by zero, the overflow pair (-2^31, -1), mixed signs,
   and large unsigned values. *)
let muldiv_pairs =
  [
    (0, 0);
    (1, 0);
    (0x8000_0000, -1);
    (0x8000_0000, 1);
    (-1, -1);
    (7, -3);
    (-7, 3);
    (123456789, 1013);
    (0xdead_beef, 0xcafe);
    (3, 0x7fff_ffff);
  ]

(* The table walk, repeated [passes] times: one pass retires every edge
   case from chains linked only as the walk first crosses their exits,
   four passes retire them from chains entered through linked exits. *)
let muldiv_prog ~passes p =
  A.li p R.s3 passes;
  A.li p R.s0 0;
  A.label p "again";
  A.la p R.s1 "tab";
  A.li p R.s2 (List.length muldiv_pairs);
  A.label p "loop";
  A.lw p R.t0 R.s1 0;
  A.lw p R.t1 R.s1 4;
  let acc r = A.add p R.s0 R.s0 r in
  A.mul p R.t2 R.t0 R.t1;
  acc R.t2;
  A.mulh p R.t2 R.t0 R.t1;
  acc R.t2;
  A.mulhsu p R.t2 R.t0 R.t1;
  acc R.t2;
  A.mulhu p R.t2 R.t0 R.t1;
  acc R.t2;
  A.div p R.t2 R.t0 R.t1;
  acc R.t2;
  A.divu p R.t2 R.t0 R.t1;
  acc R.t2;
  A.rem p R.t2 R.t0 R.t1;
  acc R.t2;
  A.remu p R.t2 R.t0 R.t1;
  acc R.t2;
  A.addi p R.s1 R.s1 8;
  A.addi p R.s2 R.s2 (-1);
  A.bnez_l p R.s2 "loop";
  A.addi p R.s3 R.s3 (-1);
  A.bnez_l p R.s3 "again";
  A.andi p R.s0 R.s0 0x3f;
  exit_with p R.s0;
  A.align p 4;
  A.label p "tab";
  List.iter
    (fun (a, b) ->
      A.word p (a land 0xffff_ffff);
      A.word p (b land 0xffff_ffff))
    muldiv_pairs

let test_muldiv () =
  ignore (check_engines ~name:"muldiv" (muldiv_prog ~passes:1))

let test_muldiv_chain () =
  ignore (check_engines ~name:"muldiv in a chain" (muldiv_prog ~passes:4))

(* Loads and stores of every width with sign/zero extension, byte and
   halfword sub-word addressing, and read-back through a different
   width.  Self-checking: exits 0 on success. *)
let memory_straight_prog p =
  A.la p R.s1 "buf";
  (* sw then per-byte lb/lbu across the word *)
  A.li p R.t0 0x8042_ff7e;
  A.sw p R.t0 R.s1 0;
  A.lb p R.t1 R.s1 3 (* 0x80 -> -128 *);
  A.li p R.t2 (-128);
  A.bne_l p R.t1 R.t2 "fail";
  A.lbu p R.t1 R.s1 3;
  A.li p R.t2 0x80;
  A.bne_l p R.t1 R.t2 "fail";
  A.lb p R.t1 R.s1 1 (* 0xff -> -1 *);
  A.li p R.t2 (-1);
  A.bne_l p R.t1 R.t2 "fail";
  A.lbu p R.t1 R.s1 0 (* 0x7e *);
  A.li p R.t2 0x7e;
  A.bne_l p R.t1 R.t2 "fail";
  (* sh/lh/lhu on both halves *)
  A.li p R.t0 0xbeef;
  A.sh p R.t0 R.s1 4;
  A.li p R.t0 0x1234;
  A.sh p R.t0 R.s1 6;
  A.lh p R.t1 R.s1 4 (* 0xbeef -> negative *);
  A.li p R.t2 (0xbeef - 0x10000);
  A.bne_l p R.t1 R.t2 "fail";
  A.lhu p R.t1 R.s1 4;
  A.li p R.t2 0xbeef;
  A.bne_l p R.t1 R.t2 "fail";
  A.lw p R.t1 R.s1 4 (* halves reassembled *);
  A.li p R.t2 0x1234_beef;
  A.bne_l p R.t1 R.t2 "fail";
  (* sb overwrites one byte of a word *)
  A.li p R.t0 0x55;
  A.sb p R.t0 R.s1 5;
  A.lw p R.t1 R.s1 4;
  A.li p R.t2 0x1234_55ef;
  A.bne_l p R.t1 R.t2 "fail";
  (* negative offsets *)
  A.addi p R.s2 R.s1 8;
  A.lw p R.t1 R.s2 (-8);
  A.li p R.t2 0x8042_ff7e;
  A.bne_l p R.t1 R.t2 "fail";
  A.li p R.a0 0;
  A.li p R.a7 93;
  A.ecall p;
  A.label p "fail";
  A.li p R.a0 1;
  A.li p R.a7 93;
  A.ecall p;
  A.align p 4;
  A.label p "buf";
  A.space p 16

(* Every load/store width with sign/zero extension inside a hot loop, so
   the accesses run from a linked chain. *)
let memory_loop_prog p =
  A.la p R.s1 "buf";
  A.li p R.s2 40;
  A.li p R.s0 0;
  A.label p "loop";
  A.slli p R.t0 R.s2 8;
  A.xori p R.t0 R.t0 0x7e;
  A.sw p R.t0 R.s1 0;
  A.lb p R.t1 R.s1 1;
  A.add p R.s0 R.s0 R.t1;
  A.lbu p R.t1 R.s1 1;
  A.add p R.s0 R.s0 R.t1;
  A.sh p R.t0 R.s1 4;
  A.lh p R.t1 R.s1 4;
  A.add p R.s0 R.s0 R.t1;
  A.lhu p R.t1 R.s1 4;
  A.add p R.s0 R.s0 R.t1;
  A.sb p R.t0 R.s1 6;
  A.lw p R.t1 R.s1 4;
  A.add p R.s0 R.s0 R.t1;
  A.addi p R.s2 R.s2 (-1);
  A.bnez_l p R.s2 "loop";
  A.andi p R.s0 R.s0 0x3f;
  exit_with p R.s0;
  A.align p 4;
  A.label p "buf";
  A.space p 16

let test_memory () =
  ignore (check_engines ~name:"memory" ~code:0 memory_straight_prog)

let test_memory_chain () =
  ignore (check_engines ~name:"memory in a chain" memory_loop_prog)

(* Branches taken and not taken in both polarities, a nested loop,
   call/ret, jal with a dead link register, and jalr where rd aliases
   rs1. *)
let branch_prog p =
  A.li p R.s0 0;
  A.li p R.t0 5;
  A.li p R.t1 (-3);
  A.beq_l p R.t0 R.t1 "fail" (* not taken *);
  A.bne_l p R.t0 R.t0 "fail";
  A.blt_l p R.t0 R.t1 "fail" (* 5 < -3 signed: no *);
  A.bge_l p R.t1 R.t0 "fail";
  A.bltu_l p R.t1 R.t0 "fail" (* -3 unsigned is huge: no *);
  A.bgeu_l p R.t0 R.t1 "fail";
  A.blt_l p R.t1 R.t0 "b1" (* taken *);
  A.j p "fail";
  A.label p "b1";
  A.bltu_l p R.t0 R.t1 "b2" (* taken *);
  A.j p "fail";
  A.label p "b2";
  (* nested loop: s0 += 1 inner, outer 3 x inner 4 *)
  A.li p R.s1 3;
  A.label p "outer";
  A.li p R.s2 4;
  A.label p "inner";
  A.addi p R.s0 R.s0 1;
  A.addi p R.s2 R.s2 (-1);
  A.bnez_l p R.s2 "inner";
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "outer";
  (* call/ret and jalr with rd = rs1 *)
  A.call p "fn";
  A.la p R.t3 "fn2";
  A.jalr p R.t3 R.t3 0;
  A.li p R.t4 12;
  A.beq_l p R.s0 R.t4 "fail" (* loop + fn + fn2 = 14, not 12 *);
  A.li p R.t4 14;
  A.beq_l p R.s0 R.t4 "ok";
  A.label p "fail";
  A.li p R.a0 1;
  A.li p R.a7 93;
  A.ecall p;
  A.label p "ok";
  A.li p R.a0 0;
  A.li p R.a7 93;
  A.ecall p;
  A.label p "fn";
  A.addi p R.s0 R.s0 1;
  A.ret p;
  A.label p "fn2";
  A.addi p R.s0 R.s0 1;
  A.jalr p R.zero R.t3 0

let test_branches () =
  ignore (check_engines ~name:"branches" ~code:0 branch_prog)

(* CSR ops, a trap round-trip through a handler (ecall -> mcause/mepc
   read -> mret), and fence.  These retire through the step fallback —
   the test pins that blocks broken by them still chain correctly around
   the break. *)
let csr_prog p =
  A.la p R.t0 "handler";
  A.csrrw p R.zero Rv32.Csr.mtvec R.t0;
  A.li p R.t1 0xabc;
  A.csrrw p R.zero Rv32.Csr.mscratch R.t1;
  A.csrrs p R.s0 Rv32.Csr.mscratch R.zero (* s0 = 0xabc *);
  A.li p R.t2 0x041;
  A.csrrs p R.zero Rv32.Csr.mscratch R.t2 (* set bits *);
  A.csrrc p R.s1 Rv32.Csr.mscratch R.t1 (* s1 = 0xafd, clear 0xabc *);
  A.csrrwi p R.zero Rv32.Csr.mscratch 0x15;
  A.csrrsi p R.s2 Rv32.Csr.mscratch 0x0a (* s2 = 0x15 *);
  A.csrrci p R.s3 Rv32.Csr.mscratch 0x06 (* s3 = 0x1f *);
  A.fence p;
  (* trap round-trip: the handler records mcause in s4 and skips the
     ecall *)
  A.li p R.a7 1;
  A.ecall p;
  A.csrrs p R.s5 Rv32.Csr.mscratch R.zero (* survives the trap *);
  A.add p R.s0 R.s0 R.s1;
  A.add p R.s0 R.s0 R.s2;
  A.add p R.s0 R.s0 R.s3;
  A.add p R.s0 R.s0 R.s4;
  A.add p R.s0 R.s0 R.s5;
  A.andi p R.s0 R.s0 0x3f;
  exit_with p R.s0;
  A.label p "handler";
  A.csrrs p R.s4 Rv32.Csr.mcause R.zero;
  A.csrrs p R.t5 Rv32.Csr.mepc R.zero;
  A.addi p R.t5 R.t5 4;
  A.csrrw p R.zero Rv32.Csr.mepc R.t5;
  A.mret p

let test_csr () = ignore (check_engines ~name:"csr" csr_prog)

(* Tight call/return: the call-site block ends in a direct jal (chains),
   the callee ends in a monomorphic ret (inline cache). *)
let callret_prog p =
  A.li p R.s1 64;
  A.li p R.s0 0;
  A.label p "loop";
  A.call p "fn";
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "loop";
  A.andi p R.s0 R.s0 0x3f;
  exit_with p R.s0;
  A.label p "fn";
  A.addi p R.s0 R.s0 1;
  A.ret p

let test_callret () =
  ignore (check_engines ~name:"call/ret" ~code:0 callret_prog)

(* Table-driven indirect dispatch alternating between two handlers: the
   dispatch site's inline cache must demote (two distinct targets) while
   each handler's ret stays monomorphic. *)
let poly_prog p =
  A.li p R.s1 64;
  A.li p R.s0 0;
  A.li p R.s3 0;
  A.label p "loop";
  A.andi p R.t0 R.s3 1;
  A.slli p R.t0 R.t0 2;
  A.la p R.t1 "tab";
  A.add p R.t0 R.t0 R.t1;
  A.lw p R.t1 R.t0 0;
  A.jalr p R.ra R.t1 0;
  A.addi p R.s3 R.s3 1;
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "loop";
  A.andi p R.s0 R.s0 0x3f;
  exit_with p R.s0;
  A.label p "f0";
  A.addi p R.s0 R.s0 2;
  A.ret p;
  A.label p "f1";
  A.xori p R.s0 R.s0 0x3e7;
  A.ret p;
  A.align p 4;
  A.label p "tab";
  A.word_l p "f0";
  A.word_l p "f1"

let test_poly () = ignore (check_engines ~name:"polymorphic jalr" poly_prog)

(* --- trap out of the middle of a chain ----------------------------------- *)

(* Once the loop body is linked, every iteration traps via ecall from
   inside the chain, runs the handler, and mret's back — the retirement
   protocol at the trap boundary must leave identical state. *)
let trap_prog p =
  A.la p R.t0 "handler";
  A.csrrw p R.zero Rv32.Csr.mtvec R.t0;
  A.li p R.s1 32;
  A.li p R.s0 0;
  A.label p "loop";
  A.addi p R.s0 R.s0 1;
  A.xori p R.s0 R.s0 0x2a;
  A.li p R.a7 1;
  A.ecall p;
  A.add p R.s0 R.s0 R.s4;
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "loop";
  A.andi p R.s0 R.s0 0x3f;
  exit_with p R.s0;
  A.label p "handler";
  A.csrrs p R.s4 Rv32.Csr.mcause R.zero;
  A.csrrs p R.t5 Rv32.Csr.mepc R.zero;
  A.addi p R.t5 R.t5 4;
  A.csrrw p R.zero Rv32.Csr.mepc R.t5;
  A.mret p

let test_trap_mid_chain () =
  ignore (check_engines ~name:"trap mid-chain" trap_prog)

(* --- taint: mid-block / mid-chain entry on the fast variant -------------- *)

(* A confidentiality policy with no clearance checks: taint propagates
   but never traps. *)
let conf_policy () =
  let lat = Dift.Lattice.confidentiality () in
  let lc = Dift.Lattice.tag_of_name lat "LC" in
  Dift.Policy.make ~lattice:lat ~default_tag:lc ()

(* Each iteration runs one straight-line block that starts with clean
   ALU work (eligible for the value-only chain), then loads a secret
   word mid-block — the fast variant's guard must catch the non-bottom
   tag and fall back to the full chain for the rest of the block.  The
   tainted value is parked in memory and the registers are scrubbed
   before the back-branch, so every iteration a dispatcher round starts
   enters on the fast variant and exercises the fast -> guard ->
   fallback transition.  Once the full chain's back branch is linked to
   the loop's full entry, iterations run without a dispatcher round
   until the next sync quantum: 4 iterations run mostly from the
   dispatcher, 50 mostly through the linked exit. *)
let taint_prog ~iterations p =
  A.li p R.s2 iterations;
  A.li p R.s0 0;
  A.label p "loop";
  A.addi p R.s0 R.s0 3;
  A.xori p R.s0 R.s0 0x155;
  A.la p R.t2 "secret";
  A.lw p R.t3 R.t2 0 (* taint enters mid-block *);
  A.add p R.t4 R.t3 R.s0 (* tainted ALU result *);
  A.la p R.t5 "cell";
  A.sw p R.t4 R.t5 0 (* tainted store *);
  A.li p R.t3 0;
  A.li p R.t4 0 (* scrub: regs all-public again *);
  A.addi p R.s2 R.s2 (-1);
  A.bnez_l p R.s2 "loop";
  A.la p R.t5 "cell";
  A.lw p R.a1 R.t5 0 (* a1 must come back tainted *);
  A.andi p R.a0 R.s0 0x3f;
  A.li p R.a7 93;
  A.ecall p;
  A.align p 4;
  A.label p "secret";
  A.word p 0x5ec2e700;
  A.label p "cell";
  A.word p 0

(* [run_e] seed: classify the program's "secret" word as [tag]. *)
let seed_secret tag soc img =
  Vp.Soc.seed_taint soc ~origin:"secret"
    ~addr:(Rv32_asm.Image.symbol img "secret")
    ~len:4 tag

let check_taint ~name ~iterations =
  let policy = conf_policy () in
  let lat = policy.Dift.Policy.lattice in
  let hc = Dift.Lattice.tag_of_name lat "HC" in
  let lc = Dift.Lattice.tag_of_name lat "LC" in
  let soc =
    check_engines ~policy ~seed:(seed_secret hc) ~name (taint_prog ~iterations)
  in
  let tag r = Rv32.Core.get_reg_tag soc.Vp.Soc.core r in
  check_int "a1 tainted HC" hc (tag 11);
  check_int "s0 stays public" lc (tag 8);
  (* The specialized chains really ran before each fallback. *)
  check_bool "fast variant retired instructions" true
    (Rv32.Core.fast_retired soc.Vp.Soc.core > 0);
  soc

let test_taint_mid_block () =
  ignore (check_taint ~name:"taint mid-block" ~iterations:4)

let test_taint_mid_chain () =
  let soc = check_taint ~name:"taint mid-chain" ~iterations:50 in
  check_bool "exits were linked" true
    (Rv32.Core.superblocks_built soc.Vp.Soc.core > 0)

(* --- invalidation of compiled and linked chains -------------------------- *)

(* Store into the currently-executing block: the patched instruction is
   a few slots ahead in the same straight-line run and must execute in
   its patched form at the very next fetch. *)
let smc_in_block p =
  A.li p R.a0 0;
  A.la p R.t0 "site";
  A.la p R.t1 "newinsn";
  A.lw p R.t1 R.t1 0;
  A.sw p R.t1 R.t0 0;
  A.nop p;
  A.label p "site";
  A.addi p R.a0 R.a0 1;
  A.li p R.a7 93;
  A.ecall p;
  A.align p 4;
  A.label p "newinsn";
  (* addi a0, a0, 42 *)
  A.word p (Rv32.Encode.encode (Rv32.Insn.ADDI (R.a0, R.a0, 42)))

let test_smc_in_block () =
  ignore (check_engines ~name:"smc in-block" ~code:42 smc_in_block)

(* The loop runs hot (linked) for 20 iterations, then a store patches an
   instruction further down the same loop body: the already-linked chain
   must be flushed and the patched form must execute in the very
   iteration that wrote it.  20 x 1 + 20 x 3 = 80. *)
let smc_in_chain p =
  A.li p R.s1 40;
  A.li p R.s0 0;
  A.label p "loop";
  A.li p R.t2 20;
  A.bne_l p R.s1 R.t2 "nopatch";
  A.la p R.t0 "site";
  A.la p R.t1 "newinsn";
  A.lw p R.t1 R.t1 0;
  A.sw p R.t1 R.t0 0;
  A.label p "nopatch";
  A.label p "site";
  A.addi p R.s0 R.s0 1;
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "loop";
  exit_with p R.s0;
  A.align p 4;
  A.label p "newinsn";
  (* addi s0, s0, 3 *)
  A.word p (Rv32.Encode.encode (Rv32.Insn.ADDI (R.s0, R.s0, 3)))

let test_smc_in_chain () =
  ignore (check_engines ~name:"smc in-chain" ~code:80 smc_in_chain)

(* A compiled function is overwritten by a DMA transfer behind the CPU's
   back; the next call must run the patched code.  With [warm_calls] the
   callee first runs hot enough to be linked (each warm call returns 1). *)
let dma_into_code ~warm_calls p =
  A.li p R.s1 warm_calls;
  A.li p R.s0 0;
  A.label p "warm";
  A.call p "site_fn";
  A.add p R.s0 R.s0 R.a0;
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "warm";
  A.la p R.t0 "newinsn";
  A.la p R.t1 "site_fn";
  A.li p R.t2 Vp.Soc.dma_base;
  A.sw p R.t0 R.t2 0x0;
  A.sw p R.t1 R.t2 0x4;
  A.li p R.t3 4;
  A.sw p R.t3 R.t2 0x8;
  A.li p R.t3 1;
  A.sw p R.t3 R.t2 0xc;
  A.label p "poll";
  A.lw p R.t3 R.t2 0xc;
  A.bnez_l p R.t3 "poll";
  A.call p "site_fn";
  A.add p R.a0 R.a0 R.s0;
  A.li p R.a7 93;
  A.ecall p;
  A.label p "site_fn";
  A.addi p R.a0 R.zero 1;
  A.ret p;
  A.align p 4;
  A.label p "newinsn";
  (* addi a0, x0, 99 *)
  A.word p (Rv32.Encode.encode (Rv32.Insn.ADDI (R.a0, R.zero, 99)))

let test_dma_into_code () =
  ignore
    (check_engines ~name:"dma into code" ~code:100 (dma_into_code ~warm_calls:1))

let test_dma_into_chain () =
  ignore
    (check_engines ~name:"dma into chain" ~code:131
       (dma_into_code ~warm_calls:32))

(* --- Fatal_trap with mtvec = 0 ------------------------------------------- *)

(* With no handler installed a synchronous trap is fatal; both paths
   must report the identical (cause, pc, tval) triple at the identical
   instruction count — the pc in particular catches any stale [cur_pc]
   bookkeeping in compiled chains. *)
let run_fatal ~tracking ~block_cache build =
  let p = A.create () in
  build p;
  let img = A.assemble p in
  let policy = trivial_policy () in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking ~block_cache () in
  Vp.Soc.load_image soc img;
  match Vp.Soc.run_for_instructions soc 10_000 with
  | exception Rv32.Core.Fatal_trap { cause; pc; tval } ->
      (cause, pc, tval, Rv32.Core.instret soc.Vp.Soc.core)
  | r -> Alcotest.failf "expected Fatal_trap, got %s" (reason_str r)

let check_fatal ~name ~cause build =
  List.iter
    (fun tracking ->
      let c_r, pc_r, tv_r, n_r = run_fatal ~tracking ~block_cache:false build in
      let c_c, pc_c, tv_c, n_c = run_fatal ~tracking ~block_cache:true build in
      let ctx = Printf.sprintf "%s (tracking=%b)" name tracking in
      check_int (ctx ^ ": expected cause") cause c_r;
      check_int (ctx ^ ": cause agrees") c_r c_c;
      check_int (ctx ^ ": pc agrees") pc_r pc_c;
      check_int (ctx ^ ": tval agrees") tv_r tv_c;
      check_int (ctx ^ ": instret agrees") n_r n_c)
    [ false; true ]

let unmapped = 0x0000_0100

(* A little clean ALU work ahead of the faulting access keeps the fault
   inside a compiled chain rather than at its head. *)
let fatal_load p =
  A.li p R.t0 unmapped;
  A.addi p R.t1 R.t0 1;
  A.xor p R.t2 R.t1 R.t0;
  A.lw p R.t3 R.t0 0;
  A.nop p;
  exit_with p R.zero

let fatal_store p =
  A.li p R.t0 unmapped;
  A.addi p R.t1 R.t0 1;
  A.sw p R.t1 R.t0 0;
  A.nop p;
  exit_with p R.zero

let fatal_fetch p =
  A.li p R.t0 unmapped;
  A.addi p R.t1 R.zero 7;
  A.jalr p R.zero R.t0 0;
  exit_with p R.zero

let fatal_ecall p =
  A.li p R.a7 1;
  A.li p R.a0 2;
  A.ecall p;
  exit_with p R.zero

let fatal_illegal p =
  A.li p R.t0 3;
  A.addi p R.t1 R.t0 4;
  A.word p 0xffff_ffff;
  exit_with p R.zero

let test_fatal_load () =
  check_fatal ~name:"fatal load" ~cause:Rv32.Csr.cause_load_fault fatal_load

let test_fatal_store () =
  check_fatal ~name:"fatal store" ~cause:Rv32.Csr.cause_store_fault fatal_store

let test_fatal_fetch () = check_fatal ~name:"fatal fetch" ~cause:1 fatal_fetch

let test_fatal_ecall () =
  check_fatal ~name:"fatal ecall" ~cause:Rv32.Csr.cause_ecall_m fatal_ecall

let test_fatal_illegal () =
  check_fatal ~name:"fatal illegal" ~cause:Rv32.Csr.cause_illegal fatal_illegal

(* --- snapshot: reference save, compiled restore -------------------------- *)

(* A snapshot saved mid-run on the reference must restore into a
   compiled SoC and continue to exactly the state an uninterrupted
   compiled run reaches — and the second half must be long enough that
   chains are linked again after the restore. *)
let snapshot_prog p =
  A.li p R.s1 2000;
  A.li p R.s0 0;
  A.label p "loop";
  A.addi p R.s0 R.s0 7;
  A.xori p R.s0 R.s0 0x111;
  A.call p "fn";
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "loop";
  A.andi p R.s0 R.s0 0x3f;
  exit_with p R.s0;
  A.label p "fn";
  A.addi p R.s0 R.s0 1;
  A.ret p

let make_soc ~block_cache img =
  let policy = trivial_policy () in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking:true ~block_cache () in
  Vp.Soc.load_image soc img;
  soc

let test_restore_under_superblocks () =
  let p = A.create () in
  snapshot_prog p;
  let img = A.assemble p in
  (* Uninterrupted compiled run. *)
  let soc0 = make_soc ~block_cache:true img in
  Rv32.Core.set_max_instructions soc0.Vp.Soc.core 500_000;
  Vp.Soc.start soc0;
  Vp.Soc.run soc0;
  let final0 = Vp.Soc.save soc0 in
  let total = Rv32.Core.instret soc0.Vp.Soc.core in
  check_bool "run is long enough to split" true (total > 400);
  (* Save mid-run on the reference. *)
  let soc1 = make_soc ~block_cache:false img in
  Vp.Soc.pause_at soc1 (total / 2);
  Rv32.Core.set_max_instructions soc1.Vp.Soc.core 500_000;
  Vp.Soc.start soc1;
  Vp.Soc.run soc1;
  check_bool "paused mid-run on the reference" true (Vp.Soc.paused soc1);
  let mid = Vp.Soc.save soc1 in
  (* Restore into a compiled SoC and finish. *)
  let soc2 = make_soc ~block_cache:true img in
  Vp.Soc.restore soc2 mid;
  Rv32.Core.set_max_instructions soc2.Vp.Soc.core 500_000;
  Vp.Soc.start soc2;
  Vp.Soc.run soc2;
  check_bool "final snapshot matches the uninterrupted compiled run" true
    (String.equal final0 (Vp.Soc.save soc2));
  check_bool "exits linked after the restore" true
    (Rv32.Core.superblocks_built soc2.Vp.Soc.core > 0)

(* --- counters: the machinery actually fired ------------------------------ *)

(* The differential only means something if the compiled runs actually
   execute compiled chains: pin the counters on a loopy program. *)
let test_compiled_actually_runs () =
  let soc, reason = run_e ~block_cache:true (muldiv_prog ~passes:1) in
  (match reason with
  | Rv32.Core.Exited _ -> ()
  | r -> Alcotest.failf "muldiv compiled: %s" (reason_str r));
  check_bool "blocks built" true (Rv32.Core.blocks_built soc.Vp.Soc.core > 0);
  check_bool "fast chains retired" true
    (Rv32.Core.fast_retired soc.Vp.Soc.core > 0)

(* Call/return with a secret parked in an otherwise unused register
   (t6): after the prelude's load every dispatch sees a non-bottom
   register tag, so the loop runs on the full variant only. *)
let tainted_callret_prog p =
  A.la p R.t6 "secret";
  A.lw p R.t6 R.t6 0;
  callret_prog p;
  A.align p 4;
  A.label p "secret";
  A.word p 0x5ec2e700

let test_counters () =
  (* Hot call/return: direct exits link, chains run, the monomorphic ret
     hits its exit cache. *)
  let soc, reason = run_e ~block_cache:true callret_prog in
  (match reason with
  | Rv32.Core.Exited _ -> ()
  | r -> Alcotest.failf "callret compiled: %s" (reason_str r));
  let c = soc.Vp.Soc.core in
  check_bool "blocks built" true (Rv32.Core.blocks_built c > 0);
  check_bool "exits linked" true (Rv32.Core.superblocks_built c > 0);
  check_bool "chain transitions taken" true (Rv32.Core.chain_hits c > 0);
  check_bool "inline-cache hits" true (Rv32.Core.ic_hits c > 0);
  (* The same loop under taint: the full variant's ret hits its own
     inline cache, and only the prelude up to the tainted load (la = two
     instructions, then the lw) retires on the value-only variant. *)
  let policy = conf_policy () in
  let hc = Dift.Lattice.tag_of_name policy.Dift.Policy.lattice "HC" in
  let soc =
    check_engines ~policy ~seed:(seed_secret hc) ~code:0
      ~name:"tainted call/ret" tainted_callret_prog
  in
  let c = soc.Vp.Soc.core in
  check_int "t6 tainted HC" hc (Rv32.Core.get_reg_tag c R.t6);
  check_bool "full-variant inline-cache hits" true
    (Rv32.Core.ic_hits c > 0);
  check_int "fast variant stops at the taint" 3 (Rv32.Core.fast_retired c);
  (* Polymorphic dispatch: the rotating target site must keep missing
     (and stay demoted) without ever entering a stale chain. *)
  let soc, _ = run_e ~block_cache:true poly_prog in
  check_bool "inline-cache misses on the polymorphic site" true
    (Rv32.Core.ic_misses soc.Vp.Soc.core > 0);
  (* The reference builds, links and caches nothing. *)
  let soc, _ = run_e ~block_cache:false callret_prog in
  let c = soc.Vp.Soc.core in
  check_int "reference builds no blocks" 0 (Rv32.Core.blocks_built c);
  check_int "reference links no exits" 0
    (Rv32.Core.superblocks_built c);
  check_int "reference installs no inline caches" 0
    (Rv32.Core.ic_hits c + Rv32.Core.ic_misses c)

(* --- linked exits: every direct block exit skips the dispatcher ---------- *)

(* A two-block loop: [loop] ends in a jal to [mid], [mid] in the back
   branch, so each iteration crosses two direct exits. *)
let two_block_loop_prog p =
  A.li p R.s0 0;
  A.li p R.s1 10_000;
  A.label p "loop";
  A.addi p R.s0 R.s0 1;
  A.j p "mid";
  A.label p "done";
  A.andi p R.s0 R.s0 0x3f;
  exit_with p R.s0;
  A.label p "mid";
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "loop";
  A.j p "done"

(* A loop whose first branch alternates every iteration: the odd path
   falls off into a block that jumps on to [even], so iterations cross
   three and two direct exits in turn. *)
let alternating_loop_prog p =
  A.li p R.s0 0;
  A.li p R.s1 10_000;
  A.label p "loop";
  A.addi p R.s0 R.s0 3;
  A.andi p R.t0 R.s1 1;
  A.beqz_l p R.t0 "even";
  A.addi p R.s0 R.s0 5;
  A.j p "even";
  A.label p "even";
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "loop";
  A.andi p R.s0 R.s0 0x3f;
  exit_with p R.s0

(* Once both ends of an edge are compiled, every crossing goes through a
   linked exit: only the first crossings and the returns to the
   dispatcher at each sync quantum (one per 1,000 instructions) are
   missing from [chain_hits]. *)
let check_linked ~name ~min_hits build =
  let soc = check_engines ~name build in
  let hits = Rv32.Core.chain_hits soc.Vp.Soc.core in
  if hits < min_hits then
    Alcotest.failf "%s: %d chain hits, expected at least %d" name hits
      min_hits

let test_linked_two_block () =
  check_linked ~name:"two-block loop" ~min_hits:19_900 two_block_loop_prog

let test_linked_alternating () =
  check_linked ~name:"alternating branch" ~min_hits:24_500
    alternating_loop_prog

(* --- tag shapes: the compiled full variant vs the reference -------------- *)

(* The integrity lattice (HI below LI) with every execution clearance at
   HI, a store-integrity vault that requires HI, and an ecall gate that
   admits everything and declassifies it to HI. Data in "secret" and the
   code of "tfn" are classified LI, everything else HI. *)
let shapes_policy img =
  let lat = Dift.Lattice.integrity () in
  let hi = Dift.Lattice.tag_of_name lat "HI" in
  let li = Dift.Lattice.tag_of_name lat "LI" in
  let sym = Rv32_asm.Image.symbol img in
  let region name lo_label hi_label tag =
    Dift.Policy.region ~name ~lo:(sym lo_label) ~hi:(sym hi_label - 1) ~tag
  in
  Dift.Policy.make ~lattice:lat ~default_tag:hi
    ~classification:
      [ region "secret" "secret" "secret_end" li; region "tcode" "tfn" "tfn_end" li ]
    ~exec_fetch:hi ~exec_branch:hi ~exec_mem_addr:hi
    ~store_clearance:[ region "vault" "vault" "vault_end" hi ]
    ~ecall_gate:{ Dift.Policy.g_clearance = li; g_declass = hi }
    ()

(* Every tag shape of the full variant on tainted operands: lui/auipc,
   each op-imm, op and M-extension instruction, all six branches taken
   and not taken (one taken onto the next instruction), every load and
   store width, jal/jalr with a tainted target and with rd aliasing rs1,
   and writes to x0 from each shape that has an rd. Tainted branch
   conditions, addresses, vault stores and jump targets violate; the
   call into "tfn" fetches LI code, so its every fetch violates too; the
   ecall declassifies its tainted a0. Twelve iterations link the loop's
   exits.

   With [~pinned], t6 holds a tainted word from the first two
   instructions on, which join nothing: every dispatch then enters the
   full variant and the merge streams must agree entry for entry.
   Without it, every register is scrubbed before the back edge, so each
   iteration enters on the value-only variant and leaves for the full
   chain at the secret load, through the stubs that build that chain. *)
let shapes_prog ~pinned p =
  if pinned then begin
    A.lui_hi p R.t6 "secret";
    A.lw_lo p R.t6 R.t6 "secret"
  end;
  A.la p R.t0 "handler";
  A.csrrw p R.zero Rv32.Csr.mtvec R.t0;
  A.li p R.s10 0;
  A.li p R.s11 12;
  A.label p "loop";
  A.addi p R.s10 R.s10 1;
  A.la p R.s1 "secret";
  A.lw p R.s2 R.s1 0 (* tainted, 0x8ec2e7f0 *);
  A.lw p R.s3 R.s1 4 (* tainted zero *);
  (* itag *)
  A.lui p R.t0 0x12345000;
  A.auipc p R.t1 0;
  A.lui p R.zero 0x1000;
  (* tag1 *)
  A.li p R.s0 0;
  let acc r = A.xor p R.s0 R.s0 r in
  A.addi p R.t2 R.s2 7;
  acc R.t2;
  A.slti p R.t2 R.s2 (-1);
  acc R.t2;
  A.sltiu p R.t2 R.s2 (-1);
  acc R.t2;
  A.xori p R.t2 R.s2 0x4d2;
  acc R.t2;
  A.ori p R.t2 R.s2 0x2a;
  acc R.t2;
  A.andi p R.t2 R.s2 0x7ff;
  acc R.t2;
  A.slli p R.t2 R.s2 7;
  acc R.t2;
  A.srli p R.t2 R.s2 3;
  acc R.t2;
  A.srai p R.t2 R.s2 3;
  acc R.t2;
  A.addi p R.zero R.s2 1;
  (* tag2 *)
  List.iter
    (fun op ->
      op p R.t2 R.s2 R.t0;
      acc R.t2;
      op p R.t2 R.t0 R.t1;
      acc R.t2)
    [ A.add; A.sub; A.sll; A.slt; A.sltu; A.xor; A.srl; A.sra; A.or_;
      A.and_; A.mul; A.mulh; A.mulhsu; A.mulhu; A.div; A.divu; A.rem;
      A.remu ];
  A.add p R.zero R.s2 R.t0;
  A.mul p R.zero R.s2 R.s2;
  (* branches: not taken, then taken *)
  A.beq_l p R.s2 R.zero "fail";
  A.bne_l p R.s3 R.zero "fail";
  A.blt_l p R.t0 R.s3 "fail";
  A.bge_l p R.s3 R.t0 "fail";
  A.bltu_l p R.s2 R.s3 "fail";
  A.bgeu_l p R.s3 R.s2 "fail";
  A.beq_l p R.s3 R.zero "b1";
  A.j p "fail";
  A.label p "b1";
  A.bne_l p R.s2 R.zero "b2";
  A.j p "fail";
  A.label p "b2";
  A.blt_l p R.s2 R.s3 "b3" (* s2 is negative *);
  A.j p "fail";
  A.label p "b3";
  A.bge_l p R.t0 R.s3 "b4";
  A.j p "fail";
  A.label p "b4";
  A.bltu_l p R.s3 R.s2 "b5";
  A.j p "fail";
  A.label p "b5";
  A.bgeu_l p R.s2 R.t0 "b6" (* taken onto the next instruction *);
  A.label p "b6";
  A.beq_l p R.t0 R.t0 "b7" (* untainted: passes its check *);
  A.j p "fail";
  A.label p "b7";
  (* loads of every width, a tainted address, a clean load, rd = x0 *)
  A.lb p R.t2 R.s1 0;
  acc R.t2;
  A.lh p R.t2 R.s1 2;
  acc R.t2;
  A.lw p R.t2 R.s1 0;
  acc R.t2;
  A.lbu p R.t2 R.s1 3;
  acc R.t2;
  A.lhu p R.t2 R.s1 0;
  acc R.t2;
  A.add p R.t3 R.s1 R.s3;
  A.lw p R.t2 R.t3 0;
  acc R.t2;
  A.la p R.t4 "buf";
  A.lw p R.t2 R.t4 0;
  acc R.t2;
  A.lw p R.zero R.s1 0;
  (* stores of every width: tainted and clean data into the vault, a
     tainted address, tainted data into the unprotected buffer *)
  A.la p R.t4 "vault";
  A.sb p R.s2 R.t4 0;
  A.sh p R.s2 R.t4 2;
  A.sw p R.s2 R.t4 4;
  A.sw p R.t0 R.t4 8;
  A.add p R.t5 R.t4 R.s3;
  A.sw p R.t0 R.t5 12;
  A.la p R.t4 "buf";
  A.sb p R.s2 R.t4 1;
  A.sh p R.s2 R.t4 2;
  A.sw p R.s0 R.t4 4;
  (* jumps: call/ret, a tainted jalr target, rd aliasing rs1, jal and
     jalr with rd = x0 *)
  A.call p "fn";
  A.la p R.t3 "fn";
  A.add p R.t3 R.t3 R.s3;
  A.jalr p R.ra R.t3 0;
  A.la p R.t3 "fn2";
  A.jalr p R.t3 R.t3 0;
  A.j p "j1" (* onto the next instruction *);
  A.label p "j1";
  A.call p "tfn";
  (* a real ecall: the gate declassifies the tainted a0 *)
  A.mv p R.a0 R.s2;
  A.li p R.a7 1;
  A.ecall p;
  List.iter
    (fun r -> A.li p r 0)
    [ R.s0; R.s2; R.s3; R.t0; R.t1; R.t2; R.t3; R.t4; R.t5; R.a0; R.ra ];
  A.addi p R.s11 R.s11 (-1);
  A.bnez_l p R.s11 "loop";
  exit_with p R.s10;
  A.label p "fail";
  A.li p R.a0 1;
  A.li p R.a7 93;
  A.ecall p;
  A.label p "fn";
  A.addi p R.s0 R.s0 1;
  A.ret p;
  A.label p "fn2";
  A.addi p R.s0 R.s0 1;
  A.jalr p R.zero R.t3 0;
  A.label p "handler";
  A.csrrs p R.s9 Rv32.Csr.mepc R.zero;
  A.addi p R.s9 R.s9 4;
  A.csrrw p R.zero Rv32.Csr.mepc R.s9;
  A.mret p;
  (* LI code: every fetch fails the fetch clearance *)
  A.align p 4;
  A.label p "tfn";
  A.lui p R.t2 0x5000;
  A.addi p R.t2 R.t2 1;
  A.lw p R.t4 R.s1 0;
  A.sw p R.t2 R.s1 8;
  A.beq_l p R.t2 R.zero "tfn_end";
  A.ret p;
  A.label p "tfn_end";
  A.align p 4;
  A.label p "secret";
  A.word p 0x8ec2_e7f0;
  A.word p 0;
  A.word p 0;
  A.label p "secret_end";
  A.label p "buf";
  A.space p 16;
  A.label p "vault";
  A.space p 16;
  A.label p "vault_end"

let assemble build =
  let p = A.create () in
  build p;
  A.assemble p

(* {!check_engines} on [build] under {!shapes_policy}, plus the two
   merge-hook streams, which must agree. [elide_bottom] drops the
   bottom-with-bottom joins from both: the value-only variant runs only
   while every tag is bottom, and those are exactly the joins it
   compiles out. Returns the compiled SoC and its merge stream. *)
let check_shapes ?code ~name ~mode ~elide_bottom build =
  let policy = shapes_policy (assemble build) in
  let merges_r = ref [] and merges_c = ref [] in
  let on_merge block_cache a b r =
    let m = if block_cache then merges_c else merges_r in
    m := (a, b, r) :: !m
  in
  let soc = check_engines ~policy ~mode ~on_merge ?code ~name build in
  let bottom = Option.get (Dift.Lattice.bottom policy.Dift.Policy.lattice) in
  let stream merges =
    List.rev_map
      (fun (a, b, r) -> Printf.sprintf "%d+%d=%d" a b r)
      (List.filter
         (fun (a, b, r) ->
           not (elide_bottom && a = bottom && b = bottom && r = bottom))
         merges)
  in
  Alcotest.(check (list string))
    (name ^ ": merge-hook stream")
    (stream !merges_r) (stream !merges_c);
  (soc, !merges_c)

(* The run must have exercised what it claims: violations of every
   execution clearance and of the vault, declassifications, and joins
   that raised a tag. *)
let check_shapes_coverage ~name (soc, merges) =
  let mon = monitor soc in
  let kinds = List.map (fun v -> v.Dift.Violation.kind) (Dift.Monitor.violations mon) in
  List.iter
    (fun (what, kind) ->
      check_bool (Printf.sprintf "%s: %s violations" name what) true
        (List.mem kind kinds))
    [
      ("fetch", Dift.Violation.Exec_fetch);
      ("branch", Dift.Violation.Exec_branch);
      ("mem-addr", Dift.Violation.Exec_mem_addr);
      ("vault", Dift.Violation.Store_integrity "vault");
    ];
  check_int (name ^ ": one declassification per iteration") 12
    (Dift.Monitor.declassification_count mon);
  check_bool (name ^ ": joins raised tags") true
    (List.exists (fun (a, b, r) -> r <> a || r <> b) merges);
  check_bool (name ^ ": compiled chains ran") true
    (Rv32.Core.blocks_built soc.Vp.Soc.core > 0)

let test_shapes_pinned () =
  let ((soc, _) as c) =
    check_shapes ~name:"tag shapes (full variant only)" ~code:12
      ~mode:Dift.Monitor.Record ~elide_bottom:false (shapes_prog ~pinned:true)
  in
  check_shapes_coverage ~name:"tag shapes (full variant only)" c;
  (* The prelude's lui and load retire value-only; the load taints t6
     and leaves for the full chain, which runs everything else. *)
  check_int "only the prelude ran value-only" 2
    (Rv32.Core.fast_retired soc.Vp.Soc.core)

let test_shapes_fallback () =
  let ((soc, _) as c) =
    check_shapes ~name:"tag shapes (fast -> full fallback)" ~code:12
      ~mode:Dift.Monitor.Record ~elide_bottom:true (shapes_prog ~pinned:false)
  in
  check_shapes_coverage ~name:"tag shapes (fast -> full fallback)" c;
  check_bool "value-only chains ran before each fallback" true
    (Rv32.Core.fast_retired soc.Vp.Soc.core > 12)

(* Halt mode: the first violation (a tainted branch condition, inside a
   compiled block) stops both paths at the same instruction. *)
let test_shapes_halt () =
  let soc, _ =
    check_shapes ~name:"tag shapes (halt)" ~mode:Dift.Monitor.Halt
      ~elide_bottom:true (shapes_prog ~pinned:false)
  in
  match Dift.Monitor.violations (monitor soc) with
  | [ v ] ->
      check_bool "halted on the branch clearance" true
        (v.Dift.Violation.kind = Dift.Violation.Exec_branch)
  | vs ->
      Alcotest.failf "tag shapes (halt): %d violations, expected one"
        (List.length vs)

let () =
  Alcotest.run "parity"
    [
      ( "opcode classes",
        [
          Alcotest.test_case "alu" `Quick test_alu;
          Alcotest.test_case "alu in a hot loop" `Quick test_alu_loop;
          Alcotest.test_case "mul/div edge cases" `Quick test_muldiv;
          Alcotest.test_case "mul/div in a chain" `Quick test_muldiv_chain;
          Alcotest.test_case "loads/stores" `Quick test_memory;
          Alcotest.test_case "loads/stores in a chain" `Quick test_memory_chain;
          Alcotest.test_case "branches/jumps" `Quick test_branches;
          Alcotest.test_case "csr/trap/mret/fence" `Quick test_csr;
          Alcotest.test_case "call/ret (monomorphic jalr)" `Quick test_callret;
          Alcotest.test_case "polymorphic jalr dispatch" `Quick test_poly;
        ] );
      ( "traps",
        [
          Alcotest.test_case "trap out of a linked chain" `Quick
            test_trap_mid_chain;
        ] );
      ( "taint",
        [
          Alcotest.test_case "mid-block taint entry falls back" `Quick
            test_taint_mid_block;
          Alcotest.test_case "mid-chain taint entry" `Quick
            test_taint_mid_chain;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "smc within the compiled block" `Quick
            test_smc_in_block;
          Alcotest.test_case "dma into compiled code" `Quick test_dma_into_code;
          Alcotest.test_case "smc inside a linked chain" `Quick
            test_smc_in_chain;
          Alcotest.test_case "dma into a linked callee" `Quick
            test_dma_into_chain;
        ] );
      ( "fatal traps (mtvec=0)",
        [
          Alcotest.test_case "load fault" `Quick test_fatal_load;
          Alcotest.test_case "store fault" `Quick test_fatal_store;
          Alcotest.test_case "fetch fault" `Quick test_fatal_fetch;
          Alcotest.test_case "ecall without handler" `Quick test_fatal_ecall;
          Alcotest.test_case "illegal instruction" `Quick test_fatal_illegal;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "interp -> superblock restore" `Quick
            test_restore_under_superblocks;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "threaded runs compiled chains" `Quick
            test_compiled_actually_runs;
        ] );
      ( "counters",
        [
          Alcotest.test_case "superblock/chain/ic counters" `Quick
            test_counters;
        ] );
      ( "linked exits",
        [
          Alcotest.test_case "two-block loop" `Quick test_linked_two_block;
          Alcotest.test_case "alternating branch" `Quick
            test_linked_alternating;
        ] );
      ( "tag shapes",
        [
          Alcotest.test_case "full variant only" `Quick test_shapes_pinned;
          Alcotest.test_case "fast -> full fallback" `Quick
            test_shapes_fallback;
          Alcotest.test_case "halt mode" `Quick test_shapes_halt;
        ] );
    ]
