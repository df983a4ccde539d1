exception Fatal_trap of { cause : int; pc : int; tval : int }

type exit_reason = Running | Exited of int | Breakpoint | Insn_limit

(* Architectural trap traffic, observable through {!set_trap_hook} (the SoC
   wires it into the tracer): one event per trap entry (synchronous
   exception or interrupt) and one per mret. *)
type trap_event =
  | Trap_enter of { cause : int; epc : int; tval : int; handler : int }
  | Trap_return of { target : int; to_priv : int }

(* Two execution paths: the single-step reference ({!step}, selected by
   [~block_cache:false]) and the superblock compiler, which compiles each
   cached block into closure chains (threaded code) with pre-resolved
   operands: a full variant with one closure per tag shape, built only
   when the block first needs it, and a value-only variant. It chains hot
   block pairs across their terminating branch into superblocks and
   inline-caches jalr targets. Both paths retire identical architectural
   state, tags, violations, counters and hook streams — pinned by
   test_parity and the difftest --cache-diff leg. *)

let mask32 v = v land 0xffffffff
let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* --- RV32IM value semantics ------------------------------------------ *)

(* The one definition of what each instruction computes. The reference
   {!execute} wraps it in tag propagation and clearance checks; the
   compiler's value-only variant calls it from its retirement shells.
   Register values are held masked to 32 bits, and so is every result. *)

(* The value lui, auipc, every op-imm, every op and every M-extension
   instruction writes to rd; [pc] is the instruction's own address. *)
let alu_value insn (regs : int array) pc =
  let open Insn in
  match insn with
  | LUI (_, imm) -> mask32 imm
  | AUIPC (_, imm) -> mask32 (pc + imm)
  | ADDI (_, rs1, imm) -> mask32 (regs.(rs1) + imm)
  | SLTI (_, rs1, imm) -> if signed regs.(rs1) < imm then 1 else 0
  | SLTIU (_, rs1, imm) -> if regs.(rs1) < mask32 imm then 1 else 0
  | XORI (_, rs1, imm) -> regs.(rs1) lxor mask32 imm
  | ORI (_, rs1, imm) -> regs.(rs1) lor mask32 imm
  | ANDI (_, rs1, imm) -> regs.(rs1) land mask32 imm
  | SLLI (_, rs1, sh) -> mask32 (regs.(rs1) lsl sh)
  | SRLI (_, rs1, sh) -> regs.(rs1) lsr sh
  | SRAI (_, rs1, sh) -> mask32 (signed regs.(rs1) asr sh)
  | ADD (_, a, b) -> mask32 (regs.(a) + regs.(b))
  | SUB (_, a, b) -> mask32 (regs.(a) - regs.(b))
  | SLL (_, a, b) -> mask32 (regs.(a) lsl (regs.(b) land 31))
  | SLT (_, a, b) -> if signed regs.(a) < signed regs.(b) then 1 else 0
  | SLTU (_, a, b) -> if regs.(a) < regs.(b) then 1 else 0
  | XOR (_, a, b) -> regs.(a) lxor regs.(b)
  | SRL (_, a, b) -> regs.(a) lsr (regs.(b) land 31)
  | SRA (_, a, b) -> mask32 (signed regs.(a) asr (regs.(b) land 31))
  | OR (_, a, b) -> regs.(a) lor regs.(b)
  | AND (_, a, b) -> regs.(a) land regs.(b)
  | MUL (_, a, b) ->
      (* Native ints wrap modulo 2^63, which keeps the low word exact. *)
      mask32 (regs.(a) * regs.(b))
  | MULH (_, a, b) | MULHSU (_, a, b) | MULHU (_, a, b) ->
      (* High word of the 64-bit product: mulh sign-extends both operands,
         mulhsu only rs1, mulhu neither. *)
      let x = match insn with MULHU _ -> regs.(a) | _ -> signed regs.(a)
      and y = match insn with MULH _ -> signed regs.(b) | _ -> regs.(b) in
      let p = Int64.mul (Int64.of_int x) (Int64.of_int y) in
      Int64.to_int (Int64.shift_right_logical p 32) land 0xffffffff
  | DIV (_, a, b) ->
      let x = signed regs.(a) and y = signed regs.(b) in
      mask32
        (if y = 0 then -1
         else if x = -0x80000000 && y = -1 then -0x80000000
         else
           (* OCaml division truncates toward zero, matching RISC-V. *)
           x / y)
  | DIVU (_, a, b) -> if regs.(b) = 0 then 0xffffffff else regs.(a) / regs.(b)
  | REM (_, a, b) ->
      let x = signed regs.(a) and y = signed regs.(b) in
      mask32
        (if y = 0 then x else if x = -0x80000000 && y = -1 then 0 else x mod y)
  | REMU (_, a, b) -> if regs.(b) = 0 then regs.(a) else regs.(a) mod regs.(b)
  | _ -> invalid_arg "alu_value: not a register-writing ALU instruction"

let branch_taken insn (regs : int array) =
  let open Insn in
  match insn with
  | BEQ (a, b, _) -> regs.(a) = regs.(b)
  | BNE (a, b, _) -> regs.(a) <> regs.(b)
  | BLT (a, b, _) -> signed regs.(a) < signed regs.(b)
  | BGE (a, b, _) -> signed regs.(a) >= signed regs.(b)
  | BLTU (a, b, _) -> regs.(a) < regs.(b)
  | BGEU (a, b, _) -> regs.(a) >= regs.(b)
  | _ -> invalid_arg "branch_taken: not a conditional branch"

(* Access width in bytes of a load or store. *)
let mem_width insn =
  let open Insn in
  match insn with
  | LB _ | LBU _ | SB _ -> 1
  | LH _ | LHU _ | SH _ -> 2
  | LW _ | SW _ -> 4
  | _ -> invalid_arg "mem_width: not a load or store"

(* Register value of a load that read the zero-extended [v]. *)
let load_extend insn v =
  match insn with
  | Insn.LB _ -> if v land 0x80 <> 0 then v lor 0xffffff00 else v
  | Insn.LH _ -> if v land 0x8000 <> 0 then v lor 0xffff0000 else v
  | _ -> v

(* --- Decoded basic blocks -------------------------------------------- *)

(* A run of instructions starting at [b_pc], fetched and decoded once.
   Control transfers (branches, jal, jalr) terminate a block and are its
   last instruction; system instructions (ecall, csr*, wfi, ...) are never
   cached — a block whose first instruction is one of those is stored as an
   empty marker so the dispatcher falls back to {!step} without re-probing.
   [b_tags] caches the fetch tag of each instruction word (tracking mode);
   [b_fast] is true when every cached word carries the lattice-bottom tag,
   a precondition of the untainted fast path. *)
type block = {
  b_pc : int;
  b_insns : Insn.t array;
  b_words : int array;
  b_tags : int array;
  b_fast : bool;
}

let max_block_insns = 32

(* The modelled cost of one instruction. *)
let cycle_time = Sysc.Time.ns 10

(* Block membership is classified next to the decoder. *)
let block_breaker insn = Decode.block_class insn = Decode.Breaker
let block_ender insn = Decode.block_class insn = Decode.Ender

(* A basic block compiled to threaded code (see [compile_block]): one
   closure per instruction with operands pre-resolved, chained
   tail-first so executing the block is a single indirect call.
   [cb_full] is the full-semantics variant (tag plumbing per the
   flavour; on a block that has [cb_fast], a stub that builds the chain
   when first entered); [cb_fast] is the untainted specialization with
   all tag code compiled out, present only for blocks whose every word
   carries the bottom tag on cores where the fast path is enabled. A
   breaker-led block is stored with [cb_n = 0] so the dispatcher falls
   back to {!step} without re-probing.

   Each chain also keeps the decoded source
   ([cb_blk], for recompiling the block chained into a hot successor),
   an exit-edge profile ([cb_edge_pc]/[cb_edge_n]: the last observed
   dispatcher-entry pc after this chain ran, and how many consecutive
   times it repeated), and the byte span the compiled code depends on
   ([cb_lo..cb_hi] — the block itself, widened to the convex hull of
   predecessor and successor once chained, so invalidation stays a
   range compare). *)
type cblock = {
  cb_pc : int;
  cb_n : int;
  cb_full : unit -> unit;
  cb_fast : (unit -> unit) option;
  cb_blk : block;
  cb_lo : int;
  cb_hi : int;
  mutable cb_edge_pc : int;
  mutable cb_edge_n : int;
  mutable cb_linked : bool;
}

(* Inline cache for a compiled jalr site: predicted target pc plus the
   direct chain entry for it. [ic_pc] is -1 while empty and -2 once
   demoted (two distinct targets were observed — the site is
   polymorphic and keeps paying the dispatcher). A cached entry is
   trusted only while no flush epoch has passed since it was installed;
   epoch bumps (SMC/DMA writes, set_trace, privilege changes, snapshot
   restore) invalidate every cache at once. *)
type ic = {
  mutable ic_pc : int;
  mutable ic_epoch : int;
  mutable ic_entry : unit -> unit;
}

(* One 4 KiB page of the code cache over the DMI region, indexed by word
   offset within the page: the last word decoded there and its decoding
   ([p_words]/[p_insns], validated by comparing the word, so
   self-modifying code re-decodes), and the compiled chain starting at
   that word ([p_blocks]). *)
type page = {
  p_words : int array;
  p_insns : Insn.t array;
  p_blocks : cblock option array;
}

let page_bits = 10  (* words per page, log2 *)
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

(* Every directory slot starts as this shared sentinel; lookups test it
   by physical equality, so a miss boxes nothing. *)
let no_page = { p_words = [||]; p_insns = [||]; p_blocks = [||] }

type t = {
  kernel : Sysc.Kernel.t;
  bus : Bus_if.t;
  tracking : bool;  (* VP+ or the plain VP, as the bus was created *)
  policy : Dift.Policy.t;
  monitor : Dift.Monitor.t;
  lat : Dift.Lattice.t;
  (* The lattice's flat tables ([x * ntags + y]) and the monitor's check
     cell, cached so the per-instruction joins, clearance tests and check
     counts are reads and an increment, not calls into [Dift]. *)
  lub_tab : int array;
  flow_tab : bool array;
  ntags : int;
  checks : int ref;
  regs : int array;
  rtags : int array;
  mutable pc : int;
  mutable cur_pc : int;  (* pc of the instruction in flight *)
  mutable insn_word : int;
  mutable insn_tag : int;
  csrf : Csr.t;
  mutable priv : int;  (* current privilege: Csr.priv_m or Csr.priv_u *)
  pub : int;  (* lattice bottom: tag of constants / x0 *)
  fetch_req : int option;
  branch_req : int option;
  mem_addr_req : int option;
  has_store_clearance : bool;
  strict_align : bool;  (* misaligned data accesses fault (cause 4 / 6) *)
  (* Page directory over the DMI (RAM) region, one slot per 4 KiB page,
     each [no_page] until code on it is first decoded: a program pays for
     the pages it runs, not for the RAM. Decode entries serve the
     single-step path and block building. Block entries, unlike decode
     entries, are NOT self-validating: stores into cached code must call
     {!flush_code} (wired from Bus_if and the SoC memory model). *)
  pages : page array;  (* [||] if no DMI region *)
  dmi_base : int;
  dmi_limit : int;
  dmi_words : int;  (* word slots covered by [pages]; 0 without DMI *)
  use_blocks : bool;
  mutable code_lo : int;  (* byte range ever covered by built blocks *)
  mutable code_hi : int;
  mutable flush_epoch : int;
  (* [flush_epoch] at entry of the currently running compiled chain;
     compiled instructions stop the chain when the two diverge. *)
  mutable chain_epoch : int;
  (* Whether the compiler may emit the value-only variant of a block.
     On tracked cores it is the untainted fast path: entered only while
     every register tag and every fetched word's tag is bottom, and only
     when bottom passes every clearance the variant leaves out. On
     untracked cores there are no tags anywhere, so the variant is exact
     semantics, not an optimistic gamble: it needs no per-entry tag
     precondition and never falls back. *)
  fast_spec : bool;
  (* Superblock chaining: [prev_cb] is the chain that ran in the
     previous scheduling round (exit-edge profiling), [sblocks] the
     registry of slots currently holding a recompiled superblock — their
     spans cover two blocks, so invalidation scans the registry in
     addition to the positional window. *)
  mutable prev_cb : cblock option;
  mutable sblocks : (int * cblock) list;
  mutable n_blocks : int;
  mutable n_superblocks : int;
  mutable n_chain : int;
  mutable n_ic_hits : int;
  mutable n_ic_miss : int;
  mutable n_fast : int;
  irq_event : Sysc.Kernel.event;
  (* Time sync goes through a named event (not [wait_for]) so that a
     paused core's pending wakeup is serialisable: at a sync boundary the
     kernel's only CPU-related state is one pending notification on
     [sync_event]. [syncing] is true while the thread is parked on it. *)
  sync_event : Sysc.Kernel.event;
  mutable syncing : bool;
  mutable pause_at : int;  (* pause at the first sync with instret >= this *)
  mutable paused : bool;
  quantum : int;
  mutable local_cycles : int;
  mutable instret : int;
  mutable max_insns : int;
  mutable in_wfi : bool;
  mutable exit_reason : exit_reason;
  mutable trace : (int -> int -> Insn.t -> int -> unit) option;
  mutable on_merge : (int -> int -> int -> unit) option;
  (* Read dynamically by enter_trap / mret (never from compiled chains:
     trap instructions are breakers), so installing it needs no flush. *)
  mutable on_trap : (trap_event -> unit) option;
}

(* The page holding DMI word [idx], allocated on first use. *)
let page_at t idx =
  let n = idx lsr page_bits in
  let p = Array.unsafe_get t.pages n in
  if p != no_page then p
  else begin
    let p =
      {
        p_words = Array.make page_words (-1);
        p_insns = Array.make page_words (Insn.ILLEGAL 0);
        p_blocks = Array.make page_words None;
      }
    in
    Array.unsafe_set t.pages n p;
    p
  end

(* Block slot of DMI word [idx] (a global word index, [< dmi_words]). *)
let[@inline] slot_get t idx =
  let p = Array.unsafe_get t.pages (idx lsr page_bits) in
  if p == no_page then None else Array.unsafe_get p.p_blocks (idx land page_mask)

let slot_set t idx cb =
  Array.unsafe_set (page_at t idx).p_blocks (idx land page_mask) cb

(* Invalidate every cached block overlapping [addr .. addr+len-1] (the
   caller already wrote the bytes). Cheap when the write is outside any
   code executed so far: one range compare. Otherwise the positional
   window is walked page by page, jumping over pages that were never
   allocated, so a full-RAM flush (snapshot restore, warm start) costs
   the pages the program used. *)
let flush_code t ~addr ~len =
  if
    len > 0 && t.use_blocks
    && addr <= t.code_hi
    && addr + len - 1 >= t.code_lo
  then begin
    t.flush_epoch <- t.flush_epoch + 1;
    let last = addr + len - 1 in
    (* A block starting up to max_block_insns-1 words earlier can still
       cover [addr]. *)
    let lo = max t.dmi_base (addr - ((max_block_insns - 1) * 4)) in
    let hi = min last t.dmi_limit in
    if lo <= hi then begin
      let i0 = (lo - t.dmi_base) lsr 2 and i1 = (hi - t.dmi_base) lsr 2 in
      for n = i0 lsr page_bits to i1 lsr page_bits do
        let p = Array.unsafe_get t.pages n in
        if p != no_page then
          for i = max i0 (n lsl page_bits)
              to min i1 ((n lsl page_bits) lor page_mask) do
            let j = i land page_mask in
            match Array.unsafe_get p.p_blocks j with
            | Some cb ->
                if cb.cb_hi >= addr then Array.unsafe_set p.p_blocks j None
            | None -> ()
          done
      done
    end;
    (* Superblocks span two blocks, so the slot may sit outside the
       positional window above; their registry is scanned by span.
       Entries whose slot no longer holds them (already flushed, or
       replaced) are dropped along the way. *)
    if t.sblocks <> [] then
      t.sblocks <-
        List.filter
          (fun (i, cb) ->
            match slot_get t i with
            | Some cur when cur == cb ->
                if cb.cb_hi >= addr && cb.cb_lo <= last then begin
                  slot_set t i None;
                  false
                end
                else true
            | _ -> false)
          t.sblocks
  end

let create ~kernel ~bus ~policy ~monitor ?(quantum = 1000) ?(block_cache = true)
    ?(strict_align = false) ~pc () =
  let dmi_base, dmi_limit, dmi_words =
    match Bus_if.dmi_range bus with
    | Some (base, limit) -> (base, limit, ((limit - base) / 4) + 1)
    | None -> (0, -1, 0)
  in
  let lat = policy.Dift.Policy.lattice in
  let pub =
    match Dift.Lattice.bottom lat with
    | Some b -> b
    | None -> policy.Dift.Policy.default_tag
  in
  let use_blocks = block_cache && dmi_words > 0 in
  (* The fast path is sound only if the bottom tag passes every check the
     value-only variant leaves out: the execution clearances and all
     store-integrity regions. Policies where bottom itself is not cleared
     (so every instruction would violate) simply never take it. *)
  let pub_flows_to = function
    | Some req -> Dift.Lattice.allowed_flow lat pub req
    | None -> true
  in
  let tracking = Bus_if.tracking bus in
  let fast_spec =
    use_blocks
    && ((not tracking)
       || pub_flows_to policy.Dift.Policy.exec_fetch
          && pub_flows_to policy.Dift.Policy.exec_branch
          && pub_flows_to policy.Dift.Policy.exec_mem_addr
          && List.for_all
               (fun r -> Dift.Lattice.allowed_flow lat pub r.Dift.Policy.r_tag)
               policy.Dift.Policy.store_clearance)
  in
  let t =
    {
      kernel;
      bus;
      tracking;
      policy;
      monitor;
      lat;
      lub_tab = Dift.Lattice.lub_flat lat;
      flow_tab = Dift.Lattice.flow_flat lat;
      ntags = Dift.Lattice.size lat;
      checks = Dift.Monitor.check_cell monitor;
      regs = Array.make 32 0;
      rtags = Array.make 32 pub;
      pc;
      cur_pc = pc;
      insn_word = 0;
      insn_tag = pub;
      csrf = Csr.create ~default_tag:pub;
      priv = Csr.priv_m;
      pub;
      fetch_req = policy.Dift.Policy.exec_fetch;
      branch_req = policy.Dift.Policy.exec_branch;
      mem_addr_req = policy.Dift.Policy.exec_mem_addr;
      has_store_clearance = policy.Dift.Policy.store_clearance <> [];
      strict_align;
      pages = Array.make ((dmi_words + page_mask) lsr page_bits) no_page;
      dmi_base;
      dmi_limit;
      dmi_words;
      use_blocks;
      code_lo = max_int;
      code_hi = min_int;
      flush_epoch = 0;
      chain_epoch = 0;
      fast_spec;
      prev_cb = None;
      sblocks = [];
      n_blocks = 0;
      n_superblocks = 0;
      n_chain = 0;
      n_ic_hits = 0;
      n_ic_miss = 0;
      n_fast = 0;
      irq_event = Sysc.Kernel.create_event kernel "cpu.irq";
      sync_event = Sysc.Kernel.create_event kernel "cpu.sync";
      syncing = false;
      pause_at = max_int;
      paused = false;
      quantum;
      local_cycles = 0;
      instret = 0;
      max_insns = max_int;
      in_wfi = false;
      exit_reason = Running;
      trace = None;
      on_merge = None;
      on_trap = None;
    }
  in
  if t.use_blocks then
    Bus_if.set_code_write_hook bus (fun addr len -> flush_code t ~addr ~len);
  t

let pc t = t.pc
let set_pc t v = t.pc <- mask32 v
let get_reg t r = t.regs.(r)
let get_reg_tag t r = t.rtags.(r)

let set_reg_tagged t r v tag =
  if r <> 0 then begin
    t.regs.(r) <- mask32 v;
    if t.tracking then t.rtags.(r) <- tag
  end

let set_reg t r v = set_reg_tagged t r v t.pub
let csr t = t.csrf
let priv t = t.priv
let set_trap_hook t fn = t.on_trap <- fn
let instret t = t.instret
let set_max_instructions t n = t.max_insns <- n
let exit_reason t = t.exit_reason
let halted t = t.exit_reason <> Running

let halt t reason =
  if t.exit_reason = Running then t.exit_reason <- reason

(* Compiled chains capture the recorders the factory made for them at
   compile time (the common no-hook case pays nothing per instruction),
   so changing it must drop every compiled block and stop any running
   chain; the single-step reference reads [t.trace] dynamically and
   needs neither. *)
let set_trace t fn =
  t.trace <- fn;
  if t.use_blocks then begin
    t.flush_epoch <- t.flush_epoch + 1;
    Array.iter
      (fun p -> if p != no_page then Array.fill p.p_blocks 0 page_words None)
      t.pages;
    t.sblocks <- [];
    t.prev_cb <- None
  end
let set_merge_hook t fn = t.on_merge <- fn
let blocks_built t = t.n_blocks
let superblocks_built t = t.n_superblocks
let chain_hits t = t.n_chain
let ic_hits t = t.n_ic_hits
let ic_misses t = t.n_ic_miss
let fast_retired t = t.n_fast

let set_irq t ~bit on =
  let c = t.csrf in
  if on then begin
    c.Csr.v_mip <- c.Csr.v_mip lor bit;
    Sysc.Kernel.notify_immediate t.irq_event
  end
  else c.Csr.v_mip <- c.Csr.v_mip land lnot bit land 0xffffffff

(* --- DIFT checks ------------------------------------------------- *)

let lub t a b =
  let r = t.lub_tab.((a * t.ntags) + b) in
  (match t.on_merge with Some f -> f a b r | None -> ());
  r

(* Every clearance check counts itself and tests the flow first; only a
   refused flow builds its violation record, detail string included.
   These checks run on every instruction, and allocating on the passing
   path would dominate the DIFT overhead. *)
let refused t tag required =
  incr t.checks;
  not t.flow_tab.((tag * t.ntags) + required)

let violation t ~kind ~data_tag ~required detail =
  Dift.Monitor.violation t.monitor
    {
      Dift.Violation.kind;
      data_tag;
      required_tag = required;
      pc = Some t.cur_pc;
      detail;
    }

let check_fetch t tag =
  match t.fetch_req with
  | Some required when refused t tag required ->
      violation t ~kind:Dift.Violation.Exec_fetch ~data_tag:tag ~required
        (Printf.sprintf "fetch of 0x%08x" t.insn_word)
  | _ -> ()

let check_branch t tag detail =
  match t.branch_req with
  | Some required when refused t tag required ->
      violation t ~kind:Dift.Violation.Exec_branch ~data_tag:tag ~required
        detail
  | _ -> ()

let check_mem_addr t tag addr =
  match t.mem_addr_req with
  | Some required when refused t tag required ->
      violation t ~kind:Dift.Violation.Exec_mem_addr ~data_tag:tag ~required
        (Printf.sprintf "effective address 0x%08x" addr)
  | _ -> ()

let check_store_region t ~addr ~width ~tag =
  if t.has_store_clearance then
    for i = 0 to width - 1 do
      match Dift.Policy.store_required_at t.policy (addr + i) with
      | Some (region, required) when refused t tag required ->
          violation t ~kind:(Dift.Violation.Store_integrity region)
            ~data_tag:tag ~required
            (Printf.sprintf "store to 0x%08x" (addr + i))
      | _ -> ()
    done

(* --- Traps and interrupts ----------------------------------------- *)

(* A privilege change invalidates any in-flight compiled chain (no chain
   may span a privilege boundary); the cached blocks themselves are
   privilege-agnostic — CSR access checks run on the breaker slow path —
   so only the epoch moves. *)
let set_priv t p =
  if p <> t.priv then begin
    t.priv <- p;
    t.flush_epoch <- t.flush_epoch + 1
  end

let enter_trap t ~cause ~tval ~epc =
  let c = t.csrf in
  if Csr.mtvec_base c.Csr.v_mtvec = 0 then
    raise (Fatal_trap { cause; pc = epc; tval });
  c.Csr.v_mepc <- epc;
  c.Csr.t_mepc <- t.pub;
  c.Csr.v_mcause <- cause;
  c.Csr.t_mcause <- t.pub;
  c.Csr.v_mtval <- mask32 tval;
  c.Csr.t_mtval <- t.pub;
  (* Stack: MPIE <- MIE, MIE <- 0, MPP <- current privilege. *)
  let s = c.Csr.v_mstatus in
  let mie = (s lsr 3) land 1 in
  c.Csr.v_mstatus <-
    s
    land lnot (Csr.mstatus_mie lor Csr.mstatus_mpie lor Csr.mstatus_mpp_mask)
    lor (mie lsl 7)
    lor (t.priv lsl Csr.mstatus_mpp_shift);
  set_priv t Csr.priv_m;
  (* Tags stay exact on the fast path, so this check runs even there. *)
  if t.tracking then check_branch t c.Csr.t_mtvec "trap vector (mtvec)";
  let base = Csr.mtvec_base c.Csr.v_mtvec in
  t.pc <-
    (if Csr.mtvec_mode c.Csr.v_mtvec = 1 && cause land 0x80000000 <> 0 then
       mask32 (base + (4 * (cause land 0x7fffffff)))
     else base);
  match t.on_trap with
  | Some f -> f (Trap_enter { cause; epc; tval = mask32 tval; handler = t.pc })
  | None -> ()

let trap t ~cause ~tval = enter_trap t ~cause ~tval ~epc:t.cur_pc

let take_interrupt t =
  let c = t.csrf in
  let pending = c.Csr.v_mip land c.Csr.v_mie in
  let bit =
    if pending land Csr.bit_mei <> 0 then Csr.bit_mei
    else if pending land Csr.bit_msi <> 0 then Csr.bit_msi
    else Csr.bit_mti
  in
  let idx =
    if bit = Csr.bit_mei then 11 else if bit = Csr.bit_msi then 3 else 7
  in
  enter_trap t ~cause:(Csr.cause_interrupt idx) ~tval:0 ~epc:t.pc

(* --- Memory helpers ------------------------------------------------ *)

let do_load t ~width ~addr =
  if t.strict_align && addr land (width - 1) <> 0 then begin
    trap t ~cause:Csr.cause_load_misaligned ~tval:addr;
    t.insn_tag <- t.pub;
    raise_notrace Exit
  end;
  try Bus_if.load t.bus ~width ~addr
  with Bus_if.Bus_error _ ->
    trap t ~cause:Csr.cause_load_fault ~tval:addr;
    (* Trap redirected control flow; the load value is irrelevant. *)
    t.insn_tag <- t.pub;
    raise_notrace Exit

let do_store t ~width ~addr ~value ~tag =
  if t.strict_align && addr land (width - 1) <> 0 then begin
    trap t ~cause:Csr.cause_store_misaligned ~tval:addr;
    raise_notrace Exit
  end;
  try Bus_if.store t.bus ~width ~addr ~value ~tag
  with Bus_if.Bus_error _ ->
    trap t ~cause:Csr.cause_store_fault ~tval:addr;
    raise_notrace Exit

(* --- CSR instructions ---------------------------------------------- *)

type csr_op = Op_w | Op_s | Op_c

let do_csr t rd n ~src_v ~src_t ~op ~do_write =
  if t.priv < Csr.required_priv n then
    trap t ~cause:Csr.cause_illegal ~tval:t.insn_word
  else
    match Csr.read t.csrf ~cycles:t.instret ~instret:t.instret n with
    | None -> trap t ~cause:Csr.cause_illegal ~tval:t.insn_word
    | Some (old_v, old_t) ->
        let write_ok =
          if do_write then begin
            let new_v, new_t =
              match op with
              | Op_w -> (src_v, src_t)
              | Op_s ->
                  ( old_v lor src_v,
                    if t.tracking then lub t old_t src_t else t.pub )
              | Op_c ->
                  ( old_v land lnot src_v land 0xffffffff,
                    if t.tracking then lub t old_t src_t else t.pub )
            in
            (* Trap-steering clearance: the trap vector and return
               address decide where machine-mode execution resumes, so a
               policy may require their writes to be untainted. Checked
               before the write lands (in Halt mode the violation raise
               leaves the CSR unchanged). *)
            (if t.tracking && (n = Csr.mtvec || n = Csr.mepc) then
               match t.policy.Dift.Policy.trap_csr with
               | Some required when refused t new_t required ->
                   violation t
                     ~kind:
                       (Dift.Violation.Trap_steering
                          (if n = Csr.mtvec then "mtvec" else "mepc"))
                     ~data_tag:new_t ~required
                     (Printf.sprintf "csr write of 0x%08x" (mask32 new_v))
               | _ -> ());
            Csr.write t.csrf n ~value:new_v ~tag:new_t
          end
          else true
        in
        if write_ok then set_reg_tagged t rd old_v old_t
        else trap t ~cause:Csr.cause_illegal ~tval:t.insn_word

(* --- Execute -------------------------------------------------------- *)

(* Register-tag plumbing of {!execute} and the compiled full variant,
   written as top-level functions so that a call allocates nothing (this
   build has no flambda: a local closure would be a heap block per
   executed instruction). *)
let rt t r = if t.tracking then t.rtags.(r) else t.pub

(* Tag of an ALU result from one / two register sources: immediates and
   the operation itself inherit the instruction's classification [itag]. *)
let tag1 t itag r = if t.tracking then lub t t.rtags.(r) itag else t.pub

let tag2 t itag a b =
  if t.tracking then lub t (lub t t.rtags.(a) t.rtags.(b)) itag else t.pub

let branch_to t target = t.pc <- mask32 target

let cond_branch t ~pc0 a b off taken =
  if t.tracking then check_branch t (lub t (rt t a) (rt t b)) "branch condition";
  if taken then branch_to t (pc0 + off)

let execute t insn =
  let open Insn in
  let pc0 = t.cur_pc in
  let regs = t.regs and rtags = t.rtags in
  let itag = t.insn_tag in
  match insn with
  | LUI (rd, _) | AUIPC (rd, _) ->
      set_reg_tagged t rd (alu_value insn regs pc0) itag
  | JAL (rd, off) ->
      set_reg_tagged t rd (pc0 + 4) itag;
      branch_to t (pc0 + off)
  | JALR (rd, rs1, off) ->
      if t.tracking then check_branch t (rt t rs1) "indirect jump target";
      let target = mask32 (regs.(rs1) + off) land lnot 1 in
      set_reg_tagged t rd (pc0 + 4) itag;
      branch_to t target
  | BEQ (a, b, off) | BNE (a, b, off) | BLT (a, b, off) | BGE (a, b, off)
  | BLTU (a, b, off) | BGEU (a, b, off) ->
      cond_branch t ~pc0 a b off (branch_taken insn regs)
  | LB (rd, rs1, off) | LH (rd, rs1, off) | LW (rd, rs1, off)
  | LBU (rd, rs1, off) | LHU (rd, rs1, off) ->
      let addr = mask32 (regs.(rs1) + off) in
      if t.tracking then check_mem_addr t (rt t rs1) addr;
      let v = do_load t ~width:(mem_width insn) ~addr in
      set_reg_tagged t rd (load_extend insn v) (Bus_if.last_tag t.bus)
  | SB (rs1, rs2, off) | SH (rs1, rs2, off) | SW (rs1, rs2, off) ->
      let addr = mask32 (regs.(rs1) + off) and width = mem_width insn in
      if t.tracking then begin
        check_mem_addr t (rt t rs1) addr;
        check_store_region t ~addr ~width ~tag:(rt t rs2)
      end;
      do_store t ~width ~addr ~value:regs.(rs2) ~tag:(rt t rs2)
  | ADDI (rd, rs1, _) | SLTI (rd, rs1, _) | SLTIU (rd, rs1, _)
  | XORI (rd, rs1, _) | ORI (rd, rs1, _) | ANDI (rd, rs1, _)
  | SLLI (rd, rs1, _) | SRLI (rd, rs1, _) | SRAI (rd, rs1, _) ->
      set_reg_tagged t rd (alu_value insn regs pc0) (tag1 t itag rs1)
  | ADD (rd, a, b) | SUB (rd, a, b) | SLL (rd, a, b) | SLT (rd, a, b)
  | SLTU (rd, a, b) | XOR (rd, a, b) | SRL (rd, a, b) | SRA (rd, a, b)
  | OR (rd, a, b) | AND (rd, a, b)
  | MUL (rd, a, b) | MULH (rd, a, b) | MULHSU (rd, a, b) | MULHU (rd, a, b)
  | DIV (rd, a, b) | DIVU (rd, a, b) | REM (rd, a, b) | REMU (rd, a, b) ->
      set_reg_tagged t rd (alu_value insn regs pc0) (tag2 t itag a b)
  | FENCE -> ()
  | ECALL ->
      if t.priv = Csr.priv_m && regs.(17) = 93 then
        halt t (Exited (signed regs.(10)))
      else begin
        (* Syscall arguments are an explicit declassification gate: every
           argument register must meet the gate clearance; admitted
           arguments above the declassified class are downgraded, and
           each downgrade is recorded by the monitor. *)
        (if t.tracking then
           match t.policy.Dift.Policy.ecall_gate with
           | Some g ->
               for rno = 10 to 15 do
                 let tag = rtags.(rno) in
                 if refused t tag g.Dift.Policy.g_clearance then
                   violation t ~kind:(Dift.Violation.Custom "ecall-gate")
                     ~data_tag:tag ~required:g.Dift.Policy.g_clearance
                     (Printf.sprintf "ecall argument a%d" (rno - 10))
                 else if
                   tag <> g.Dift.Policy.g_declass
                   && not
                        (Dift.Lattice.allowed_flow t.lat tag
                           g.Dift.Policy.g_declass)
                 then begin
                   rtags.(rno) <- g.Dift.Policy.g_declass;
                   Dift.Monitor.report t.monitor
                     (Dift.Monitor.Declassified
                        {
                          where = Printf.sprintf "ecall-gate(a%d)" (rno - 10);
                          from_tag = tag;
                          to_tag = g.Dift.Policy.g_declass;
                        })
                 end
               done
           | None -> ());
        trap t
          ~cause:
            (if t.priv = Csr.priv_m then Csr.cause_ecall_m
             else Csr.cause_ecall_u)
          ~tval:0
      end
  | EBREAK ->
      (* With a handler installed, ebreak is an architectural breakpoint
         trap; without one it keeps the simulator's stop convention. *)
      if Csr.mtvec_base t.csrf.Csr.v_mtvec <> 0 then
        trap t ~cause:Csr.cause_breakpoint ~tval:pc0
      else halt t Breakpoint
  | MRET ->
      if t.priv <> Csr.priv_m then
        trap t ~cause:Csr.cause_illegal ~tval:t.insn_word
      else begin
        let c = t.csrf in
        let s = c.Csr.v_mstatus in
        let mpie = (s lsr 7) land 1 in
        let mpp = Csr.mstatus_mpp s in
        (* Unstack: MIE <- MPIE, MPIE <- 1, privilege <- MPP, MPP <- U. *)
        c.Csr.v_mstatus <-
          s
          land lnot (Csr.mstatus_mie lor Csr.mstatus_mpp_mask)
          lor (mpie lsl 3) lor Csr.mstatus_mpie;
        if t.tracking then check_branch t c.Csr.t_mepc "mret target (mepc)";
        set_priv t mpp;
        branch_to t c.Csr.v_mepc;
        match t.on_trap with
        | Some f -> f (Trap_return { target = t.pc; to_priv = mpp })
        | None -> ()
      end
  | WFI ->
      if t.csrf.Csr.v_mip land t.csrf.Csr.v_mie = 0 then t.in_wfi <- true
  | CSRRW (rd, rs1, n) ->
      do_csr t rd n ~src_v:regs.(rs1) ~src_t:(rt t rs1) ~op:Op_w ~do_write:true
  | CSRRS (rd, rs1, n) ->
      do_csr t rd n ~src_v:regs.(rs1) ~src_t:(rt t rs1) ~op:Op_s
        ~do_write:(rs1 <> 0)
  | CSRRC (rd, rs1, n) ->
      do_csr t rd n ~src_v:regs.(rs1) ~src_t:(rt t rs1) ~op:Op_c
        ~do_write:(rs1 <> 0)
  | CSRRWI (rd, z, n) ->
      do_csr t rd n ~src_v:z ~src_t:itag ~op:Op_w ~do_write:true
  | CSRRSI (rd, z, n) ->
      do_csr t rd n ~src_v:z ~src_t:itag ~op:Op_s ~do_write:(z <> 0)
  | CSRRCI (rd, z, n) ->
      do_csr t rd n ~src_v:z ~src_t:itag ~op:Op_c ~do_write:(z <> 0)
  | ILLEGAL w -> trap t ~cause:Csr.cause_illegal ~tval:w

let decode_cached t pc word =
  let idx = (pc - t.dmi_base) lsr 2 in
  if idx < t.dmi_words then begin
    let p = page_at t idx and j = idx land page_mask in
    if Array.unsafe_get p.p_words j = word then Array.unsafe_get p.p_insns j
    else begin
      let insn = Decode.decode word in
      Array.unsafe_set p.p_words j word;
      Array.unsafe_set p.p_insns j insn;
      insn
    end
  end
  else Decode.decode word

let step t =
  let c = t.csrf in
  if
    (t.priv <> Csr.priv_m || c.Csr.v_mstatus land Csr.mstatus_mie <> 0)
    && c.Csr.v_mip land c.Csr.v_mie <> 0
  then take_interrupt t
  else begin
    let pc0 = t.pc in
    t.cur_pc <- pc0;
    if pc0 land 3 <> 0 then begin
      (* Misaligned fetch faults at the fetch itself: epc and mtval are
         the misaligned target (branch targets are encoded in multiples
         of 2, so only bit 1 can be set). *)
      enter_trap t ~cause:Csr.cause_fetch_misaligned ~tval:pc0 ~epc:pc0;
      t.instret <- t.instret + 1
    end
    else
    match
      try
        t.insn_word <- Bus_if.load t.bus ~width:4 ~addr:pc0;
        true
      with Bus_if.Bus_error _ ->
        enter_trap t ~cause:Csr.cause_fetch_fault ~tval:pc0 ~epc:pc0;
        false
    with
    | false -> t.instret <- t.instret + 1
    | true ->
        if t.tracking then begin
          t.insn_tag <- Bus_if.last_tag t.bus;
          check_fetch t t.insn_tag
        end;
        let insn = decode_cached t pc0 t.insn_word in
        (match t.trace with
        | Some f ->
            let a = t.rtags.(Insn.rs1 insn) and b = t.rtags.(Insn.rs2 insn) in
            f pc0 t.insn_word insn
              (if a = b then a else t.lub_tab.((a * t.ntags) + b))
        | None -> ());
        t.instret <- t.instret + 1;
        t.local_cycles <- t.local_cycles + 1;
        t.pc <- mask32 (pc0 + 4);
        (try execute t insn with Exit -> ())
  end

(* --- Block dispatch ------------------------------------------------ *)

(* M-mode interrupts are always enabled below M (mstatus.MIE only gates
   them at machine level, per the privileged spec). *)
let interrupt_pending t =
  let c = t.csrf in
  (t.priv <> Csr.priv_m || c.Csr.v_mstatus land Csr.mstatus_mie <> 0)
  && c.Csr.v_mip land c.Csr.v_mie <> 0

(* Fetch-decode a block starting at [pc] (word-aligned, inside the DMI
   region). DMI loads are side-effect free, so probing ahead of execution
   is safe; words are re-checked against nothing afterwards — the
   invalidation hooks keep the cache coherent instead. *)
let build_block t pc =
  let insns = ref [] and words = ref [] and tags = ref [] in
  let n = ref 0 in
  let addr = ref pc in
  let all_pub = ref true in
  let stop = ref false in
  while (not !stop) && !n < max_block_insns && !addr + 3 <= t.dmi_limit do
    let w = Bus_if.load t.bus ~width:4 ~addr:!addr in
    let tag = if t.tracking then Bus_if.last_tag t.bus else t.pub in
    let insn = decode_cached t !addr w in
    if block_breaker insn then stop := true
    else begin
      insns := insn :: !insns;
      words := w :: !words;
      tags := tag :: !tags;
      if tag <> t.pub then all_pub := false;
      incr n;
      addr := !addr + 4;
      if block_ender insn then stop := true
    end
  done;
  let b =
    {
      b_pc = pc;
      b_insns = Array.of_list (List.rev !insns);
      b_words = Array.of_list (List.rev !words);
      b_tags = (if t.tracking then Array.of_list (List.rev !tags) else [||]);
      b_fast = !all_pub && !n > 0;
    }
  in
  t.n_blocks <- t.n_blocks + 1;
  if pc < t.code_lo then t.code_lo <- pc;
  let last = pc + (4 * max 1 !n) - 1 in
  if last > t.code_hi then t.code_hi <- last;
  b

let regs_all_pub t =
  let rtags = t.rtags and pub = t.pub in
  let ok = ref true in
  let i = ref 1 in
  while !ok && !i < 32 do
    if Array.unsafe_get rtags !i <> pub then ok := false;
    incr i
  done;
  !ok

(* --- Block compiler (threaded code) --------------------------------- *)

(* The compiler turns each decoded block into a chain of closures, one
   per instruction, with register indices, immediates and fetch tags
   pre-resolved at compile time. Closures are chained tail-first
   (instruction [i] captures instruction [i+1]'s closure), so running a
   block is a single indirect call. A chain stops where the single-step
   loop would return to the scheduler (instruction budget, sync quantum,
   pending interrupt, halt, an invalidation of cached code), and the
   retirement protocol (cur_pc / fetch bookkeeping / trace / instret /
   pc update) replicates {!step} exactly, so both paths produce
   identical architectural state, tags, counters, hook streams and
   snapshots — pinned by test_parity and the difftest --cache-diff
   leg. *)

(* Stop conditions checked before every chained instruction except the
   first (the dispatcher itself re-checks them between blocks, and
   never stop-checking the head keeps quantum = 0 configurations
   live). *)
let chain_stalled t =
  t.instret >= t.max_insns
  || t.exit_reason <> Running
  || t.local_cycles >= t.quantum
  || t.flush_epoch <> t.chain_epoch
  || interrupt_pending t

let chain_terminator () = ()

(* The fetch clearance of a compiled instruction, decided when its
   closure is built: the fetch tag, the required class and the lattice
   are all fixed by then, so a fetch that passes only counts its check
   and a fetch that fails keeps calling {!check_fetch}. *)
type fetch_check = No_fetch_check | Fetch_passes | Fetch_fails

let fetch_check_of t itag =
  match t.fetch_req with
  | None -> No_fetch_check
  | Some required ->
      if t.flow_tab.((itag * t.ntags) + required) then Fetch_passes
      else Fetch_fails

(* The retirement shell of a full-variant instruction on a tracking core:
   {!step}'s bookkeeping with pc, word and fetch tag as constants. The
   word and tag land in [insn_word]/[insn_tag] as the reference leaves
   them, since snapshots save both. *)
let retire_full t ~pc0 ~word ~itag ~fetch ~traced next_pc =
  t.cur_pc <- pc0;
  t.insn_word <- word;
  t.insn_tag <- itag;
  (match fetch with
  | No_fetch_check -> ()
  | Fetch_passes -> incr t.checks
  | Fetch_fails -> check_fetch t itag);
  (match traced with Some f -> f () | None -> ());
  t.instret <- t.instret + 1;
  t.local_cycles <- t.local_cycles + 1;
  t.pc <- next_pc

(* Full-semantics variant. On a tracking core each instruction compiles
   to the closure of its tag shape — the instruction-level flow model of
   {!execute}'s or-pattern groups:
   - itag (lui, auipc): rd takes the fetch tag;
   - tag1 (op-imm): rd takes rs1's tag joined with the fetch tag;
   - tag2 (op, M extension): rs1's and rs2's tags, then the fetch tag;
   - conditional branch: the operand tags are joined and checked against
     the branch clearance;
   - load: the address tag is checked, rd takes the bytes' tag;
   - store: the address tag is checked, rs2's tag goes through the
     store-integrity regions and lands on the bytes;
   - jal / jalr: the link register takes the fetch tag, jalr checks its
     target's tag.
   Operands, [pc0], [next_pc] and the fetch clearance are resolved at
   compile time; values come from the same {!alu_value}, {!branch_taken},
   {!mem_width} and {!load_extend} as the reference, and the joins, checks
   and merge-hook calls come in the reference's order (a join still
   happens for rd = x0, a branch still joins without a branch clearance).
   Breakers never enter a block, so every in-block opcode has a shape.

   Only a tracking core builds a full chain: an untracked core's blocks
   all have an exact value-only variant (see [fast_spec]), and a full
   chain is built only when first entered (see {!compile_block}).

   [exit_k] runs when control leaves the fall-through path (a taken branch
   or trap): the chain terminator for a standalone block, a superblock
   seam that continues into the chained successor when the divergence
   lands exactly on it, or a jalr's inline cache ({!ic_exit}). *)
let compile_full t ~guarded ~pc0 ~word ~itag ~insn ~record ~next ~exit_k =
  let open Insn in
  let regs = t.regs and rtags = t.rtags in
  let next_pc = mask32 (pc0 + 4) in
  (* The instruction's recorder gets the join of the source-register
     tags, read through indices resolved here. An untraced core resolves
     nothing. *)
  let traced =
    match record with
    | None -> None
    | Some record ->
        let lub_tab = t.lub_tab and n = t.ntags in
        let r1 = Insn.rs1 insn and r2 = Insn.rs2 insn in
        Some
          (fun () ->
            let a = Array.unsafe_get rtags r1
            and b = Array.unsafe_get rtags r2 in
            record (if a = b then a else lub_tab.((a * n) + b)))
  in
  let fetch = fetch_check_of t itag in
  (* Register indices come from 5-bit decode fields, so unsafe accesses
     on the 32-entry files are in bounds by construction. ALU shapes
     cannot redirect control and continue unconditionally; jumps and
     branches resolve their taken-path continuation at compile time. *)
  assert t.tracking;
  match insn with
  | LUI (rd, _) | AUIPC (rd, _) ->
      let v = alu_value insn regs pc0 in
      fun () ->
        if (not guarded) || not (chain_stalled t) then begin
          retire_full t ~pc0 ~word ~itag ~fetch ~traced next_pc;
          if rd <> 0 then begin
            Array.unsafe_set regs rd v;
            Array.unsafe_set rtags rd itag
          end;
          next ()
        end
  | ADDI (rd, rs1, _) | SLTI (rd, rs1, _) | SLTIU (rd, rs1, _)
  | XORI (rd, rs1, _) | ORI (rd, rs1, _) | ANDI (rd, rs1, _)
  | SLLI (rd, rs1, _) | SRLI (rd, rs1, _) | SRAI (rd, rs1, _) ->
      fun () ->
        if (not guarded) || not (chain_stalled t) then begin
          retire_full t ~pc0 ~word ~itag ~fetch ~traced next_pc;
          let tag = lub t (Array.unsafe_get rtags rs1) itag in
          if rd <> 0 then begin
            Array.unsafe_set regs rd (alu_value insn regs pc0);
            Array.unsafe_set rtags rd tag
          end;
          next ()
        end
  | ADD (rd, a, b) | SUB (rd, a, b) | SLL (rd, a, b) | SLT (rd, a, b)
  | SLTU (rd, a, b) | XOR (rd, a, b) | SRL (rd, a, b) | SRA (rd, a, b)
  | OR (rd, a, b) | AND (rd, a, b)
  | MUL (rd, a, b) | MULH (rd, a, b) | MULHSU (rd, a, b) | MULHU (rd, a, b)
  | DIV (rd, a, b) | DIVU (rd, a, b) | REM (rd, a, b) | REMU (rd, a, b) ->
      fun () ->
        if (not guarded) || not (chain_stalled t) then begin
          retire_full t ~pc0 ~word ~itag ~fetch ~traced next_pc;
          let tag =
            lub t
              (lub t (Array.unsafe_get rtags a) (Array.unsafe_get rtags b))
              itag
          in
          if rd <> 0 then begin
            Array.unsafe_set regs rd (alu_value insn regs pc0);
            Array.unsafe_set rtags rd tag
          end;
          next ()
        end
  | BEQ (a, b, off) | BNE (a, b, off) | BLT (a, b, off) | BGE (a, b, off)
  | BLTU (a, b, off) | BGEU (a, b, off) ->
      let tgt = mask32 (pc0 + off) in
      let taken_k = if tgt = next_pc then next else exit_k in
      fun () ->
        if (not guarded) || not (chain_stalled t) then begin
          retire_full t ~pc0 ~word ~itag ~fetch ~traced next_pc;
          let taken = branch_taken insn regs in
          check_branch t
            (lub t (Array.unsafe_get rtags a) (Array.unsafe_get rtags b))
            "branch condition";
          if taken then begin
            t.pc <- tgt;
            taken_k ()
          end
          else next ()
        end
  | LB (rd, rs1, off) | LH (rd, rs1, off) | LW (rd, rs1, off)
  | LBU (rd, rs1, off) | LHU (rd, rs1, off) ->
      let width = mem_width insn in
      fun () ->
        if (not guarded) || not (chain_stalled t) then begin
          retire_full t ~pc0 ~word ~itag ~fetch ~traced next_pc;
          let addr = mask32 (Array.unsafe_get regs rs1 + off) in
          check_mem_addr t (Array.unsafe_get rtags rs1) addr;
          (* A faulting load has trapped and redirected [t.pc]. *)
          (try
             let v = load_extend insn (do_load t ~width ~addr) in
             let tag = Bus_if.last_tag t.bus in
             if rd <> 0 then begin
               Array.unsafe_set regs rd (mask32 v);
               Array.unsafe_set rtags rd tag
             end
           with Exit -> ());
          if t.pc = next_pc then next () else exit_k ()
        end
  | SB (rs1, rs2, off) | SH (rs1, rs2, off) | SW (rs1, rs2, off) ->
      let width = mem_width insn in
      fun () ->
        if (not guarded) || not (chain_stalled t) then begin
          retire_full t ~pc0 ~word ~itag ~fetch ~traced next_pc;
          let addr = mask32 (Array.unsafe_get regs rs1 + off) in
          check_mem_addr t (Array.unsafe_get rtags rs1) addr;
          let tag = Array.unsafe_get rtags rs2 in
          check_store_region t ~addr ~width ~tag;
          (try
             do_store t ~width ~addr ~value:(Array.unsafe_get regs rs2) ~tag
           with Exit -> ());
          if t.pc = next_pc then next () else exit_k ()
        end
  | JAL (rd, off) ->
      let tgt = mask32 (pc0 + off) in
      let taken_k = if tgt = next_pc then next else exit_k in
      fun () ->
        if (not guarded) || not (chain_stalled t) then begin
          retire_full t ~pc0 ~word ~itag ~fetch ~traced next_pc;
          if rd <> 0 then begin
            Array.unsafe_set regs rd next_pc;
            Array.unsafe_set rtags rd itag
          end;
          t.pc <- tgt;
          taken_k ()
        end
  | JALR (rd, rs1, off) ->
      fun () ->
        if (not guarded) || not (chain_stalled t) then begin
          retire_full t ~pc0 ~word ~itag ~fetch ~traced next_pc;
          check_branch t (Array.unsafe_get rtags rs1) "indirect jump target";
          (* Target before link write: rd may alias rs1. *)
          let tgt = mask32 (Array.unsafe_get regs rs1 + off) land lnot 1 in
          if rd <> 0 then begin
            Array.unsafe_set regs rd next_pc;
            Array.unsafe_set rtags rd itag
          end;
          t.pc <- tgt;
          if tgt = next_pc then next () else exit_k ()
        end
  | FENCE | ECALL | EBREAK | MRET | WFI
  | CSRRW _ | CSRRS _ | CSRRC _ | CSRRWI _ | CSRRSI _ | CSRRCI _
  | ILLEGAL _ ->
      invalid_arg "compile_full: breaker instruction in block"

(* --- jalr inline caches --------------------------------------------- *)

let ic_demoted = -2

(* Monomorphic-install / demote state machine. On a miss with an empty
   (or epoch-invalidated) cache the current target's compiled chain is
   installed if it exists; a second distinct target demotes the site for
   good. Never *enters* a chain — control falls back to the dispatcher,
   which re-checks everything. *)
let ic_miss t ic ~tgt ~entry_of =
  t.n_ic_miss <- t.n_ic_miss + 1;
  if ic.ic_pc = tgt || ic.ic_pc = -1 then begin
    if tgt land 3 = 0 then
      let idx = (tgt - t.dmi_base) lsr 2 in
      if idx < t.dmi_words then
        match slot_get t idx with
        | Some cb when cb.cb_n > 0 ->
            ic.ic_pc <- tgt;
            ic.ic_epoch <- t.flush_epoch;
            ic.ic_entry <- entry_of cb
        | _ -> ()
  end
  else ic.ic_pc <- ic_demoted

(* The exit continuation of a compiled jalr, shared by both variants
   (each gets its own cache): the jalr has already retired and set
   [t.pc]; jump directly to the predicted target's chain when the
   prediction holds and no stop condition is pending, otherwise record
   the miss and return to the dispatcher. [entry_of] picks which entry
   of the target chain the cache installs. *)
let ic_exit t ~entry_of =
  let ic = { ic_pc = -1; ic_epoch = -1; ic_entry = chain_terminator } in
  fun () ->
    let tgt = t.pc in
    if ic.ic_pc = tgt && ic.ic_epoch = t.flush_epoch && not (chain_stalled t)
    then begin
      t.n_ic_hits <- t.n_ic_hits + 1;
      ic.ic_entry ()
    end
    else ic_miss t ic ~tgt ~entry_of

(* Untainted specialization (tracking mode): entered only when every
   cached word and every register carries the bottom tag, so all tag
   plumbing — propagation, lub merges, clearance checks — is compiled
   out, not just skipped. Only a load can break the invariant
   mid-block: after a non-bottom loaded tag the chain falls through to
   the full variant's next closure. Fast closures are reached only from
   fast closures, the dispatcher's all-bottom check or seams between
   them, so running one is itself the proof that every register tag is
   bottom. Values come from the same definitions {!execute} uses
   ({!alu_value}, {!branch_taken}, {!mem_width}, {!load_extend}); only
   the retirement shells around them are written here, with branch and
   jump targets folded in at compile time. *)
let compile_fast t ~guarded ~pc0 ~insn ~record:traced ~next ~fallback
    ~exit_k =
  let open Insn in
  let regs = t.regs and rtags = t.rtags in
  let next_pc = mask32 (pc0 + 4) in
  (* [traced] is the instruction's recorder (see [compile_block]). Every
     register tag is bottom here, so it gets bottom as the operand tag
     without reading a register.

     Retirement bookkeeping is written out inline in every shape below
     rather than shared through a [retire] closure: without flambda a
     shared closure costs an extra indirect call on every retired
     instruction, which is a measurable slice of the margin this
     compiler exists to win. Register indices come from 5-bit decode
     fields, so unsafe accesses on the 32-entry files are in bounds by
     construction. *)
  (* Register-writing ALU ops cannot redirect control: continue
     unconditionally. *)
  let alu rd =
   fun () ->
    if (not guarded) || not (chain_stalled t) then begin
      t.cur_pc <- pc0;
      t.n_fast <- t.n_fast + 1;
      (match traced with Some f -> f t.pub | None -> ());
      t.instret <- t.instret + 1;
      t.local_cycles <- t.local_cycles + 1;
      t.pc <- next_pc;
      if rd <> 0 then Array.unsafe_set regs rd (alu_value insn regs pc0);
      next ()
    end
  in
  (* Taken branches / jumps landing exactly on [next_pc] continue the
     chain, exactly like the single-step loop; any other landing site
     exits through [exit_k] (terminator, or superblock seam). The
     taken-path continuation is resolved at compile time. *)
  let cond_branch tgt =
   let taken_k = if tgt = next_pc then next else exit_k in
   fun () ->
    if (not guarded) || not (chain_stalled t) then begin
      t.cur_pc <- pc0;
      t.n_fast <- t.n_fast + 1;
      (match traced with Some f -> f t.pub | None -> ());
      t.instret <- t.instret + 1;
      t.local_cycles <- t.local_cycles + 1;
      t.pc <- next_pc;
      if branch_taken insn regs then begin
        t.pc <- tgt;
        taken_k ()
      end
      else next ()
    end
  in
  (* Loads keep their side effect even for rd = x0; a tainted result
     ends the specialization and resumes on the full chain. A faulting
     load traps exactly like {!do_load} (the trap itself cannot taint:
     CSR tags are written as bottom). *)
  let load rd rs1 off =
   let width = mem_width insn in
   (* Alignment strictness is a create-time constant, so the check is
      specialized away on default cores. *)
   let align = t.strict_align && width > 1 in
   fun () ->
    if (not guarded) || not (chain_stalled t) then begin
      t.cur_pc <- pc0;
      t.n_fast <- t.n_fast + 1;
      (match traced with Some f -> f t.pub | None -> ());
      t.instret <- t.instret + 1;
      t.local_cycles <- t.local_cycles + 1;
      t.pc <- next_pc;
      let addr = mask32 (Array.unsafe_get regs rs1 + off) in
      (* The fall-through continuation: the fast successor, or the full
         chain's once a tainted value has landed in a register. *)
      let k =
        if align && addr land (width - 1) <> 0 then begin
          trap t ~cause:Csr.cause_load_misaligned ~tval:addr;
          t.insn_tag <- t.pub;
          next
        end
        else
          try
            let v = load_extend insn (Bus_if.load t.bus ~width ~addr) in
            if rd = 0 then next
            else begin
              Array.unsafe_set regs rd (mask32 v);
              if not t.tracking then next
              else
                let tag = Bus_if.last_tag t.bus in
                if tag = t.pub then next
                else begin
                  Array.unsafe_set rtags rd tag;
                  fallback
                end
            end
          with Bus_if.Bus_error _ ->
            trap t ~cause:Csr.cause_load_fault ~tval:addr;
            t.insn_tag <- t.pub;
            next
      in
      if t.pc = next_pc then k () else exit_k ()
    end
  in
  (* Stores cannot taint registers; the written tag is bottom by the
     fast-path invariant (rs2's tag is bottom whenever this runs). *)
  let store rs1 rs2 off =
   let width = mem_width insn in
   let align = t.strict_align && width > 1 in
   fun () ->
    if (not guarded) || not (chain_stalled t) then begin
      t.cur_pc <- pc0;
      t.n_fast <- t.n_fast + 1;
      (match traced with Some f -> f t.pub | None -> ());
      t.instret <- t.instret + 1;
      t.local_cycles <- t.local_cycles + 1;
      t.pc <- next_pc;
      let addr = mask32 (Array.unsafe_get regs rs1 + off) in
      if align && addr land (width - 1) <> 0 then
        trap t ~cause:Csr.cause_store_misaligned ~tval:addr
      else
        (try
           Bus_if.store t.bus ~width ~addr
             ~value:(Array.unsafe_get regs rs2)
             ~tag:t.pub
         with Bus_if.Bus_error _ ->
           trap t ~cause:Csr.cause_store_fault ~tval:addr);
      if t.pc = next_pc then next () else exit_k ()
    end
  in
  match insn with
  | LUI (rd, _) | AUIPC (rd, _)
  | ADDI (rd, _, _) | SLTI (rd, _, _) | SLTIU (rd, _, _) | XORI (rd, _, _)
  | ORI (rd, _, _) | ANDI (rd, _, _) | SLLI (rd, _, _) | SRLI (rd, _, _)
  | SRAI (rd, _, _)
  | ADD (rd, _, _) | SUB (rd, _, _) | SLL (rd, _, _) | SLT (rd, _, _)
  | SLTU (rd, _, _) | XOR (rd, _, _) | SRL (rd, _, _) | SRA (rd, _, _)
  | OR (rd, _, _) | AND (rd, _, _)
  | MUL (rd, _, _) | MULH (rd, _, _) | MULHSU (rd, _, _) | MULHU (rd, _, _)
  | DIV (rd, _, _) | DIVU (rd, _, _) | REM (rd, _, _) | REMU (rd, _, _) ->
      alu rd
  | JAL (rd, off) ->
      let tgt = mask32 (pc0 + off) in
      let taken_k = if tgt = next_pc then next else exit_k in
      fun () ->
        if (not guarded) || not (chain_stalled t) then begin
          t.cur_pc <- pc0;
          t.n_fast <- t.n_fast + 1;
          (match traced with Some f -> f t.pub | None -> ());
          t.instret <- t.instret + 1;
          t.local_cycles <- t.local_cycles + 1;
          if rd <> 0 then regs.(rd) <- next_pc;
          t.pc <- tgt;
          taken_k ()
        end
  | JALR (rd, rs1, off) ->
      (* A cache hit jumps directly into the predicted chain's fast
         entry, or its full entry when the target has no fast variant,
         so the prediction still skips the dispatcher. The tag invariant
         carries over the jump: every register tag is bottom here, which
         is exactly the fast-entry precondition the dispatcher would
         re-derive. *)
      let ic_k =
        ic_exit t ~entry_of:(fun cb ->
            match cb.cb_fast with Some f -> f | None -> cb.cb_full)
      in
      fun () ->
        if (not guarded) || not (chain_stalled t) then begin
          t.cur_pc <- pc0;
          t.n_fast <- t.n_fast + 1;
          (match traced with Some f -> f t.pub | None -> ());
          t.instret <- t.instret + 1;
          t.local_cycles <- t.local_cycles + 1;
          (* Target before link write: rd may alias rs1. *)
          let tgt = mask32 (Array.unsafe_get regs rs1 + off) land lnot 1 in
          if rd <> 0 then Array.unsafe_set regs rd next_pc;
          t.pc <- tgt;
          if tgt = next_pc then next () else ic_k ()
        end
  | BEQ (_, _, off) | BNE (_, _, off) | BLT (_, _, off) | BGE (_, _, off)
  | BLTU (_, _, off) | BGEU (_, _, off) ->
      cond_branch (mask32 (pc0 + off))
  | LB (rd, rs1, off) | LH (rd, rs1, off) | LW (rd, rs1, off)
  | LBU (rd, rs1, off) | LHU (rd, rs1, off) ->
      load rd rs1 off
  | SB (rs1, rs2, off) | SH (rs1, rs2, off) | SW (rs1, rs2, off) ->
      store rs1 rs2 off
  | FENCE | ECALL | EBREAK | MRET | WFI
  | CSRRW _ | CSRRS _ | CSRRC _ | CSRRWI _ | CSRRSI _ | CSRRCI _
  | ILLEGAL _ ->
      (* Breakers never enter a block (see build_block). *)
      invalid_arg "compile_fast: breaker instruction in block"

(* Instruction [i]'s recorder in a block's [records], which is empty on
   an untraced core. *)
let record_at records i =
  if Array.length records = 0 then None else Array.get records i

let compile_block ?link t (b : block) =
  let n = Array.length b.b_insns in
  let lo0 = b.b_pc and hi0 = b.b_pc + (4 * max 1 n) - 1 in
  if n = 0 then
    {
      cb_pc = b.b_pc;
      cb_n = 0;
      cb_full = chain_terminator;
      cb_fast = None;
      cb_blk = b;
      cb_lo = lo0;
      cb_hi = hi0;
      cb_edge_pc = -1;
      cb_edge_n = 0;
      cb_linked = false;
    }
  else begin
    (* Superblock seams: with a hot successor [link], every exit path of
       this block (slot [n] fall-off, taken branches, even a mid-block
       trap) funnels through a seam instead of the chain terminator. The
       seam continues directly into the successor's chain — eliding the
       dispatcher round, the pc/index lookup and, on the fast side, the
       31-register tag rescan — exactly when execution really landed on
       the successor and no stop condition is pending; anything else
       returns to the dispatcher as before. The fast seam needs no tag
       check: being reached from a fast closure is itself the proof that
       every register tag is still bottom (a tainted load would have
       left for the full chain before the seam). Entries are threaded
       through refs so a block chained to itself loops inside its own new
       chain. *)
    let full_tgt = ref chain_terminator in
    let fast_tgt = ref chain_terminator in
    let succ_pc = match link with Some s -> s.cb_pc | None -> -1 in
    let full_seam, fast_seam =
      match link with
      | None -> (chain_terminator, chain_terminator)
      | Some _ ->
          ( (fun () ->
              if t.pc = succ_pc && not (chain_stalled t) then begin
                t.n_chain <- t.n_chain + 1;
                !full_tgt ()
              end),
            fun () ->
              if t.pc = succ_pc && not (chain_stalled t) then begin
                t.n_chain <- t.n_chain + 1;
                !fast_tgt ()
              end )
    in
    (* Each instruction's recorder, made once at compile time and shared
       by both variants: the common no-hook case pays nothing per retired
       instruction. {!set_trace} drops every compiled block, so a chain
       can never outlive the recorder it captured. *)
    let records =
      match t.trace with
      | None -> [||]
      | Some f ->
          Array.init n (fun i ->
              Some (f (b.b_pc + (4 * i)) b.b_words.(i) b.b_insns.(i)))
    in
    (* Built backwards so each closure captures its successor; slot [n]
       is the fall-off exit (terminator or seam). *)
    let full = Array.make (n + 1) full_seam in
    let build_full () =
      for i = n - 1 downto 0 do
        let insn = b.b_insns.(i) in
        let exit_k =
          match insn with
          | Insn.JALR _ -> ic_exit t ~entry_of:(fun cb -> cb.cb_full)
          | _ -> full_seam
        in
        full.(i) <-
          compile_full t ~guarded:(i > 0)
            ~pc0:(b.b_pc + (4 * i))
            ~word:b.b_words.(i) ~itag:b.b_tags.(i) ~insn
            ~record:(record_at records i) ~next:full.(i + 1) ~exit_k
      done;
      full
    in
    let has_fast = t.fast_spec && b.b_fast in
    (* Entry into the full chain at instruction [i]. A block with a
       value-only variant builds its full chain only when something first
       enters it: until then the block's full entry, the fast chain's
       fallbacks and every seam or inline cache that captured the entry
       are stubs that build the chain and jump to their own index. Cold
       code that retires each instruction about once never pays for two
       chains, and an untracked core, whose blocks all run value-only,
       never builds one. *)
    let full_at =
      if not has_fast then Array.get (build_full ())
      else
        let chain = lazy (build_full ()) in
        fun i ->
          if i = n then full_seam
          else fun () -> Array.unsafe_get (Lazy.force chain) i ()
    in
    let cb_fast =
      if has_fast then begin
        let fast = Array.make (n + 1) fast_seam in
        for i = n - 1 downto 0 do
          fast.(i) <-
            compile_fast t ~guarded:(i > 0)
              ~pc0:(b.b_pc + (4 * i))
              ~insn:b.b_insns.(i) ~record:(record_at records i)
              ~next:fast.(i + 1)
              ~fallback:(full_at (i + 1))
              ~exit_k:fast_seam
        done;
        Some fast.(0)
      end
      else None
    in
    let cb_lo, cb_hi =
      match link with
      | Some s -> (min lo0 s.cb_lo, max hi0 s.cb_hi)
      | None -> (lo0, hi0)
    in
    let cb =
      {
        cb_pc = b.b_pc;
        cb_n = n;
        cb_full = full_at 0;
        cb_fast;
        cb_blk = b;
        cb_lo;
        cb_hi;
        cb_edge_pc = -1;
        cb_edge_n = 0;
        cb_linked = link <> None;
      }
    in
    (match link with
    | None -> ()
    | Some succ when succ.cb_pc = b.b_pc ->
        (* Self-loop: the back edge re-enters this block's own new
           chain, so a hot loop body spins inside one chain until a
           stop condition (quantum, interrupt, ...) breaks it. Entries
           are tail calls, so the spin is stack-safe. *)
        full_tgt := cb.cb_full;
        fast_tgt :=
          (match cb.cb_fast with Some f -> f | None -> chain_terminator)
    | Some succ ->
        full_tgt := succ.cb_full;
        fast_tgt :=
          (match succ.cb_fast with Some f -> f | None -> succ.cb_full));
    cb
  end

(* Consecutive observations of the same exit edge before the
   predecessor is recompiled into a superblock. *)
let superblock_threshold = 8

let ends_in_jalr b =
  let n = Array.length b.b_insns in
  n > 0 && (match b.b_insns.(n - 1) with Insn.JALR _ -> true | _ -> false)

(* Recompile [pred] chained across its exit edge into [succ], replacing
   pred's cache slot and registering the new chain's two-block span for
   invalidation. Compiled from the stored decoded block — nothing is
   re-fetched, so [blocks_built] is unchanged. *)
let link_superblock t pred pidx succ =
  let sb = compile_block ~link:succ t pred.cb_blk in
  slot_set t pidx (Some sb);
  t.sblocks <- (pidx, sb) :: t.sblocks;
  t.n_superblocks <- t.n_superblocks + 1;
  sb

(* One scheduling round: take a pending interrupt, or run one compiled
   chain from the cache, building it on a miss; pcs outside the
   cacheable region and system instructions fall back to {!step}. The
   fast/full decision is made once per chain entry. *)
let dispatch t =
  if interrupt_pending t then begin
    t.prev_cb <- None;
    take_interrupt t
  end
  else begin
    let pc0 = t.pc in
    let idx = (pc0 - t.dmi_base) lsr 2 in
    if pc0 land 3 <> 0 || idx >= t.dmi_words then begin
      t.prev_cb <- None;
      step t
    end
    else
      let cb =
        match slot_get t idx with
        | Some cb -> cb
        | None ->
            let cb = compile_block t (build_block t pc0) in
            slot_set t idx (Some cb);
            cb
      in
      if cb.cb_n = 0 then begin
        t.prev_cb <- None;
        step t
      end
      else begin
        (* Exit-edge profiling: each dispatcher entry is an edge from
           the chain that ran last round to [pc0]. When the same edge
           repeats superblock_threshold times, the predecessor is
           recompiled chained into this block — jalr exits are excluded
           (their inline caches cover them). The slot identity check
           refuses to resurrect a chain that was flushed since it last
           ran; a self-loop link swaps in the new chain for the current
           round as well. *)
        let cb =
          match t.prev_cb with
          | Some p when not p.cb_linked ->
              if p.cb_edge_pc = pc0 then begin
                p.cb_edge_n <- p.cb_edge_n + 1;
                if
                  p.cb_edge_n >= superblock_threshold
                  && not (ends_in_jalr p.cb_blk)
                then begin
                  let pidx = (p.cb_pc - t.dmi_base) lsr 2 in
                  match slot_get t pidx with
                  | Some cur when cur == p ->
                      let sb = link_superblock t p pidx cb in
                      if p.cb_pc = pc0 then sb else cb
                  | _ -> cb
                end
                else cb
              end
              else begin
                p.cb_edge_pc <- pc0;
                p.cb_edge_n <- 1;
                cb
              end
          | _ -> cb
        in
        t.prev_cb <- Some cb;
        t.chain_epoch <- t.flush_epoch;
        match cb.cb_fast with
        | Some f when (not t.tracking) || regs_all_pub t ->
            (* Fast closures never write [insn_tag]; leave it where the
               single-step loop would, at the words' bottom fetch tag. *)
            t.insn_tag <- t.pub;
            f ()
        | _ -> cb.cb_full ()
      end
  end

let unhalt t = t.exit_reason <- Running

let set_pause_at t n = t.pause_at <- n
let paused t = t.paused
let clear_paused t = t.paused <- false

let sync_time t =
  let elapsed =
    Sysc.Time.add
      (t.local_cycles * cycle_time)
      (Bus_if.take_delay t.bus)
  in
  t.local_cycles <- 0;
  if elapsed > 0 then begin
    Sysc.Kernel.notify_after t.sync_event elapsed;
    t.syncing <- true;
    if t.instret >= t.pause_at then begin
      (* Checkpoint request: stop the scheduler with the thread parked on
         its (pending, serialisable) sync notification. The pause is
         invisible to the simulation — the wakeup happens at exactly the
         instant it would have without it. *)
      t.paused <- true;
      t.pause_at <- max_int;
      Sysc.Kernel.stop t.kernel
    end;
    Sysc.Kernel.wait_event t.sync_event;
    t.syncing <- false
  end

let spawn_thread ?(stop_kernel_on_halt = true) t =
  let round = if t.use_blocks then dispatch else step in
  Sysc.Kernel.spawn t.kernel ~name:"cpu" (fun () ->
      if t.syncing then begin
        (* Restored from a snapshot taken at a sync boundary: the wakeup
           is already pending (re-armed by the kernel restore); park on
           it like the saved thread was. *)
        Sysc.Kernel.wait_event t.sync_event;
        t.syncing <- false
      end;
      let running = ref true in
      while !running do
        if halted t || Sysc.Kernel.stopped t.kernel then running := false
        else if t.in_wfi then begin
          sync_time t;
          if t.csrf.Csr.v_mip land t.csrf.Csr.v_mie = 0 then
            Sysc.Kernel.wait_event t.irq_event
          else t.in_wfi <- false
        end
        else if t.instret >= t.max_insns then halt t Insn_limit
        else begin
          round t;
          if t.local_cycles >= t.quantum then sync_time t
        end
      done;
      sync_time t;
      if stop_kernel_on_halt then Sysc.Kernel.stop t.kernel)

(* --- Snapshot ------------------------------------------------------- *)

let encode_exit = function
  | Running -> (0, 0)
  | Exited code -> (1, code)
  | Breakpoint -> (2, 0)
  | Insn_limit -> (3, 0)

let decode_exit tag code =
  match tag with
  | 0 -> Running
  | 1 -> Exited code
  | 2 -> Breakpoint
  | 3 -> Insn_limit
  | n -> raise (Snapshot.Codec.Corrupt (Printf.sprintf "bad exit reason %d" n))

let save t w =
  let open Snapshot.Codec in
  Array.iter (fun v -> put_u32 w v) t.regs;
  Array.iter (fun v -> put_u32 w v) t.rtags;
  put_u32 w t.pc;
  put_u32 w t.cur_pc;
  put_u32 w t.insn_word;
  put_u32 w t.insn_tag;
  put_i64 w t.instret;
  put_i64 w t.local_cycles;
  put_bool w t.in_wfi;
  put_bool w t.syncing;
  let tag, code = encode_exit t.exit_reason in
  put_u8 w tag;
  put_i64 w code;
  let c = t.csrf in
  List.iter
    (fun v -> put_u32 w v)
    [ c.Csr.v_mstatus; c.Csr.v_mie; c.Csr.v_mip; c.Csr.v_mtvec;
      c.Csr.v_mscratch; c.Csr.v_mepc; c.Csr.v_mcause; c.Csr.v_mtval;
      c.Csr.t_mstatus; c.Csr.t_mie; c.Csr.t_mip; c.Csr.t_mtvec;
      c.Csr.t_mscratch; c.Csr.t_mepc; c.Csr.t_mcause; c.Csr.t_mtval ];
  (* v2: current privilege level. *)
  put_u8 w t.priv

let load t r =
  let open Snapshot.Codec in
  (* A tag indexes the lattice's flat tables: one at or above its size
     would read a neighbouring row, so it is refused here. *)
  let get_tag r =
    let v = get_u32 r in
    if v >= t.ntags then
      raise
        (Corrupt
           (Printf.sprintf "tag %d not below the lattice's %d classes" v
              t.ntags));
    v
  in
  for i = 0 to 31 do
    t.regs.(i) <- get_u32 r
  done;
  for i = 0 to 31 do
    t.rtags.(i) <- get_tag r
  done;
  t.pc <- get_u32 r;
  t.cur_pc <- get_u32 r;
  t.insn_word <- get_u32 r;
  t.insn_tag <- get_tag r;
  t.instret <- get_i64 r;
  t.local_cycles <- get_i64 r;
  t.in_wfi <- get_bool r;
  t.syncing <- get_bool r;
  let tag = get_u8 r in
  let code = get_i64 r in
  t.exit_reason <- decode_exit tag code;
  let c = t.csrf in
  c.Csr.v_mstatus <- get_u32 r;
  c.Csr.v_mie <- get_u32 r;
  c.Csr.v_mip <- get_u32 r;
  c.Csr.v_mtvec <- get_u32 r;
  c.Csr.v_mscratch <- get_u32 r;
  c.Csr.v_mepc <- get_u32 r;
  c.Csr.v_mcause <- get_u32 r;
  c.Csr.v_mtval <- get_u32 r;
  c.Csr.t_mstatus <- get_tag r;
  c.Csr.t_mie <- get_tag r;
  c.Csr.t_mip <- get_tag r;
  c.Csr.t_mtvec <- get_tag r;
  c.Csr.t_mscratch <- get_tag r;
  c.Csr.t_mepc <- get_tag r;
  c.Csr.t_mcause <- get_tag r;
  c.Csr.t_mtval <- get_tag r;
  (* v1 snapshots predate the privilege architecture; everything ran in
     machine mode then. [set_priv] so a privilege change invalidates any
     compiled chains. *)
  set_priv t
    (if Snapshot.Codec.reader_version r >= 2 then get_u8 r else Csr.priv_m);
  (* A snapshot taken at a pause has the thread parked on its sync
     notification ([syncing] = true); the restored core is back at that
     same checkpoint, so it counts as paused — which keeps it saveable
     again before anything runs. [clear_paused]/running simply drops the
     flag. *)
  t.paused <- t.syncing;
  t.pause_at <- max_int;
  (* The restored state came from an arbitrary other run: drop the
     exit-edge profile and force every inline cache to re-validate.
     (The memory restore already flushed the compiled blocks through
     the write hook; this covers cores restored without one.) *)
  t.prev_cb <- None;
  t.flush_epoch <- t.flush_epoch + 1
