(* Correctness tests for the decoded basic-block cache: self-modifying
   code through the CPU's DMI store path (cross-block and within the
   running block), DMA writes into cached code over TLM, code placed at
   page boundaries and far up in RAM, and agreement of
   exit code / retired-instruction count between cached and single-step
   execution in both VP flavours. *)

open Helpers
module A = Rv32_asm.Asm
module R = Rv32.Reg

let run_bc ?(tracking = true) ?(block_cache = true) ?(max_insns = 200_000)
    build =
  let p = A.create () in
  build p;
  let img = A.assemble p in
  let policy = trivial_policy () in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking ~block_cache () in
  Vp.Soc.load_image soc img;
  let reason = Vp.Soc.run_for_instructions soc max_insns in
  (soc, reason)

(* Run [build] under every (tracking, block_cache) combination; the exit
   reason and instret must not depend on the cache. *)
let check_all_configs ~name ~code build =
  let reference = ref None in
  List.iter
    (fun (tracking, block_cache) ->
      let ctx =
        Printf.sprintf "%s (tracking=%b cache=%b)" name tracking block_cache
      in
      let soc, reason = run_bc ~tracking ~block_cache build in
      (match reason with
      | Rv32.Core.Exited c -> check_int (ctx ^ ": exit code") code c
      | _ -> Alcotest.failf "%s: did not exit" ctx);
      let instret = Rv32.Core.instret soc.Vp.Soc.core in
      match !reference with
      | None -> reference := Some instret
      | Some r -> check_int (ctx ^ ": instret") r instret)
    [ (false, true); (false, false); (true, true); (true, false) ]

(* First call original (+1), two calls patched (+100 each). *)
let test_smc_cross_block () =
  check_all_configs ~name:"smc cross-block" ~code:201 smc_cross_block

(* The store patches an instruction a few slots ahead in the SAME
   straight-line block: the patched word must take effect at its very next
   fetch, exactly as in single-step mode. *)
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
  check_all_configs ~name:"smc in-block" ~code:42 smc_in_block

(* DMA writes land in RAM over TLM, behind the CPU's back: a cached
   function is patched by a DMA transfer and must execute the new
   instruction on the next call. *)
let dma_into_code p =
  A.call p "site_fn";
  A.mv p R.s0 R.a0;
  (* DMA: copy 4 bytes from "newinsn" over "site_fn". *)
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

(* 1 (original) + 99 (patched). Timing of the DMA engine differs from the
   CPU's instruction stream, so only the exit code is compared across
   configurations (the poll loop's length is allowed to vary with
   scheduling, not with the cache — instret is still checked). *)
let test_dma_into_code () =
  check_all_configs ~name:"dma into code" ~code:100 dma_into_code

(* The code cache is a directory of 4 KiB pages allocated on first
   decode; the next three programs place code at page boundaries, far up
   in RAM and on a page only DMA has written. *)
let page = 4096

(* A block starting 8 words before a page boundary runs into the next
   page, and a second block starts on that boundary; a store patches
   their shared word on the second page. Invalidation must reach back
   (max_block_insns - 1 words) across the boundary to the first block's
   start and still clear the second page. *)
let block_across_pages p =
  A.li p R.a0 0;
  A.li p R.s2 3;
  A.la p R.t0 "site";
  A.la p R.t1 "newinsn";
  A.lw p R.t1 R.t1 0;
  A.label p "loop";
  A.call p "blk";
  A.call p "blk2";
  A.sw p R.t1 R.t0 0;
  A.addi p R.s2 R.s2 (-1);
  A.bnez_l p R.s2 "loop";
  A.li p R.a7 93;
  A.ecall p;
  A.align p 4;
  A.label p "newinsn";
  (* addi a0, a0, 100 *)
  A.word p (Rv32.Encode.encode (Rv32.Insn.ADDI (R.a0, R.a0, 100)));
  A.align p page;
  A.space p (page - 32);
  A.label p "blk";
  for _ = 1 to 8 do
    A.addi p R.a0 R.a0 1
  done;
  A.label p "blk2";
  A.addi p R.a0 R.a0 1;
  A.label p "site";
  A.addi p R.a0 R.a0 1;
  A.ret p

(* First round (8 + 1 + 1) + (1 + 1), two patched rounds
   (8 + 1 + 100) + (1 + 100) each. *)
let test_block_across_pages () =
  check_all_configs ~name:"block across pages" ~code:432 block_across_pages

(* Sum 1..100 in a loop on the last page of RAM. *)
let loop_on_last_page p =
  A.la p R.t0 "far";
  A.jalr p R.zero R.t0 0;
  A.align p page;
  A.space p (Vp.Soc.ram_base + Vp.Soc.ram_size - page - A.here p ());
  A.label p "far";
  A.li p R.a0 0;
  A.li p R.t0 1;
  A.li p R.t1 100;
  A.label p "loop";
  A.add p R.a0 R.a0 R.t0;
  A.addi p R.t0 R.t0 1;
  A.bge_l p R.t1 R.t0 "loop";
  A.li p R.a7 93;
  A.ecall p

let test_loop_on_last_page () =
  check_all_configs ~name:"loop on last page" ~code:5050 loop_on_last_page;
  let soc, reason = run_bc loop_on_last_page in
  expect_exit reason 5050;
  let core = soc.Vp.Soc.core in
  check_bool "blocks built on the last page" true
    (Rv32.Core.blocks_built core > 0);
  check_bool "the loop chains into itself" true (Rv32.Core.chain_hits core > 0)

(* DMA copies three instructions to a page nothing has decoded yet, and
   the program jumps there. *)
let dma_into_fresh_page p =
  A.la p R.t0 "payload";
  A.li p R.t1 (Vp.Soc.ram_base + 0x40000);
  A.li p R.t2 Vp.Soc.dma_base;
  A.sw p R.t0 R.t2 0x0;
  A.sw p R.t1 R.t2 0x4;
  A.li p R.t3 12;
  A.sw p R.t3 R.t2 0x8;
  A.li p R.t3 1;
  A.sw p R.t3 R.t2 0xc;
  A.label p "poll";
  A.lw p R.t3 R.t2 0xc;
  A.bnez_l p R.t3 "poll";
  A.jalr p R.zero R.t1 0;
  A.align p 4;
  A.label p "payload";
  List.iter
    (fun i -> A.word p (Rv32.Encode.encode i))
    Rv32.Insn.[ ADDI (R.a0, R.zero, 77); ADDI (R.a7, R.zero, 93); ECALL ]

let test_dma_into_fresh_page () =
  check_all_configs ~name:"dma into fresh page" ~code:77 dma_into_fresh_page

let test_counters () =
  let soc, reason = run_bc smc_cross_block in
  expect_exit reason 201;
  check_bool "blocks built > 0" true
    (Rv32.Core.blocks_built soc.Vp.Soc.core > 0);
  check_bool "fast-path instructions retired > 0" true
    (Rv32.Core.fast_retired soc.Vp.Soc.core > 0);
  let soc, reason = run_bc ~block_cache:false smc_cross_block in
  expect_exit reason 201;
  check_int "no blocks without cache" 0
    (Rv32.Core.blocks_built soc.Vp.Soc.core);
  check_int "no fast path without cache" 0
    (Rv32.Core.fast_retired soc.Vp.Soc.core);
  (* The plain VP has no tags, so the compiler runs its value-only
     chains unconditionally: fast_retired counts them. On the single-step
     reference the counter stays at zero. *)
  let soc, reason = run_bc ~tracking:false smc_cross_block in
  expect_exit reason 201;
  check_bool "plain VP retires through specialized chains" true
    (Rv32.Core.fast_retired soc.Vp.Soc.core > 0);
  let soc, reason = run_bc ~tracking:false ~block_cache:false smc_cross_block in
  expect_exit reason 201;
  check_int "no fast path on the plain VP reference" 0
    (Rv32.Core.fast_retired soc.Vp.Soc.core)

(* Pin the per-instruction hook contract documented on Core.set_trace:
   the hook sees every retired instruction exactly once, in retirement
   order, with its fetch pc — including instructions retired from cached
   blocks and on the untainted fast path — and installing it neither
   flushes blocks nor disables the fast path. The tracing subsystem
   (lib/trace) depends on this stream being complete. *)
let hook_pc_stream ~tracking ~block_cache build =
  let p = A.create () in
  build p;
  let img = A.assemble p in
  let policy = trivial_policy () in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking ~block_cache () in
  Vp.Soc.load_image soc img;
  let pcs = ref [] in
  Vp.Soc.set_trace soc (Some (fun pc _ -> pcs := pc :: !pcs));
  let reason = Vp.Soc.run_for_instructions soc 200_000 in
  (soc, reason, List.rev !pcs)

let test_hook_sees_cached_blocks () =
  let reference = ref None in
  List.iter
    (fun (tracking, block_cache) ->
      let ctx =
        Printf.sprintf "hook (tracking=%b cache=%b)" tracking block_cache
      in
      let soc, reason, pcs = hook_pc_stream ~tracking ~block_cache smc_cross_block in
      expect_exit reason 201;
      check_int
        (ctx ^ ": one hook call per retired instruction")
        (Rv32.Core.instret soc.Vp.Soc.core)
        (List.length pcs);
      (if block_cache then
         check_bool (ctx ^ ": hook does not disable block building") true
           (Rv32.Core.blocks_built soc.Vp.Soc.core > 0));
      (if tracking && block_cache then
         check_bool (ctx ^ ": hook does not disable the fast path") true
           (Rv32.Core.fast_retired soc.Vp.Soc.core > 0));
      match !reference with
      | None -> reference := Some pcs
      | Some r -> check_bool (ctx ^ ": pc stream identical") true (r = pcs))
    [ (false, true); (false, false); (true, true); (true, false) ]

let () =
  Alcotest.run "blockcache"
    [
      ( "invalidation",
        [
          Alcotest.test_case "self-modifying code, cross-block" `Quick
            test_smc_cross_block;
          Alcotest.test_case "self-modifying code, in-block" `Quick
            test_smc_in_block;
          Alcotest.test_case "dma write into cached code" `Quick
            test_dma_into_code;
        ] );
      ( "pages",
        [
          Alcotest.test_case "block across a page boundary" `Quick
            test_block_across_pages;
          Alcotest.test_case "loop on the last page of RAM" `Quick
            test_loop_on_last_page;
          Alcotest.test_case "dma into a never-decoded page" `Quick
            test_dma_into_fresh_page;
        ] );
      ( "counters",
        [ Alcotest.test_case "block/fast-path counters" `Quick test_counters ]
      );
      ( "hook",
        [
          Alcotest.test_case "per-instruction hook sees cached blocks" `Quick
            test_hook_sees_cached_blocks;
        ] );
    ]
