(* Metric names, units, directions and bounds, and the order statistics
   every timing is reported with. BENCHMARK.json repeats the end-to-end
   and per-layer tables; the tier-1 test checks the two agree. *)

type better = Higher | Lower

type spec = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
      (** Share of the base median by which the metric may worsen before a
          change counts as a regression ([None] for per-layer metrics). *)
}

let e name unit better bound = { name; unit; better; bound = Some bound }
let l name unit better = { name; unit; better; bound = None }

let end_to_end =
  [
    e "vp_mips" "MIPS" Higher 0.25;
    e "vpp_mips" "MIPS" Higher 0.25;
    e "dift_overhead" "x" Lower 0.10;
    e "trace_mips" "MIPS" Higher 0.25;
    e "programs_per_s" "1/s" Higher 0.25;
    e "setup_s" "s" Lower 0.25;
    e "max_rss_mb" "MB" Lower 0.10;
  ]

(* Reported beside the end-to-end metrics but not among them: it is 0 on
   every healthy run, so it travels as the result's attempted/failed. *)
let fail_rate = e "fail_rate" "ratio" Lower 0.

let tx_targets = [ "uart"; "sensor"; "can"; "aes"; "dma"; "plic"; "clint"; "gpio"; "wdt" ]

let per_layer =
  [
    l "firmware.build_s" "s" Lower;
    l "vp.create_s" "s" Lower;
    l "vp.load_image_s" "s" Lower;
    l "vp.run_s.vp" "s" Lower;
    l "vp.run_s.vpp" "s" Lower;
    l "vp.run_s.trace" "s" Lower;
    l "rv32.instret" "count" Lower;
    l "rv32.fast_share" "ratio" Higher;
    l "rv32.blocks_built" "count" Lower;
    l "rv32.superblocks_built" "count" Higher;
    l "rv32.insns_per_block_built" "insn/block" Higher;
    l "rv32.chain_hits_per_kinsn" "1/kinsn" Higher;
    l "rv32.ic_hit_ratio" "ratio" Higher;
    l "rv32.base_s_per_minsn" "s/Minsn" Lower;
    l "dift.tags_s_per_minsn" "s/Minsn" Lower;
    l "dift.checks_s_per_minsn" "s/Minsn" Lower;
    l "dift.checks_per_insn" "1/insn" Lower;
    l "dift.violations" "count" Lower;
    l "dift.declassifications" "count" Lower;
    l "sysc.sim_ns" "ns" Lower;
    l "sysc.deltas_per_kinsn" "1/kinsn" Lower;
    l "sysc.rtf" "ratio" Higher;
    l "tlm.tx_per_kinsn" "1/kinsn" Lower;
  ]
  @ List.map (fun t -> l ("tlm.tx." ^ t) "count" Lower) tx_targets
  @ [
      l "trace.s_per_minsn" "s/Minsn" Lower;
      l "trace.events_per_insn" "1/insn" Lower;
      l "trace.graph_nodes" "count" Lower;
      l "trace.graph_edges" "count" Lower;
      l "trace.dropped" "count" Lower;
      l "trace.finish_s" "s" Lower;
      l "iftgraph.store_bytes" "bytes" Lower;
      l "iftgraph.encode_s" "s" Lower;
      l "iftgraph.ingest_s" "s" Lower;
      l "iftgraph.query_s" "s" Lower;
      l "iftgraph.memo_hits" "count" Higher;
      l "snapshot.warm_boot_s" "s" Lower;
      l "snapshot.blob_bytes" "bytes" Lower;
      l "host.minor_words_per_insn" "words/insn" Lower;
      l "host.major_collections" "count" Lower;
    ]

(* Printed by the traced run and kept in ledger.json, but not part of the
   per-layer contract: the ladder restates vp.run_s per leg as MIPS, and
   the difftest rows exist only on fuzz-campaign. *)
let extra_layer =
  [
    l "ladder.vp_mips" "MIPS" Higher;
    l "ladder.tags_mips" "MIPS" Higher;
    l "ladder.vpp_mips" "MIPS" Higher;
    l "ladder.trace_mips" "MIPS" Higher;
    l "difftest.gen_s" "s" Lower;
    l "difftest.assemble_s" "s" Lower;
    l "difftest.golden_s" "s" Lower;
    l "difftest.vp_s" "s" Lower;
    l "difftest.vpp_s" "s" Lower;
    l "difftest.insns_per_program" "insn" Lower;
  ]

let find name =
  List.find (fun s -> s.name = name)
    ((fail_rate :: end_to_end) @ per_layer @ extra_layer)

type summary = {
  median : float;
  p25 : float;
  p75 : float;
  p90 : float;
  n : int;
  samples : float list;  (** In measurement order. *)
}

(* Linear interpolation between the closest ranks. *)
let quantile sorted q =
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let summarize samples =
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  let q = quantile sorted in
  {
    median = q 0.5;
    p25 = q 0.25;
    p75 = q 0.75;
    p90 = q 0.9;
    n = Array.length sorted;
    samples;
  }
