(** The coverage-guided differential-testing loop.

    Each iteration generates a structured random program (weights fed by
    the global coverage table), runs the three-way {!Oracle} once, and
    walks one table of checks over it: golden and transparency agreement,
    declassification soundness, the {!Props} metamorphic properties on a
    subsample, and the optional compiled-vs-reference, snapshot and
    injected-fault checks. Each check is a single test that both detects
    a failure and, re-run on candidate programs, is the shrinker's
    predicate — so a failing program shrinks to a minimal reproducer of
    the same failure, rendered as a standalone [.s] file. *)

type config = {
  seed : int;
  programs : int;
  size : int;  (** Blocks per program (~3 instructions each). *)
  shrink : bool;  (** Minimise failing programs (default true). *)
  shrink_dir : string option;
      (** Where to write reproducer [.s] files; [None] keeps them only in
          the report. *)
  graph_dir : string option;
      (** Where to write each reproducer's IFT provenance-graph store
          ([repro_*.iftg], from the same tracked forensic replay); [None]
          disables graph capture. Query the stores with
          [vp_run analyze --store DIR]. *)
  props_every : int;  (** Check metamorphic properties every Nth program. *)
  inject : string option;
      (** Fault injection for end-to-end validation of the
          detect-shrink-report pipeline: treat any program executing this
          opcode mnemonic as failing (a stand-in for a real tag-propagation
          bug in that instruction). *)
  cache_diff : bool;
      (** Additionally re-run every program on the single-step reference
          ([~block_cache:false], both VP flavours) and require
          architectural agreement, taint tags included, with the compiled
          runs — a differential check of the block compiler itself
          (see [docs/perf.md]). Off by default: it doubles the oracle
          cost. *)
  snap_diff : bool;
      (** Additionally run every program chopped into checkpointed
          segments (pause, {!Vp.Soc.save}, restore into a fresh SoC,
          continue) and require architectural agreement with an
          uninterrupted run on the same time-sync grid — a differential
          check of the snapshot machinery. Off by default: it roughly
          triples the oracle cost. *)
  jobs : int;
      (** Worker domains running shards concurrently (default 1).
          [jobs <= 1] takes the exact sequential code path (no domains
          spawned). The report is byte-identical for every value: the
          campaign is split into fixed shards whose structure depends
          only on [programs] and [shard_size] (see
          {!Parallelkit.Campaign}), each shard runs from its own derived
          RNG and coverage table, and the merge is order-independent. *)
  shard_size : int;
      (** Programs per shard (default 25) — the parallel grain. Part of
          the determinism contract: changing it changes the generated
          stream (campaigns of at most one shard excepted). *)
  checkpoint : string option;
      (** Checkpoint completed-shard results to this path: after every
          shard finishes, the DIFTVPCP container
          ({!Parallelkit.Checkpoint}) is atomically republished
          (temp file + rename), so a killed campaign loses at most the
          shards still in flight. [None] (default) disables. *)
  resume : string option;
      (** Resume from a checkpoint written by an earlier run of the
          {e same} campaign: shards recorded there are decoded instead
          of re-run. The checkpoint's fingerprint must match every
          stream-determining config field (seed, programs, size, shrink
          settings, props_every, inject, cache/snap diff, shard_size) — [jobs] may differ freely; a
          mismatch raises {!Parallelkit.Checkpoint.Mismatch}, a corrupt
          or truncated file [Snapshot.Codec.Corrupt], in both cases
          before any oracle work runs. The merged report is
          byte-identical to an uninterrupted run's. Combine with
          [checkpoint] (typically the same path) to keep checkpointing
          the still-pending shards. *)
}

val default : config
(** seed 0x5eed, 200 programs of 30 blocks, shrinking on, no file output
    (no reproducer or graph-store directories), properties every 5th
    program, no injection, no cache / snapshot differential; sequential
    ([jobs = 1]), 25-program shards, no checkpointing or resume. *)

type failure = {
  f_kind : string;
      (** ["golden-vs-vp"], ["transparency"], ["purity"], ["monotonicity"],
          ["trap-entry-taint"], ["declassification"], ["cache-vs-nocache"],
          ["snapshot-vs-straight"] or ["injected:<opcode>"]. *)
  f_detail : string;  (** First observed difference / property message. *)
  f_asm : string;  (** The (shrunk) reproducer as [.s] source. *)
  f_file : string option;  (** Path written, when [shrink_dir] is set. *)
  f_blocks : int;
  f_insns : int;
  f_evals : int;  (** Oracle evaluations the shrinker spent. *)
  f_forensics : string option;
      (** Rendered {!Trace.Forensics} report from replaying the shrunk
          reproducer on the tracked VP with tracing attached (execution
          window + provenance). [None] if the replay recorded nothing or
          itself failed. Written as [repro_*.forensics.txt] next to the
          [.s] file when [shrink_dir] is set. *)
  f_graph : string option;
      (** Path of the [repro_*.iftg] graph store written from the same
          replay, when [graph_dir] is set. *)
}

type report = {
  programs : int;
  completed : int;  (** Ran to the exit ecall on all three models. *)
  golden_mismatches : int;  (** Golden model vs plain VP (must be 0). *)
  transparency_mismatches : int;  (** Plain VP vs VP+ (must be 0). *)
  purity_failures : int;  (** Taint from nowhere (must be 0). *)
  monotonicity_failures : int;  (** Non-monotone taint (must be 0). *)
  trap_taint_failures : int;
      (** Trap CSRs tainted by trap entry ({!Props.trap_entry_pub},
          must be 0). *)
  declass_violations : int;  (** Unsanctioned declassification (must be 0). *)
  cache_mismatches : int;
      (** Compiled vs single-step reference disagreements (state or
          tags), counted only when [cache_diff] is set (must be 0). *)
  snapshot_mismatches : int;
      (** Checkpointed vs uninterrupted execution disagreements, counted
          only when [snap_diff] is set (must be 0). *)
  injected_hits : int;  (** Programs the injected fault flagged. *)
  violations : int;  (** Policy violations recorded (informational). *)
  checks : int;  (** Clearance checks performed (informational). *)
  errors : int;  (** Harness-level exceptions (must be 0). *)
  coverage : Coverage.t;
  failures : failure list;  (** Newest first. *)
}

val healthy : report -> bool
(** Every must-be-zero counter is zero. Injected hits are excluded — they
    are deliberate; callers demanding a clean exit should also check
    [injected_hits = 0]. *)

val run : ?config:config -> unit -> report
(** Run the campaign: shard the program range, restore any shards a
    resumed checkpoint already completed, run the rest on a
    {!Parallelkit.Pool} of [config.jobs] domains (sequentially
    in-process when [jobs <= 1]), and merge the shard
    outputs in shard-index order. The report — counters, merged
    coverage, failure list and shrunk reproducer sources — is
    byte-identical for every [jobs] value and across any
    kill/checkpoint/resume split; the tier-1 determinism tests pin both.
    Shrinking runs inside the worker that found the failure. Every
    oracle call boots its platforms cold. *)

val pp_report : Format.formatter -> report -> unit
