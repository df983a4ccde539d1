type config = {
  seed : int;
  programs : int;
  size : int;
  shrink : bool;
  shrink_dir : string option;
  graph_dir : string option;
  props_every : int;
  inject : string option;
  cache_diff : bool;
  snap_diff : bool;
  jobs : int;
  shard_size : int;
  checkpoint : string option;
  resume : string option;
}

let default =
  {
    seed = 0x5eed;
    programs = 200;
    size = 30;
    shrink = true;
    shrink_dir = None;
    graph_dir = None;
    props_every = 5;
    inject = None;
    cache_diff = false;
    snap_diff = false;
    jobs = 1;
    shard_size = 25;
    checkpoint = None;
    resume = None;
  }

(* Every config field that determines the campaign's deterministic
   stream — and therefore what a checkpointed shard payload means. A
   checkpoint written under one fingerprint refuses to resume under
   another. [jobs] and the checkpoint paths themselves are
   deliberately absent: they cannot change any shard's output (pinned by
   test_parallel), so a campaign may resume with a different worker
   count. *)
let fingerprint cfg =
  let opt = function None -> "-" | Some s -> "+" ^ s in
  String.concat "|"
    [
      "difftest-campaign-v1";
      string_of_int cfg.seed;
      string_of_int cfg.programs;
      string_of_int cfg.size;
      string_of_bool cfg.shrink;
      opt cfg.shrink_dir;
      opt cfg.graph_dir;
      string_of_int cfg.props_every;
      opt cfg.inject;
      string_of_bool cfg.cache_diff;
      string_of_bool cfg.snap_diff;
      string_of_int cfg.shard_size;
    ]

type failure = {
  f_kind : string;
  f_detail : string;
  f_asm : string;
  f_file : string option;
  f_blocks : int;
  f_insns : int;
  f_evals : int;
  f_forensics : string option;
  f_graph : string option;
}

type report = {
  programs : int;
  completed : int;
  golden_mismatches : int;
  transparency_mismatches : int;
  purity_failures : int;
  monotonicity_failures : int;
  trap_taint_failures : int;
  declass_violations : int;
  cache_mismatches : int;
  snapshot_mismatches : int;
  injected_hits : int;
  violations : int;
  checks : int;
  errors : int;
  coverage : Coverage.t;
  failures : failure list;
}

let healthy r =
  r.golden_mismatches = 0 && r.transparency_mismatches = 0
  && r.purity_failures = 0 && r.monotonicity_failures = 0
  && r.trap_taint_failures = 0
  && r.declass_violations = 0 && r.cache_mismatches = 0
  && r.snapshot_mismatches = 0 && r.errors = 0

(* Mutable accumulator threaded through the run loop. *)
type acc = {
  mutable a_completed : int;
  mutable a_golden : int;
  mutable a_transparency : int;
  mutable a_purity : int;
  mutable a_monotonic : int;
  mutable a_trap_taint : int;
  mutable a_declass : int;
  mutable a_cache : int;
  mutable a_snapshot : int;
  mutable a_injected : int;
  mutable a_violations : int;
  mutable a_checks : int;
  mutable a_errors : int;
  mutable a_failures : failure list;
}

(* --- Shard-output checkpoint codec ----------------------------------- *)

(* A completed shard's output, encoded as a DIFTVPCP payload
   (lib/parallelkit/checkpoint.ml). The encoding must round-trip the
   merged report byte-for-byte: every counter, the failure list in its
   in-shard order (newest first), and the coverage table. *)
let encode_shard ((acc : acc), cov) =
  let open Snapshot.Codec in
  let w = writer () in
  List.iter (put_varint w)
    [
      acc.a_completed; acc.a_golden; acc.a_transparency; acc.a_purity;
      acc.a_monotonic; acc.a_trap_taint; acc.a_declass; acc.a_cache;
      acc.a_snapshot; acc.a_injected; acc.a_violations;
      acc.a_checks; acc.a_errors;
    ];
  let put_opt w o =
    put_bool w (Option.is_some o);
    Option.iter (put_string w) o
  in
  put_list w
    (fun w f ->
      put_string w f.f_kind;
      put_string w f.f_detail;
      put_string w f.f_asm;
      put_opt w f.f_file;
      put_varint w f.f_blocks;
      put_varint w f.f_insns;
      put_varint w f.f_evals;
      put_opt w f.f_forensics;
      put_opt w f.f_graph)
    acc.a_failures;
  Coverage.save w cov;
  contents w

let decode_shard payload =
  let open Snapshot.Codec in
  let r = reader payload in
  let c () = get_varint r in
  let a_completed = c () in
  let a_golden = c () in
  let a_transparency = c () in
  let a_purity = c () in
  let a_monotonic = c () in
  let a_trap_taint = c () in
  let a_declass = c () in
  let a_cache = c () in
  let a_snapshot = c () in
  let a_injected = c () in
  let a_violations = c () in
  let a_checks = c () in
  let a_errors = c () in
  let get_opt r = if get_bool r then Some (get_string r) else None in
  let a_failures =
    get_list r (fun r ->
        let f_kind = get_string r in
        let f_detail = get_string r in
        let f_asm = get_string r in
        let f_file = get_opt r in
        let f_blocks = get_varint r in
        let f_insns = get_varint r in
        let f_evals = get_varint r in
        let f_forensics = get_opt r in
        let f_graph = get_opt r in
        { f_kind; f_detail; f_asm; f_file; f_blocks; f_insns; f_evals;
          f_forensics; f_graph })
  in
  let cov = Coverage.load r in
  expect_end r;
  ( {
      a_completed; a_golden; a_transparency; a_purity; a_monotonic;
      a_trap_taint; a_declass; a_cache; a_snapshot; a_injected;
      a_violations; a_checks; a_errors; a_failures;
    },
    cov )

(* Forensic replay of a shrunk reproducer: re-run it on the tracked VP
   with the tracing subsystem attached and render the resulting report
   (execution window plus any provenance recorded).  The reproducer
   already failed once, so anything going wrong here — including the
   replay trapping — must not lose the failure itself. *)
let forensic_replay ~graph prog =
  try
    let img = Prog.assemble prog in
    let policy = Oracle.unrestricted_policy () in
    let tracer = Trace.Tracer.create policy.Dift.Policy.lattice in
    let sink =
      if graph then
        Some (Trace.Graph.attach ~context:"difftest shrunk reproducer" tracer)
      else None
    in
    (try ignore (Oracle.run_vp ~tracking:true ~policy ~tracer img)
     with _ -> ());
    let store = Option.map Trace.Graph.finish sink in
    if Trace.Tracer.events_recorded tracer = 0 then (None, store)
    else
      ( Some
          (Trace.Forensics.to_string
             (Trace.Forensics.make ~context:"difftest shrunk reproducer"
                tracer ())),
        store )
  with _ -> (None, None)

let executes_opcode op prog =
  let cov = Coverage.create () in
  (try ignore (Oracle.run ~trace:(Coverage.hook cov) (Prog.assemble prog))
   with _ -> ());
  Coverage.count cov op > 0

let record_failure cfg acc ~index ~kind ~detail ~predicate prog =
  let shrunk, stats =
    if cfg.shrink then Shrink.minimize predicate prog
    else (prog, Shrink.{ evals = 0; from_blocks = Prog.block_count prog;
                         from_insns = Prog.insn_count prog;
                         to_blocks = Prog.block_count prog;
                         to_insns = Prog.insn_count prog })
  in
  let banner =
    [
      Printf.sprintf "difftest reproducer: %s" kind;
      Printf.sprintf "seed 0x%x, program %d; %s" cfg.seed index detail;
      Printf.sprintf "shrunk %d blocks / %d insns -> %d blocks / %d insns (%d evals)"
        stats.Shrink.from_blocks stats.Shrink.from_insns stats.Shrink.to_blocks
        stats.Shrink.to_insns stats.Shrink.evals;
    ]
  in
  let asm = Prog.to_asm ~banner shrunk in
  let forensics, store =
    forensic_replay ~graph:(cfg.graph_dir <> None) shrunk
  in
  let file =
    match cfg.shrink_dir with
    | None -> None
    | Some dir ->
        let path =
          Filename.concat dir (Printf.sprintf "repro_%08x_%d.s" cfg.seed index)
        in
        Snapshot.Io.write_file_atomic path asm;
        (match forensics with
        | Some text ->
            let fpath =
              Filename.concat dir
                (Printf.sprintf "repro_%08x_%d.forensics.txt" cfg.seed index)
            in
            Snapshot.Io.write_file_atomic fpath (text ^ "\n")
        | None -> ());
        Some path
  in
  let graph_file =
    match (cfg.graph_dir, store) with
    | Some dir, Some store ->
        let gpath =
          Filename.concat dir
            (Printf.sprintf "repro_%08x_%d.iftg" cfg.seed index)
        in
        Iftgraph.Store.write_file store gpath;
        Some gpath
    | _ -> None
  in
  acc.a_failures <-
    {
      f_kind = kind;
      f_detail = detail;
      f_asm = asm;
      f_file = file;
      f_blocks = Prog.block_count shrunk;
      f_insns = Prog.insn_count shrunk;
      f_evals = stats.Shrink.evals;
      f_forensics = forensics;
      f_graph = graph_file;
    }
    :: acc.a_failures

(* One shard of the campaign: a contiguous slice of the program indices,
   generated from the shard's own derived RNG and guided by the shard's
   own coverage table, accumulating into a private [acc].  Shards are the
   unit of parallelism — the shard structure depends only on
   (programs, shard_size), never on the worker count, so any [jobs]
   produces the same shard outputs and therefore the same merged report.
   Shard 0 keeps the campaign seed unchanged (see
   {!Parallelkit.Campaign.derive_seed}): a campaign that fits in one
   shard reproduces the historical sequential stream exactly.

   Everything a shard touches is private to it (fresh RNGs, fresh
   coverage table, fresh SoCs per oracle call); the only shared value is
   the immutable warm-boot blob.  Reproducer files are keyed by the
   global program index, so concurrent shards never collide on paths. *)
let run_shard cfg warm (sh : Parallelkit.Campaign.shard) =
  let rng = Rng.create ~seed:sh.Parallelkit.Campaign.seed in
  let prng =
    Rng.create ~seed:(sh.Parallelkit.Campaign.seed lxor 0x9e3779b9)
  in
  let cov = Coverage.create () in
  let acc =
    {
      a_completed = 0;
      a_golden = 0;
      a_transparency = 0;
      a_purity = 0;
      a_monotonic = 0;
      a_trap_taint = 0;
      a_declass = 0;
      a_cache = 0;
      a_snapshot = 0;
      a_injected = 0;
      a_violations = 0;
      a_checks = 0;
      a_errors = 0;
      a_failures = [];
    }
  in
  for local = 1 to sh.Parallelkit.Campaign.length do
    let i = sh.Parallelkit.Campaign.start + local in
    match
      let prog = Gen.program rng cov ~size:cfg.size in
      let img = Prog.assemble prog in
      let policy = Gen.policy rng img in
      let percov = Coverage.create () in
      let res =
        Oracle.run ~policy ~trace:(Coverage.hook percov) ~warm img
      in
      Coverage.merge ~into:cov percov;
      acc.a_violations <- acc.a_violations + res.Oracle.violations;
      acc.a_checks <- acc.a_checks + res.Oracle.checks;
      let all_exited =
        List.for_all
          (fun (o : Oracle.outcome) ->
            match o.Oracle.stop with Oracle.Exited _ -> true | _ -> false)
          [ res.Oracle.golden; res.Oracle.vp; res.Oracle.vpp ]
      in
      if all_exited then acc.a_completed <- acc.a_completed + 1;
      (* 1. ISS correctness: golden model vs plain VP. *)
      (match Oracle.explain res.Oracle.golden res.Oracle.vp with
      | Some detail ->
          acc.a_golden <- acc.a_golden + 1;
          record_failure cfg acc ~index:i ~kind:"golden-vs-vp" ~detail
            ~predicate:(fun p ->
              try
                let r = Oracle.run (Prog.assemble p) in
                not (Oracle.agree r.Oracle.golden r.Oracle.vp)
              with _ -> false)
            prog
      | None -> ());
      (* 2. DIFT transparency: plain VP vs VP+ under the random policy. *)
      (match Oracle.explain res.Oracle.vp res.Oracle.vpp with
      | Some detail ->
          acc.a_transparency <- acc.a_transparency + 1;
          record_failure cfg acc ~index:i ~kind:"transparency" ~detail
            ~predicate:(fun p ->
              try
                (* Same policy as the failing run: classification regions
                   address RAM absolutely, so they stay valid as the
                   program shrinks. *)
                let r = Oracle.run ~policy (Prog.assemble p) in
                not (Oracle.agree r.Oracle.vp r.Oracle.vpp)
              with _ -> false)
            prog
      | None -> ());
      (* 3. Declassification soundness. *)
      (match Props.declass_free res with
      | Props.Failed detail ->
          acc.a_declass <- acc.a_declass + 1;
          record_failure cfg acc ~index:i ~kind:"declassification" ~detail
            ~predicate:(fun p ->
              try (Oracle.run (Prog.assemble p)).Oracle.declassifications > 0
              with _ -> false)
            prog
      | Props.Ok -> ());
      (* 4. Taint-metamorphic properties, on a subsample. *)
      if cfg.props_every > 0 && i mod cfg.props_every = 0 then begin
        (match Props.purity img with
        | Props.Failed detail ->
            acc.a_purity <- acc.a_purity + 1;
            record_failure cfg acc ~index:i ~kind:"purity" ~detail
              ~predicate:(fun p ->
                try
                  match Props.purity (Prog.assemble p) with
                  | Props.Failed _ -> true
                  | Props.Ok -> false
                with _ -> false)
              prog
        | Props.Ok -> ());
        (match Props.trap_entry_pub img with
        | Props.Failed detail ->
            acc.a_trap_taint <- acc.a_trap_taint + 1;
            record_failure cfg acc ~index:i ~kind:"trap-entry-taint" ~detail
              ~predicate:(fun p ->
                try
                  match Props.trap_entry_pub (Prog.assemble p) with
                  | Props.Failed _ -> true
                  | Props.Ok -> false
                with _ -> false)
              prog
        | Props.Ok -> ());
        match Props.monotonic prng img with
        | Props.Failed detail ->
            acc.a_monotonic <- acc.a_monotonic + 1;
            record_failure cfg acc ~index:i ~kind:"monotonicity" ~detail
              ~predicate:(fun p ->
                try
                  match
                    Props.monotonic (Rng.create ~seed:(cfg.seed + i)) (Prog.assemble p)
                  with
                  | Props.Failed _ -> true
                  | Props.Ok -> false
                with _ -> false)
              prog
        | Props.Ok -> ()
      end;
      (* 5. Compiled-vs-reference: the same program on the single-step
         reference (block cache off) must agree with the compiled runs
         already taken by the oracle above, on both flavours — including
         taint tags on VP+. *)
      if cfg.cache_diff then begin
        let nocache_vpp, _ =
          Oracle.run_vp ~tracking:true ~block_cache:false ~policy img
        in
        (match Oracle.explain res.Oracle.vpp nocache_vpp with
        | Some detail ->
            acc.a_cache <- acc.a_cache + 1;
            record_failure cfg acc ~index:i ~kind:"cache-vs-nocache"
              ~detail:(Printf.sprintf "VP+ cached vs single-step: %s" detail)
              ~predicate:(fun p ->
                try
                  let img = Prog.assemble p in
                  let cached, _ = Oracle.run_vp ~tracking:true ~policy img in
                  let plain, _ =
                    Oracle.run_vp ~tracking:true ~block_cache:false ~policy img
                  in
                  not (Oracle.agree cached plain)
                with _ -> false)
              prog
        | None -> ());
        let nocache_vp, _ =
          Oracle.run_vp ~tracking:false ~block_cache:false img
        in
        match Oracle.explain res.Oracle.vp nocache_vp with
        | Some detail ->
            acc.a_cache <- acc.a_cache + 1;
            record_failure cfg acc ~index:i ~kind:"cache-vs-nocache"
              ~detail:(Printf.sprintf "VP cached vs single-step: %s" detail)
              ~predicate:(fun p ->
                try
                  let img = Prog.assemble p in
                  let cached, _ = Oracle.run_vp ~tracking:false img in
                  let plain, _ =
                    Oracle.run_vp ~tracking:false ~block_cache:false img
                  in
                  not (Oracle.agree cached plain)
                with _ -> false)
              prog
        | None -> ()
      end;
      (* 6. Snapshot transparency: the same program run in checkpointed
         segments — pause, save, restore into a fresh SoC, continue —
         must agree with an uninterrupted run on the same time-sync
         grid. The shrink predicate replays the whole snapshot cycle. *)
      if cfg.snap_diff then begin
        let straight, _ =
          Oracle.run_vp ~tracking:true ~quantum:Oracle.snap_quantum ~policy img
        in
        let snap, _ = Oracle.run_vp_snapshot ~tracking:true ~policy img in
        match Oracle.explain straight snap with
        | Some detail ->
            acc.a_snapshot <- acc.a_snapshot + 1;
            record_failure cfg acc ~index:i ~kind:"snapshot-vs-straight"
              ~detail:
                (Printf.sprintf "checkpointed vs uninterrupted: %s" detail)
              ~predicate:(fun p ->
                try
                  let img = Prog.assemble p in
                  let straight, _ =
                    Oracle.run_vp ~tracking:true ~quantum:Oracle.snap_quantum
                      ~policy img
                  in
                  let snap, _ =
                    Oracle.run_vp_snapshot ~tracking:true ~policy img
                  in
                  not (Oracle.agree straight snap)
                with _ -> false)
              prog
        | None -> ()
      end;
      (* 7. Fault injection: validate the detect-shrink-report pipeline. *)
      match cfg.inject with
      | Some op when Coverage.count percov op > 0 ->
          acc.a_injected <- acc.a_injected + 1;
          record_failure cfg acc ~index:i
            ~kind:(Printf.sprintf "injected:%s" op)
            ~detail:(Printf.sprintf "program executed '%s' (injected fault)" op)
            ~predicate:(executes_opcode op) prog
      | _ -> ()
    with
    | () -> ()
    | exception _ -> acc.a_errors <- acc.a_errors + 1
  done;
  (acc, cov)

let run ?(config = default) () =
  let cfg = config in
  let shards =
    Parallelkit.Campaign.shards ~seed:cfg.seed ~total:cfg.programs
      ~shard_size:cfg.shard_size
  in
  let nshards = Array.length shards in
  let fp = fingerprint cfg in
  (* Resume: load the checkpoint, refuse one from a different campaign,
     and decode every recorded shard before running anything — a corrupt
     or truncated container fails cleanly here, with no partial merge
     and no oracle work spent. *)
  let outs = Array.make nshards None in
  let ckpt =
    match cfg.resume with
    | None -> Parallelkit.Checkpoint.create ~fingerprint:fp ~shards:nshards
    | Some path ->
        let c = Parallelkit.Checkpoint.load path in
        Parallelkit.Checkpoint.require c ~fingerprint:fp ~shards:nshards;
        List.iter
          (fun (i, payload) -> outs.(i) <- Some (decode_shard payload))
          (Parallelkit.Checkpoint.entries c);
        c
  in
  let pending =
    Array.of_list
      (List.filter
         (fun (sh : Parallelkit.Campaign.shard) ->
           outs.(sh.Parallelkit.Campaign.index) = None)
         (Array.to_list shards))
  in
  (* Checkpointing rides on the pool's caller-side completion hook:
     every finished shard is folded into the container and the file is
     atomically republished. Completion order varies between runs, so
     the set of shards a killed run saved is timing-dependent — but each
     payload is deterministic, so the post-resume merge is not. *)
  let ckpt = ref ckpt in
  let on_done =
    Option.map
      (fun path pi out ->
        let shard = pending.(pi).Parallelkit.Campaign.index in
        ckpt :=
          Parallelkit.Checkpoint.add !ckpt ~shard ~payload:(encode_shard out);
        Parallelkit.Checkpoint.save !ckpt path)
      cfg.checkpoint
  in
  let fresh =
    if Array.length pending = 0 then [||]
    else
      let warm = Oracle.warm_boot () in
      Parallelkit.Pool.map ?on_done ~jobs:cfg.jobs (run_shard cfg warm) pending
  in
  Array.iteri
    (fun pi out -> outs.(pending.(pi).Parallelkit.Campaign.index) <- Some out)
    fresh;
  let outs =
    Array.map
      (function Some o -> o | None -> assert false (* all shards filled *))
      outs
  in
  (* Merge in shard-index order.  Counters are commutative sums and the
     coverage merge is a per-key sum, so the order is immaterial there;
     the failure list is rebuilt newest-first (the highest-index shard's
     failures in front, each shard's list already newest-first) to match
     the sequential accumulation exactly. *)
  let cov = Coverage.create () in
  Array.iter (fun (_, c) -> Coverage.merge ~into:cov c) outs;
  let sum f = Array.fold_left (fun t (a, _) -> t + f a) 0 outs in
  let failures =
    Array.fold_left (fun tail (a, _) -> a.a_failures @ tail) [] outs
  in
  {
    programs = cfg.programs;
    completed = sum (fun a -> a.a_completed);
    golden_mismatches = sum (fun a -> a.a_golden);
    transparency_mismatches = sum (fun a -> a.a_transparency);
    purity_failures = sum (fun a -> a.a_purity);
    monotonicity_failures = sum (fun a -> a.a_monotonic);
    trap_taint_failures = sum (fun a -> a.a_trap_taint);
    declass_violations = sum (fun a -> a.a_declass);
    cache_mismatches = sum (fun a -> a.a_cache);
    snapshot_mismatches = sum (fun a -> a.a_snapshot);
    injected_hits = sum (fun a -> a.a_injected);
    violations = sum (fun a -> a.a_violations);
    checks = sum (fun a -> a.a_checks);
    errors = sum (fun a -> a.a_errors);
    coverage = cov;
    failures;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>difftest: %d programs, %d completed on all three models@,\
     golden-vs-VP mismatches: %d@,\
     VP-vs-VP+ transparency mismatches: %d@,\
     purity failures: %d, monotonicity failures: %d, declassification violations: %d@,\
     trap-entry taint failures: %d@,\
     block-cache mismatches: %d@,\
     snapshot-vs-straight mismatches: %d@,\
     injected-fault hits: %d@,\
     %d clearance checks, %d policy violations recorded (informational)@,\
     harness errors: %d@,%a"
    r.programs r.completed r.golden_mismatches r.transparency_mismatches
    r.purity_failures r.monotonicity_failures r.declass_violations
    r.trap_taint_failures
    r.cache_mismatches r.snapshot_mismatches r.injected_hits r.checks r.violations r.errors
    Coverage.pp r.coverage;
  List.iter
    (fun f ->
      Format.fprintf fmt "@,@[<v>FAILURE %s: %s@,  shrunk to %d blocks / %d insns (%d oracle evals)%s@]"
        f.f_kind f.f_detail f.f_blocks f.f_insns f.f_evals
        (match f.f_file with
        | Some p ->
            Printf.sprintf "\n  reproducer written to %s%s%s" p
              (if f.f_forensics <> None then " (+ .forensics.txt)" else "")
              (if f.f_graph <> None then " (+ .iftg graph store)" else "")
        | None ->
            if f.f_graph <> None then
              Printf.sprintf "\n  graph store written to %s"
                (Option.get f.f_graph)
            else ""))
    (List.rev r.failures);
  Format.fprintf fmt "@]"
