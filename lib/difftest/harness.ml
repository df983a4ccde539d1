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

(* Counter slots of a shard's tally, in checkpoint payload order. *)
let completed = 0
and golden = 1
and transparency = 2
and purity = 3
and monotonic = 4
and trap_taint = 5
and declass = 6
and cache = 7
and snapshot = 8
and injected = 9
and violations = 10
and checks = 11
and errors = 12

let slots = 13

(* One shard's output, accumulated in place by [run_shard]. *)
type tally = { counts : int array; mutable failures : failure list }

let bump t slot n = t.counts.(slot) <- t.counts.(slot) + n

(* --- Shard-output checkpoint codec ----------------------------------- *)

(* A completed shard's output, encoded as a DIFTVPCP payload
   (lib/parallelkit/checkpoint.ml). The encoding must round-trip the
   merged report byte-for-byte: every counter, the failure list in its
   in-shard order (newest first), and the coverage table. *)
let encode_shard (t, cov) =
  let open Snapshot.Codec in
  let w = writer () in
  Array.iter (put_varint w) t.counts;
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
    t.failures;
  Coverage.save w cov;
  contents w

let decode_shard payload =
  let open Snapshot.Codec in
  let r = reader payload in
  let counts = Array.init slots (fun _ -> get_varint r) in
  let get_opt r = if get_bool r then Some (get_string r) else None in
  let failures =
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
  ({ counts; failures }, cov)

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

let record_failure cfg tally ~index ~kind ~detail ~predicate prog =
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
  tally.failures <-
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
    :: tally.failures

(* One row of the check table: a failure kind, the counter slot it bumps,
   and a test returning the failure's detail. *)
type check = {
  kind : string;
  slot : int;
  test :
    (Oracle.result3 * Coverage.t) Lazy.t -> Rv32_asm.Image.t -> string option;
}

(* The oracle run the checks read, plus the VP+ leg's coverage. *)
let oracle_run ?warm ~policy img =
  let cov = Coverage.create () in
  (Oracle.run ~policy ~trace:(Coverage.hook cov) ?warm img, cov)

(* The checks due on program [index], in reporting order. Each [test]
   both detects a failure — given the program's own oracle run — and
   replays it for the shrinker, given a lazy re-run on a candidate image;
   a test that needs no oracle state never forces it. [policy] is the
   failing program's: classification regions address RAM absolutely, so
   they stay valid as the program shrinks. Monotonicity draws its two
   ranges at most once per program, so the replay re-checks the pair that
   failed. *)
let check_table cfg prng ~index ~policy =
  let res r = fst (Lazy.force r) in
  let labelled label = Option.map (Printf.sprintf "%s: %s" label) in
  (* Compiled vs the single-step reference, taint tags included on VP+.
     [counts] reads the compiled leg's violation and declassification
     counts, which must match the reference's too; check counts are not
     compared, since the fast path skips checks that cannot fail. *)
  let vs_reference ~tracking ?policy ?counts leg label =
    let test r img =
      let reference, (violations, _, declassifications) =
        Oracle.run_vp ~tracking ~block_cache:false ?policy img
      in
      labelled (label ^ " cached vs single-step")
        (match (Oracle.explain (leg (res r)) reference, counts) with
        | None, Some counts ->
            let v, d = counts (res r) in
            if v = violations && d = declassifications then None
            else
              Some
                (Printf.sprintf
                   "violations/declassifications: %d/%d vs %d/%d" v d
                   violations declassifications)
        | diff, _ -> diff)
    in
    { kind = "cache-vs-nocache"; slot = cache; test }
  in
  (* Checkpointed segments — pause, save, restore into a fresh SoC,
     continue — vs an uninterrupted run on the same time-sync grid. *)
  let vs_straight _ img =
    let straight, _ =
      Oracle.run_vp ~tracking:true ~quantum:Oracle.snap_quantum ~policy img
    in
    let snap, _ = Oracle.run_vp_snapshot ~policy img in
    labelled "checkpointed vs uninterrupted" (Oracle.explain straight snap)
  in
  (* Fault injection: validates the detect-shrink-report pipeline. *)
  let executes op r _ =
    if Coverage.count (snd (Lazy.force r)) op = 0 then None
    else Some (Printf.sprintf "program executed '%s' (injected fault)" op)
  in
  let ranges = lazy (Props.draw_ranges prng) in
  let props = cfg.props_every > 0 && index mod cfg.props_every = 0 in
  List.concat
    [
      [
        (* ISS correctness, then DIFT transparency under the policy. *)
        { kind = "golden-vs-vp"; slot = golden;
          test = (fun r _ -> Oracle.explain (res r).golden (res r).vp) };
        { kind = "transparency"; slot = transparency;
          test = (fun r _ -> Oracle.explain (res r).vp (res r).vpp) };
        { kind = "declassification"; slot = declass;
          test = (fun r _ -> Props.declass_free (res r)) };
      ];
      (* Taint-metamorphic properties, on a subsample. *)
      (if not props then []
       else
         [
           { kind = "purity"; slot = purity; test = (fun _ -> Props.purity) };
           { kind = "trap-entry-taint"; slot = trap_taint;
             test = (fun _ -> Props.trap_entry_pub) };
           { kind = "monotonicity"; slot = monotonic;
             test = (fun _ -> Props.monotonic (Lazy.force ranges)) };
         ]);
      (if not cfg.cache_diff then []
       else
         [
           vs_reference ~tracking:true ~policy
             ~counts:(fun r -> (r.violations, r.declassifications))
             (fun r -> r.vpp) "VP+";
           vs_reference ~tracking:false (fun r -> r.vp) "VP";
         ]);
      (if not cfg.snap_diff then []
       else
         [ { kind = "snapshot-vs-straight"; slot = snapshot; test = vs_straight } ]);
      (match cfg.inject with
      | None -> []
      | Some op ->
          [ { kind = "injected:" ^ op; slot = injected; test = executes op } ]);
    ]

(* One shard of the campaign: a contiguous slice of the program indices,
   generated from the shard's own derived RNG and guided by the shard's
   own coverage table, accumulating into a private tally.  Shards are the
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
  let tally = { counts = Array.make slots 0; failures = [] } in
  for local = 1 to sh.Parallelkit.Campaign.length do
    let index = sh.Parallelkit.Campaign.start + local in
    match
      let prog = Gen.program rng cov ~size:cfg.size in
      let img = Prog.assemble prog in
      let policy = Gen.policy rng img in
      let res, percov = oracle_run ~warm ~policy img in
      Coverage.merge ~into:cov percov;
      bump tally violations res.Oracle.violations;
      bump tally checks res.Oracle.checks;
      let all_exited =
        List.for_all
          (fun (o : Oracle.outcome) ->
            match o.Oracle.stop with Oracle.Exited _ -> true | _ -> false)
          [ res.Oracle.golden; res.Oracle.vp; res.Oracle.vpp ]
      in
      if all_exited then bump tally completed 1;
      let detected = Lazy.from_val (res, percov) in
      List.iter
        (fun c ->
          match c.test detected img with
          | None -> ()
          | Some detail ->
              bump tally c.slot 1;
              let predicate p =
                try
                  let img = Prog.assemble p in
                  c.test (lazy (oracle_run ~policy img)) img <> None
                with _ -> false
              in
              record_failure cfg tally ~index ~kind:c.kind ~detail ~predicate
                prog)
        (check_table cfg prng ~index ~policy)
    with
    | () -> ()
    | exception _ -> bump tally errors 1
  done;
  (tally, cov)

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
  let sum slot = Array.fold_left (fun n (t, _) -> n + t.counts.(slot)) 0 outs in
  let failures =
    Array.fold_left (fun tail (t, _) -> t.failures @ tail) [] outs
  in
  {
    programs = cfg.programs;
    completed = sum completed;
    golden_mismatches = sum golden;
    transparency_mismatches = sum transparency;
    purity_failures = sum purity;
    monotonicity_failures = sum monotonic;
    trap_taint_failures = sum trap_taint;
    declass_violations = sum declass;
    cache_mismatches = sum cache;
    snapshot_mismatches = sum snapshot;
    injected_hits = sum injected;
    violations = sum violations;
    checks = sum checks;
    errors = sum errors;
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
