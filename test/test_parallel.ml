(* The domain-parallel campaign engine (lib/parallelkit) and its
   determinism contract:

   - the worker pool maps task arrays in order, re-raises worker
     exceptions, and degrades to the plain sequential path at jobs <= 1;
     idle workers take the tail of uneven shards without reordering
     results;
   - campaign sharding depends only on (total, shard_size) — never on the
     worker count — with shard 0 keeping the campaign seed so one-shard
     campaigns reproduce the historical sequential stream, and derived
     shard seeds never colliding across sweeps;
   - a difftest campaign (including injected failures, shrinking and
     merged coverage) renders to a byte-identical report at jobs=1 and
     jobs=4, and a warm-started oracle run agrees with a cold boot;
   - a campaign killed mid-run and resumed from its DIFTVPCP checkpoint
     (even at a different --jobs) produces the byte-identical report,
     while corrupt or mismatched checkpoints are refused up front. *)

open Helpers
module Pool = Parallelkit.Pool
module Campaign = Parallelkit.Campaign
module Chan = Parallelkit.Chan
module Ck = Parallelkit.Checkpoint
module H = Difftest.Harness

(* --- Chan ------------------------------------------------------------ *)

let test_chan_fifo_and_close () =
  let c = Chan.create () in
  Chan.send c 1;
  Chan.send c 2;
  Chan.close c;
  check_bool "fifo 1" true (Chan.recv c = Some 1);
  check_bool "fifo 2" true (Chan.recv c = Some 2);
  check_bool "drained + closed" true (Chan.recv c = None);
  check_bool "recv after drain stays None" true (Chan.recv c = None);
  check_bool "send on closed rejected" true
    (try
       Chan.send c 3;
       false
     with Invalid_argument _ -> true);
  (* close is idempotent *)
  Chan.close c

(* --- Pool ------------------------------------------------------------ *)

let test_pool_map_order () =
  let tasks = Array.init 100 (fun i -> i) in
  let expect = Array.map (fun i -> i * i) tasks in
  check_bool "jobs=1 (sequential path)" true
    (Pool.map ~jobs:1 (fun i -> i * i) tasks = expect);
  check_bool "jobs=4" true (Pool.map ~jobs:4 (fun i -> i * i) tasks = expect);
  check_bool "more jobs than tasks" true
    (Pool.map ~jobs:8 (fun i -> i * 2) [| 1; 2; 3 |] = [| 2; 4; 6 |]);
  check_bool "empty task array" true
    (Pool.map ~jobs:4 (fun i -> i) [||] = [||]);
  check_bool "map_list" true
    (Pool.map_list ~jobs:3 String.uppercase_ascii [ "a"; "b" ] = [ "A"; "B" ])

exception Boom of int

let test_pool_exception () =
  (* Several tasks fail; the exception re-raised is the failing task with
     the lowest index, regardless of completion order. *)
  let f i = if i mod 3 = 1 then raise (Boom i) else i in
  let tasks = Array.init 20 (fun i -> i) in
  List.iter
    (fun jobs ->
      match Pool.map ~jobs f tasks with
      | exception Boom 1 -> ()
      | exception e ->
          Alcotest.failf "jobs=%d: wrong exception %s" jobs
            (Printexc.to_string e)
      | _ -> Alcotest.failf "jobs=%d: no exception" jobs)
    [ 1; 4 ]

let test_default_jobs () =
  check_bool "at least one worker" true (Pool.default_jobs () >= 1)

let test_pool_long_task () =
  (* Task 0 spins until every other task has finished, so the run
     deadlocks unless the other worker takes every remaining task; the
     results must still come back in task order. *)
  let n = 10 in
  let finished = Atomic.make 0 in
  let f i =
    if i = 0 then
      while Atomic.get finished < n - 1 do
        Domain.cpu_relax ()
      done;
    Atomic.incr finished;
    i * 7
  in
  check_bool "results in task order" true
    (Pool.map ~jobs:2 f (Array.init n Fun.id) = Array.init n (fun i -> i * 7))

let test_on_done () =
  (* Sequential: called once per task, ascending, with the result. *)
  let calls = ref [] in
  let r =
    Pool.map
      ~on_done:(fun i v -> calls := (i, v) :: !calls)
      ~jobs:1
      (fun i -> i + 100)
      (Array.init 5 Fun.id)
  in
  check_bool "sequential results" true (r = [| 100; 101; 102; 103; 104 |]);
  check_bool "sequential on_done ascending with values" true
    (List.rev !calls = List.init 5 (fun i -> (i, i + 100)));
  (* Parallel: exactly one call per task, each with the right value; the
     hook runs on the calling domain so plain mutable state is safe. *)
  let seen = Array.make 16 (-1) in
  let count = ref 0 in
  let _ =
    Pool.map
      ~on_done:(fun i v ->
        incr count;
        seen.(i) <- v)
      ~jobs:4
      (fun i -> i * 3)
      (Array.init 16 Fun.id)
  in
  check_int "parallel on_done called once per task" 16 !count;
  check_bool "parallel on_done values correct" true
    (seen = Array.init 16 (fun i -> i * 3))

exception Hook

let test_on_done_raise () =
  (* A raising on_done aborts the pool cleanly: the exception propagates
     (not an assert or a hang) and every worker domain is joined. *)
  List.iter
    (fun jobs ->
      match
        Pool.map
          ~on_done:(fun _ _ -> raise Hook)
          ~jobs Fun.id (Array.init 8 Fun.id)
      with
      | exception Hook -> ()
      | exception e ->
          Alcotest.failf "jobs=%d: wrong exception %s" jobs
            (Printexc.to_string e)
      | _ -> Alcotest.failf "jobs=%d: no exception" jobs)
    [ 1; 4 ]

(* --- Campaign sharding ----------------------------------------------- *)

let test_shard_structure () =
  let shards = Campaign.shards ~seed:0x5eed ~total:10 ~shard_size:4 in
  check_int "shard count" 3 (Array.length shards);
  Array.iteri
    (fun i (s : Campaign.shard) ->
      check_int "index" i s.Campaign.index;
      check_int "start" (i * 4) s.Campaign.start)
    shards;
  check_int "full shard" 4 shards.(0).Campaign.length;
  check_int "tail shard" 2 shards.(2).Campaign.length;
  check_int "shard 0 keeps the campaign seed" 0x5eed shards.(0).Campaign.seed;
  let seeds = Array.map (fun s -> s.Campaign.seed) shards in
  Array.iter
    (fun s ->
      check_bool "seed in 32-bit nonzero range" true (s > 0 && s <= 0xffffffff))
    seeds;
  check_bool "derived seeds distinct" true
    (seeds.(0) <> seeds.(1) && seeds.(1) <> seeds.(2) && seeds.(0) <> seeds.(2));
  (* Pure function of (seed, total, shard_size). *)
  check_bool "deterministic" true
    (Campaign.shards ~seed:0x5eed ~total:10 ~shard_size:4 = shards);
  check_bool "empty campaign" true
    (Campaign.shards ~seed:1 ~total:0 ~shard_size:4 = [||]);
  check_bool "shard_size must be positive" true
    (try
       ignore (Campaign.shards ~seed:1 ~total:10 ~shard_size:0);
       false
     with Invalid_argument _ -> true)

let test_derive_seed () =
  check_int "shard 0 is the identity" 42 (Campaign.derive_seed ~seed:42 ~shard:0);
  let a = Campaign.derive_seed ~seed:42 ~shard:1 in
  check_int "stable" a (Campaign.derive_seed ~seed:42 ~shard:1);
  check_bool "seed-sensitive" true (Campaign.derive_seed ~seed:43 ~shard:1 <> a);
  check_bool "shard-sensitive" true (Campaign.derive_seed ~seed:42 ~shard:2 <> a);
  check_bool "never zero" true
    (List.for_all
       (fun shard -> Campaign.derive_seed ~seed:0 ~shard <> 0)
       [ 1; 2; 3; 4; 5 ])

let test_derive_seed_sweep () =
  (* The derived seed is a splitmix64 output truncated to 32 bits; a
     collision between shard indices would make two shards replay the
     same program stream and silently halve a campaign's coverage. Pin
     that a realistic sweep (10^4 shards under one campaign seed) is
     collision-free, and that the shard-0 identity survives. *)
  let seen = Hashtbl.create 20_048 in
  let collisions = ref 0 in
  for shard = 0 to 9_999 do
    let s = Campaign.derive_seed ~seed:0xc0ffee ~shard in
    if Hashtbl.mem seen s then incr collisions else Hashtbl.add seen s ();
    if s <= 0 || s > 0xffffffff then
      Alcotest.failf "shard %d: seed %#x outside the nonzero 32-bit range"
        shard s
  done;
  check_int "no collisions across 10^4 shards" 0 !collisions;
  check_int "shard 0 keeps the campaign seed" 0xc0ffee
    (Campaign.derive_seed ~seed:0xc0ffee ~shard:0)

(* --- Checkpoint container (DIFTVPCP) ---------------------------------- *)

let test_checkpoint_roundtrip () =
  let t = Ck.create ~fingerprint:"fp-1" ~shards:4 in
  check_int "fresh is empty" 0 (Ck.completed t);
  check_bool "fresh is not complete" false (Ck.is_complete t);
  let t = Ck.add t ~shard:2 ~payload:"two" in
  let t = Ck.add t ~shard:0 ~payload:"zero" in
  let t = Ck.add t ~shard:2 ~payload:"two'" in
  check_int "replacing a shard does not duplicate it" 2 (Ck.completed t);
  check_bool "find present" true (Ck.find t 2 = Some "two'");
  check_bool "find absent" true (Ck.find t 1 = None);
  check_bool "entries ascending by index" true
    (Ck.entries t = [ (0, "zero"); (2, "two'") ]);
  let t' = Ck.decode (Ck.encode t) in
  check_bool "decode . encode = id" true
    (Ck.entries t' = Ck.entries t
    && Ck.fingerprint t' = "fp-1"
    && Ck.shards t' = 4);
  check_bool "out-of-range shard rejected" true
    (try
       ignore (Ck.add t ~shard:4 ~payload:"x");
       false
     with Invalid_argument _ -> true);
  Ck.require t ~fingerprint:"fp-1" ~shards:4;
  check_bool "wrong fingerprint refused" true
    (try
       Ck.require t ~fingerprint:"fp-2" ~shards:4;
       false
     with Ck.Mismatch _ -> true);
  check_bool "wrong shard count refused" true
    (try
       Ck.require t ~fingerprint:"fp-1" ~shards:5;
       false
     with Ck.Mismatch _ -> true);
  let full = Ck.add (Ck.add t ~shard:1 ~payload:"one") ~shard:3 ~payload:"three" in
  check_bool "all shards recorded -> complete" true (Ck.is_complete full)

let test_checkpoint_corrupt () =
  let expect_corrupt what s =
    match Ck.decode s with
    | _ -> Alcotest.failf "%s: decode succeeded on corrupt input" what
    | exception Snapshot.Codec.Corrupt _ -> ()
  in
  expect_corrupt "empty" "";
  expect_corrupt "bad magic" "NOTMAGIC-and-then-some";
  let good =
    Ck.encode
      (Ck.add (Ck.create ~fingerprint:"fp" ~shards:3) ~shard:1 ~payload:"p")
  in
  expect_corrupt "truncated" (String.sub good 0 (String.length good - 3));
  expect_corrupt "magic only" (String.sub good 0 8);
  expect_corrupt "trailing garbage" (good ^ "xx")

let test_checkpoint_file_roundtrip () =
  let path = Filename.temp_file "diftvpcp" ".cp" in
  let t = Ck.add (Ck.create ~fingerprint:"fp" ~shards:2) ~shard:0 ~payload:"a" in
  Ck.save t path;
  let t' = Ck.load path in
  check_bool "load . save = id" true
    (Ck.entries t' = Ck.entries t
    && Ck.fingerprint t' = Ck.fingerprint t
    && Ck.shards t' = Ck.shards t);
  Sys.remove path

(* --- Atomic file I/O (lib/snapshot Io) -------------------------------- *)

let test_io_atomic_write () =
  let path = Filename.temp_file "snapio" ".dat" in
  Snapshot.Io.write_file_atomic path "first";
  check_string "write + read back" "first" (Snapshot.Io.read_file path);
  Snapshot.Io.write_file_atomic path "second version";
  check_string "overwrite replaces the whole file" "second version"
    (Snapshot.Io.read_file path);
  let hidden = "." ^ Filename.basename path in
  let leftovers =
    Sys.readdir (Filename.dirname path)
    |> Array.to_list
    |> List.filter (fun f ->
           String.length f >= String.length hidden
           && String.sub f 0 (String.length hidden) = hidden)
  in
  check_bool "no temp files left behind" true (leftovers = []);
  Sys.remove path

(* --- Campaign determinism: jobs=1 vs jobs=4 byte-identical ------------ *)

(* 40 programs at the default 25-program shard size = 2 shards, so the
   campaign genuinely crosses a shard boundary; the injected fault makes
   failures (detection, shrinking, reproducer sources) part of the
   compared report, and shrinking runs inside the worker that found the
   failure. *)
let det_cfg =
  {
    H.default with
    seed = 0xde7;
    programs = 40;
    size = 20;
    inject = Some "mulhsu";
  }

let render r = Format.asprintf "%a" H.pp_report r

let seq_report = lazy (H.run ~config:det_cfg ())

let test_jobs_byte_identical () =
  let r1 = Lazy.force seq_report in
  let r4 = H.run ~config:{ det_cfg with jobs = 4 } () in
  check_bool "campaign spans multiple shards" true
    (det_cfg.H.programs > det_cfg.H.shard_size);
  check_bool "injected failures present (comparison is meaningful)" true
    (r1.H.injected_hits > 0 && r1.H.failures <> []);
  check_string "jobs=1 and jobs=4 reports byte-identical" (render r1)
    (render r4)

let test_warm_start_equivalent () =
  let prog =
    Difftest.Gen.program
      (Difftest.Rng.create ~seed:0x77a7)
      (Difftest.Coverage.create ())
      ~size:30
  in
  let img = Difftest.Prog.assemble prog in
  let cold = Difftest.Oracle.run img in
  let warm = Difftest.Oracle.warm_boot () in
  let warmed = Difftest.Oracle.run ~warm img in
  check_bool "plain-VP legs agree architecturally" true
    (Difftest.Oracle.agree cold.Difftest.Oracle.vp warmed.Difftest.Oracle.vp);
  check_int "same instret" cold.Difftest.Oracle.vp.Difftest.Oracle.instret
    warmed.Difftest.Oracle.vp.Difftest.Oracle.instret

(* A campaign that fits one shard reproduces the historical sequential
   stream: this pins the shard-0-keeps-seed compatibility rule that the
   fixed-seed suites in test_difftest rely on. *)
let test_single_shard_is_sequential_stream () =
  let cfg = { det_cfg with programs = 5; shard_size = 25 } in
  let one = H.run ~config:cfg () in
  (* Same 5 programs through a giant shard size: identical by the
     shard-0 rule even though the shard boundaries moved. *)
  let giant = H.run ~config:{ cfg with shard_size = 1000 } () in
  check_string "shard size irrelevant below one shard" (render one)
    (render giant)

(* --- Checkpointed resume --------------------------------------------- *)

(* Same campaign as [det_cfg] but at shard_size=10, so the 40 programs
   make 4 shards — enough structure to kill a run "mid-way" and resume
   the remainder on a different worker count. *)
let resume_cfg = { det_cfg with shard_size = 10 }

let test_kill_and_resume () =
  let ck = Filename.temp_file "diftvp" ".cp" in
  (* The uninterrupted run, checkpointing as it goes. *)
  let full = H.run ~config:{ resume_cfg with checkpoint = Some ck } () in
  let straight = render full in
  let complete = Ck.load ck in
  check_bool "checkpoint complete after a full run" true
    (Ck.is_complete complete);
  check_int "one entry per shard" 4 (Ck.completed complete);
  (* Simulate SIGKILL after 2 of 4 shards: a checkpoint holding only the
     first two entries, exactly what an interrupted run would have
     published atomically. *)
  let partial =
    List.fold_left
      (fun t (shard, payload) -> Ck.add t ~shard ~payload)
      (Ck.create
         ~fingerprint:(Ck.fingerprint complete)
         ~shards:(Ck.shards complete))
      (List.filteri (fun i _ -> i < 2) (Ck.entries complete))
  in
  Ck.save partial ck;
  (* Resume on a different worker count; completed shards are skipped,
     the rest recomputed, and the merged report must not betray the
     kill/resume split. *)
  let resumed =
    H.run
      ~config:
        { resume_cfg with resume = Some ck; checkpoint = Some ck; jobs = 2 }
      ()
  in
  check_string "kill + resume (different jobs) = uninterrupted" straight
    (render resumed);
  (* The resumed run re-completed the checkpoint; resuming from it again
     runs zero shards and still reproduces the report. *)
  let cached = H.run ~config:{ resume_cfg with resume = Some ck } () in
  check_string "resume from a complete checkpoint = uninterrupted" straight
    (render cached);
  Sys.remove ck

let test_resume_corrupt () =
  (* A corrupt or truncated checkpoint fails up front — before any
     oracle work, with nothing partially merged. *)
  let ck = Filename.temp_file "diftvp" ".cp" in
  Snapshot.Io.write_file_atomic ck "DIFTVPCP\x07garbage-after-the-magic";
  (match H.run ~config:{ resume_cfg with resume = Some ck } () with
  | _ -> Alcotest.fail "corrupt checkpoint accepted"
  | exception Snapshot.Codec.Corrupt _ -> ());
  Sys.remove ck

let test_resume_mismatch () =
  (* A checkpoint from a different campaign configuration is refused:
     a well-formed container whose fingerprint cannot match. *)
  let ck = Filename.temp_file "diftvp" ".cp" in
  Ck.save (Ck.create ~fingerprint:"some-other-campaign" ~shards:4) ck;
  (match H.run ~config:{ resume_cfg with resume = Some ck } () with
  | _ -> Alcotest.fail "mismatched checkpoint accepted"
  | exception Ck.Mismatch _ -> ());
  Sys.remove ck

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "chan fifo + close" `Quick test_chan_fifo_and_close;
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
          Alcotest.test_case "idle worker takes the tail" `Quick
            test_pool_long_task;
          Alcotest.test_case "on_done hook" `Quick test_on_done;
          Alcotest.test_case "on_done raise aborts cleanly" `Quick
            test_on_done_raise;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "shard structure" `Quick test_shard_structure;
          Alcotest.test_case "seed derivation" `Quick test_derive_seed;
          Alcotest.test_case "seed sweep: 10^4 shards, no collisions" `Quick
            test_derive_seed_sweep;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "container round-trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "corrupt containers refused" `Quick
            test_checkpoint_corrupt;
          Alcotest.test_case "file round-trip" `Quick
            test_checkpoint_file_roundtrip;
          Alcotest.test_case "atomic write" `Quick test_io_atomic_write;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs=1 = jobs=4 (byte-identical)" `Quick
            test_jobs_byte_identical;
          Alcotest.test_case "warm start = cold boot" `Quick
            test_warm_start_equivalent;
          Alcotest.test_case "single shard = sequential stream" `Quick
            test_single_shard_is_sequential_stream;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill + resume byte-identical" `Quick
            test_kill_and_resume;
          Alcotest.test_case "corrupt checkpoint refused" `Quick
            test_resume_corrupt;
          Alcotest.test_case "mismatched checkpoint refused" `Quick
            test_resume_mismatch;
        ] );
    ]
