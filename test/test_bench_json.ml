(* Tier-1 guard for the machine-readable perf reports: the Json
   renderer/parser round-trips, the report schema validates, and a real
   (tiny-scale) benchmark run produces a document that survives a write →
   read → parse → validate cycle, exactly as CI consumes it. *)

module J = Jsonkit.Json
module D = Benchkit.Defs
open Helpers

let roundtrip v =
  match J.of_string (J.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "re-parse failed: %s" e

let test_json_roundtrip () =
  let samples =
    [
      J.Null;
      J.Bool true;
      J.Bool false;
      J.Num 0.;
      J.Num 3.25;
      J.Num (-17.);
      J.Num 1e10;
      J.num_of_int max_int;
      J.Str "";
      J.Str "plain";
      J.Str "esc \" \\ \n \t \r \x0c \b quoted";
      J.Str "control \x01 \x1f bytes";
      J.List [];
      J.List [ J.Num 1.; J.Str "two"; J.Bool false; J.Null ];
      J.Obj [];
      J.Obj
        [
          ("a", J.Num 1.);
          ("nested", J.Obj [ ("b", J.List [ J.Str "x" ]) ]);
        ];
    ]
  in
  List.iter (fun v -> check_bool (J.to_string v) true (roundtrip v = v)) samples

let test_json_render () =
  check_string "compact object" {|{"a":1,"b":[true,null,"x"]}|}
    (J.to_string
       (J.Obj
          [ ("a", J.Num 1.); ("b", J.List [ J.Bool true; J.Null; J.Str "x" ]) ]));
  check_string "integral floats have no point" "42" (J.to_string (J.Num 42.));
  check_bool "non-finite rejected" true
    (try
       ignore (J.to_string (J.Num Float.nan));
       false
     with Invalid_argument _ -> true)

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid input %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{'a':1}" ]

let test_json_unicode_escape () =
  match J.of_string "\"a\\u00e9A\"" with
  | Ok (J.Str s) -> check_string "utf-8 decoding" "a\xc3\xa9A" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

(* A hand-built document that matches the schema. *)
let good_row ?(workload = "w") ?(mode = "vp") ?(instructions = 100)
    ?(seconds = 0.5) ?(overhead = 1.) () =
  J.Obj
    [
      ("workload", J.Str workload);
      ("mode", J.Str mode);
      ("instructions", J.num_of_int instructions);
      ("seconds", J.Num seconds);
      ("mips", J.Num (D.mips instructions seconds));
      ("overhead", J.Num overhead);
      ("fast_retired", J.num_of_int 10);
      ("blocks_built", J.num_of_int 3);
      ("loc_asm", J.num_of_int 20);
      ("exit_ok", J.Bool true);
    ]

let good_doc ?(rows = [ good_row () ]) () =
  J.Obj
    [
      ("bench", J.Str "table2");
      ("scale", J.Num 1.);
      ("block_cache", J.Bool true);
      ("rows", J.List rows);
    ]

let expect_valid doc =
  match D.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected valid, got: %s" e

let expect_invalid name doc =
  match D.validate doc with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s passed validation" name

let without field = function
  | J.Obj kvs -> J.Obj (List.remove_assoc field kvs)
  | v -> v

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_validate () =
  expect_valid (good_doc ());
  (* Unknown fields are ignored, so the committed reports (which carry a
     top-level "fast_path" and per-row "engine" fields) still validate. *)
  List.iter
    (fun file ->
      match J.of_string (read_file (Filename.concat ".." file)) with
      | Ok doc -> expect_valid doc
      | Error e -> Alcotest.failf "%s: %s" file e)
    [ "BENCH_table2.json"; "BENCH_parallel.json" ];
  expect_invalid "empty rows" (good_doc ~rows:[] ());
  expect_invalid "missing bench" (without "bench" (good_doc ()));
  expect_invalid "missing rows" (without "rows" (good_doc ()));
  expect_invalid "row without workload"
    (good_doc ~rows:[ without "workload" (good_row ()) ] ());
  expect_invalid "empty workload"
    (good_doc ~rows:[ good_row ~workload:"" () ] ());
  expect_invalid "zero overhead"
    (good_doc ~rows:[ good_row ~overhead:0. () ] ());
  expect_invalid "negative instructions"
    (good_doc ~rows:[ good_row ~instructions:(-1) () ] ());
  expect_invalid "non-object document" (J.List []);
  (* The optional per-row trace marker: bool ok, anything else rejected. *)
  let with_field k v = function
    | J.Obj kvs -> J.Obj (kvs @ [ (k, v) ])
    | j -> j
  in
  expect_valid
    (good_doc ~rows:[ with_field "trace" (J.Bool true) (good_row ()) ] ());
  expect_invalid "non-bool trace field"
    (good_doc ~rows:[ with_field "trace" (J.Str "yes") (good_row ()) ] ());
  (* The parallel-campaign fields: all four together or none at all,
     each range-checked. *)
  let parallel_fields =
    [
      ("jobs", J.num_of_int 4);
      ("wall_ns", J.num_of_int 1_000_000);
      ("cpu_ns", J.num_of_int 3_900_000);
      ("worker_throughput", J.Num 12.5);
    ]
  in
  let with_fields kvs j = List.fold_left (fun j (k, v) -> with_field k v j) j kvs in
  expect_valid
    (good_doc ~rows:[ with_fields parallel_fields (good_row ()) ] ());
  List.iter
    (fun missing ->
      expect_invalid
        (Printf.sprintf "parallel row without %S" missing)
        (good_doc
           ~rows:
             [
               with_fields
                 (List.remove_assoc missing parallel_fields)
                 (good_row ());
             ]
           ()))
    [ "jobs"; "wall_ns"; "cpu_ns"; "worker_throughput" ];
  expect_invalid "zero jobs"
    (good_doc
       ~rows:
         [
           with_fields
             (("jobs", J.num_of_int 0)
             :: List.remove_assoc "jobs" parallel_fields)
             (good_row ());
         ]
       ());
  expect_invalid "negative wall_ns"
    (good_doc
       ~rows:
         [
           with_fields
             (("wall_ns", J.num_of_int (-1))
             :: List.remove_assoc "wall_ns" parallel_fields)
             (good_row ());
         ]
       ());
  expect_invalid "ill-typed worker_throughput"
    (good_doc
       ~rows:
         [
           with_fields
             (("worker_throughput", J.Str "fast")
             :: List.remove_assoc "worker_throughput" parallel_fields)
             (good_row ());
         ]
       ());
  (* The graph-analyze fields: all five together or none at all. *)
  let graph_fields =
    [
      ("store_bytes", J.num_of_int 199);
      ("ingest_ns", J.num_of_int 20_000);
      ("query_ns", J.num_of_int 4_500);
      ("nodes", J.num_of_int 2);
      ("edges", J.num_of_int 1);
    ]
  in
  expect_valid (good_doc ~rows:[ with_fields graph_fields (good_row ()) ] ());
  List.iter
    (fun missing ->
      expect_invalid
        (Printf.sprintf "graph row without %S" missing)
        (good_doc
           ~rows:
             [
               with_fields
                 (List.remove_assoc missing graph_fields)
                 (good_row ());
             ]
           ()))
    [ "store_bytes"; "ingest_ns"; "query_ns"; "nodes"; "edges" ];
  expect_invalid "negative query_ns"
    (good_doc
       ~rows:
         [
           with_fields
             (("query_ns", J.num_of_int (-1))
             :: List.remove_assoc "query_ns" graph_fields)
             (good_row ());
         ]
       ());
  expect_invalid "ill-typed nodes"
    (good_doc
       ~rows:
         [
           with_fields
             (("nodes", J.Str "two") :: List.remove_assoc "nodes" graph_fields)
             (good_row ());
         ]
       ());
  (* The block-cache fields: all four together or none at all. *)
  let cache_fields =
    [
      ("superblocks_built", J.num_of_int 2);
      ("chain_hits", J.num_of_int 50);
      ("ic_hits", J.num_of_int 9);
      ("ic_misses", J.num_of_int 1);
    ]
  in
  expect_valid (good_doc ~rows:[ with_fields cache_fields (good_row ()) ] ());
  List.iter
    (fun missing ->
      expect_invalid
        (Printf.sprintf "block-cache row without %S" missing)
        (good_doc
           ~rows:
             [
               with_fields
                 (List.remove_assoc missing cache_fields)
                 (good_row ());
             ]
           ()))
    [ "superblocks_built"; "chain_hits"; "ic_hits"; "ic_misses" ];
  expect_invalid "negative chain_hits"
    (good_doc
       ~rows:
         [
           with_fields
             (("chain_hits", J.num_of_int (-1))
             :: List.remove_assoc "chain_hits" cache_fields)
             (good_row ());
         ]
       ());
  expect_invalid "ill-typed ic_hits"
    (good_doc
       ~rows:
         [
           with_fields
             (("ic_hits", J.Str "many")
             :: List.remove_assoc "ic_hits" cache_fields)
             (good_row ());
         ]
       ())

(* The parallel_row constructor fills the four optional fields
   consistently and renders/validates end to end. *)
let test_parallel_row () =
  let m =
    D.parallel_row ~workload:"difftest" ~mode:"jobs-4" ~jobs:4 ~tasks:200
      ~instructions:0 ~wall_ns:2_000_000_000 ~cpu_ns:7_600_000_000
      ~overhead:0.27 ()
  in
  check_bool "jobs recorded" true (m.D.m_jobs = Some 4);
  check_bool "wall recorded" true (m.D.m_wall_ns = Some 2_000_000_000);
  check_bool "cpu recorded" true (m.D.m_cpu_ns = Some 7_600_000_000);
  (* 200 tasks / 2 s / 4 workers = 25 tasks per second per worker. *)
  check_bool "throughput" true
    (match m.D.m_worker_throughput with
    | Some t -> Float.abs (t -. 25.) < 1e-9
    | None -> false);
  check_bool "seconds derived from wall_ns" true
    (Float.abs (m.D.m_seconds -. 2.) < 1e-9);
  let doc =
    D.doc ~bench:"parallel" ~scale:1. ~block_cache:true [ m ]
  in
  expect_valid doc;
  (* A classic row (all four None) renders without the parallel keys. *)
  (match D.row m with
  | J.Obj kvs -> check_bool "jobs rendered" true (List.mem_assoc "jobs" kvs)
  | _ -> Alcotest.fail "expected object");
  let classic = { m with D.m_jobs = None; m_wall_ns = None; m_cpu_ns = None;
                  m_worker_throughput = None } in
  match D.row classic with
  | J.Obj kvs -> check_bool "no jobs key" false (List.mem_assoc "jobs" kvs)
  | _ -> Alcotest.fail "expected object"

(* The graph_row constructor fills the five optional fields consistently
   and renders/validates end to end — the BENCH_graph.json shape. *)
let test_graph_row () =
  let m =
    D.graph_row ~workload:"trap-hijack" ~mode:"analyze-cold" ~store_bytes:199
      ~ingest_ns:20_000 ~query_ns:4_500 ~nodes:2 ~edges:1 ()
  in
  check_bool "store_bytes recorded" true (m.D.m_store_bytes = Some 199);
  check_bool "ingest recorded" true (m.D.m_ingest_ns = Some 20_000);
  check_bool "query recorded" true (m.D.m_query_ns = Some 4_500);
  check_bool "nodes recorded" true (m.D.m_nodes = Some 2);
  check_bool "edges recorded" true (m.D.m_edges = Some 1);
  check_bool "seconds derived from ingest + query" true
    (Float.abs (m.D.m_seconds -. 24.5e-6) < 1e-12);
  check_bool "no parallel fields" true (m.D.m_jobs = None);
  let doc =
    D.doc ~bench:"graph" ~scale:1. ~block_cache:true [ m ]
  in
  expect_valid doc;
  (match D.row m with
  | J.Obj kvs ->
      check_bool "store_bytes rendered" true
        (List.mem_assoc "store_bytes" kvs);
      check_bool "no jobs key" false (List.mem_assoc "jobs" kvs)
  | _ -> Alcotest.fail "expected object");
  let classic =
    { m with D.m_store_bytes = None; m_ingest_ns = None; m_query_ns = None;
      m_nodes = None; m_edges = None }
  in
  match D.row classic with
  | J.Obj kvs ->
      check_bool "no store_bytes key" false (List.mem_assoc "store_bytes" kvs)
  | _ -> Alcotest.fail "expected object"

(* End to end: run one real workload at a tiny scale, build the report,
   write it, read it back, parse and validate — the exact CI pipeline. *)
let test_real_report () =
  let defs = D.table2 ~scale:0.01 in
  let qsort =
    List.find (fun d -> d.D.d_name = "qsort") defs
  in
  let rows = D.measure qsort in
  check_int "vp and vp+ rows" 2 (List.length rows);
  let vp = List.nth rows 0 and vpp = List.nth rows 1 in
  check_string "vp row first" "vp" vp.D.m_mode;
  check_string "vp+ row second" "vp+" vpp.D.m_mode;
  check_bool "vp exited cleanly" true vp.D.m_exit_ok;
  check_bool "vp+ exited cleanly" true vpp.D.m_exit_ok;
  check_bool "instructions retired" true (vp.D.m_instructions > 0);
  check_int "vp and vp+ agree on instret" vp.D.m_instructions
    vpp.D.m_instructions;
  check_bool "vp+ built blocks" true (vpp.D.m_blocks_built > 0);
  check_bool "vp+ used the fast path" true (vpp.D.m_fast_retired > 0);
  check_bool "measured rows carry the block-cache counter group" true
    (vpp.D.m_superblocks <> None
    && vpp.D.m_chain_hits <> None
    && vpp.D.m_ic_hits <> None
    && vpp.D.m_ic_misses <> None);
  let doc =
    D.doc ~bench:"table2" ~scale:0.01 ~block_cache:true rows
  in
  expect_valid doc;
  let file = Filename.temp_file "bench" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out file in
      output_string oc (J.to_string doc);
      output_string oc "\n";
      close_out oc;
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      match J.of_string (String.trim s) with
      | Error e -> Alcotest.failf "re-parse of written report failed: %s" e
      | Ok doc' ->
          expect_valid doc';
          check_bool "round-tripped document identical" true (doc = doc');
          (* Spot-check the fields CI's trend tooling reads. *)
          let get path =
            List.fold_left
              (fun acc k ->
                match acc with Some v -> J.member k v | None -> None)
              (Some doc') path
          in
          check_bool "bench name" true
            (get [ "bench" ] |> Option.map (J.to_str) |> Option.join
            = Some "table2");
          let rows' =
            get [ "rows" ] |> Option.map J.to_list |> Option.join
            |> Option.value ~default:[]
          in
          check_int "two rows in file" 2 (List.length rows');
          let ovh =
            J.member "overhead" (List.nth rows' 1)
            |> Option.map J.to_num |> Option.join
          in
          check_bool "vp+ overhead present and positive" true
            (match ovh with Some o -> o > 0. | None -> false);
          check_bool "block-cache counters rendered" true
            (J.member "superblocks_built" (List.nth rows' 1) <> None
            && J.member "chain_hits" (List.nth rows' 1) <> None
            && J.member "ic_hits" (List.nth rows' 1) <> None
            && J.member "ic_misses" (List.nth rows' 1) <> None))

(* The tracing guardrail: --trace adds exactly one vp+trace row that is
   architecturally identical to the untraced runs (same instret, clean
   exit) and carries the trace marker; the default measure stays two rows
   (checked by test_real_report), i.e. tracing is strictly opt-in. *)
let test_trace_row () =
  let defs = D.table2 ~scale:0.01 in
  let qsort = List.find (fun d -> d.D.d_name = "qsort") defs in
  let rows = D.measure ~trace:true qsort in
  check_int "vp, vp+ and vp+trace rows" 3 (List.length rows);
  let vp = List.nth rows 0 and vpp = List.nth rows 1 in
  let vpt = List.nth rows 2 in
  check_string "third row mode" "vp+trace" vpt.D.m_mode;
  check_bool "third row marked traced" true vpt.D.m_trace;
  check_bool "untraced rows unmarked" false (vp.D.m_trace || vpp.D.m_trace);
  check_bool "vp+trace exited cleanly" true vpt.D.m_exit_ok;
  check_int "tracing is transparent (instret)" vp.D.m_instructions
    vpt.D.m_instructions;
  check_bool "vp+trace overhead positive" true (vpt.D.m_overhead > 0.);
  let doc =
    D.doc ~bench:"table2" ~scale:0.01 ~block_cache:true rows
  in
  expect_valid doc;
  (* The rendered row exposes the marker to CI trend tooling. *)
  match J.member "rows" doc |> Option.map J.to_list |> Option.join with
  | Some [ _; _; r ] ->
      check_bool "rendered trace marker" true
        (J.member "trace" r |> Option.map J.to_bool |> Option.join
        = Some true)
  | _ -> Alcotest.fail "expected three rendered rows"

(* The branch-heavy dispatch workload drives all three counter classes
   on the default compiled path: linked superblocks, in-chain
   transitions, inline-cache hits (monomorphic rets) and misses (the
   rotating dispatch site). *)
let test_dispatch_counters () =
  let defs = D.table2 ~scale:0.01 in
  let dispatch = List.find (fun d -> d.D.d_name = "dispatch") defs in
  let rows = D.measure dispatch in
  let some_pos = function Some n -> n > 0 | None -> false in
  List.iter
    (fun m ->
      let ctx what = Printf.sprintf "dispatch %s: %s" m.D.m_mode what in
      check_bool (ctx "exited cleanly") true m.D.m_exit_ok;
      check_bool (ctx "superblocks linked") true (some_pos m.D.m_superblocks);
      check_bool (ctx "chains taken") true (some_pos m.D.m_chain_hits);
      check_bool (ctx "ic hits") true (some_pos m.D.m_ic_hits);
      check_bool (ctx "ic misses") true (some_pos m.D.m_ic_misses))
    rows;
  (* On the single-step reference the same workload reports the group as
     all-zero — present (measured) but empty. *)
  let rows = D.measure ~block_cache:false dispatch in
  List.iter
    (fun m ->
      check_bool "reference rows carry zero superblocks" true
        (m.D.m_superblocks = Some 0);
      check_bool "reference rows carry zero ic traffic" true
        (m.D.m_ic_hits = Some 0 && m.D.m_ic_misses = Some 0))
    rows

let () =
  Alcotest.run "bench_json"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rendering" `Quick test_json_render;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escape;
        ] );
      ( "schema",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "parallel row fields" `Quick test_parallel_row;
          Alcotest.test_case "graph row fields" `Quick test_graph_row;
          Alcotest.test_case "real report end to end" `Slow test_real_report;
          Alcotest.test_case "trace row guardrail" `Slow test_trace_row;
          Alcotest.test_case "dispatch workload counters" `Slow
            test_dispatch_counters;
        ] );
    ]
