(* Tier-1 guard for the machine-readable perf reports: the Json
   renderer/parser round-trips, the report schema validates, a real
   (tiny-scale) benchmark run produces a document that survives a write →
   read → parse → validate cycle, exactly as CI consumes it, and the
   committed BENCH_table2.json is a full-scale run that EXPERIMENTS.md
   quotes. *)

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
    ?(p25 = 0.4) ?(seconds = 0.5) ?(p75 = 0.6) ?(overhead = 1.) () =
  J.Obj
    [
      ("workload", J.Str workload);
      ("mode", J.Str mode);
      ("instructions", J.num_of_int instructions);
      ("seconds", J.Num seconds);
      ("seconds_p25", J.Num p25);
      ("seconds_p75", J.Num p75);
      ("mips", J.Num (D.mips instructions seconds));
      ("overhead", J.Num overhead);
      ("fast_retired", J.num_of_int 10);
      ("blocks_built", J.num_of_int 3);
      ("superblocks_built", J.num_of_int 2);
      ("chain_hits", J.num_of_int 50);
      ("ic_hits", J.num_of_int 9);
      ("ic_misses", J.num_of_int 1);
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

let with_field k v = function
  | J.Obj kvs -> J.Obj ((k, v) :: List.remove_assoc k kvs)
  | j -> j

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_validate () =
  expect_valid (good_doc ());
  expect_valid
    (good_doc ~rows:[ with_field "unknown" (J.Str "ignored") (good_row ()) ] ());
  expect_valid (good_doc ~rows:[ good_row ~p25:0.5 ~seconds:0.5 ~p75:0.5 () ] ());
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
  (* Median seconds with its quartiles: all three required, in order. *)
  List.iter
    (fun field ->
      expect_invalid
        (Printf.sprintf "row without %S" field)
        (good_doc ~rows:[ without field (good_row ()) ] ()))
    [ "seconds"; "seconds_p25"; "seconds_p75" ];
  expect_invalid "p25 above the median"
    (good_doc ~rows:[ good_row ~p25:0.55 () ] ());
  expect_invalid "median above p75"
    (good_doc ~rows:[ good_row ~p75:0.45 () ] ());
  expect_invalid "negative p25"
    (good_doc ~rows:[ good_row ~p25:(-0.1) () ] ());
  (* The four block-cache counters: required integers >= 0. *)
  List.iter
    (fun field ->
      expect_invalid
        (Printf.sprintf "row without %S" field)
        (good_doc ~rows:[ without field (good_row ()) ] ());
      expect_invalid
        (Printf.sprintf "negative %S" field)
        (good_doc ~rows:[ with_field field (J.num_of_int (-1)) (good_row ()) ] ());
      expect_invalid
        (Printf.sprintf "ill-typed %S" field)
        (good_doc ~rows:[ with_field field (J.Str "many") (good_row ()) ] ()))
    [ "superblocks_built"; "chain_hits"; "ic_hits"; "ic_misses" ]

(* End to end: run one real workload at a tiny scale, build the report,
   write it, read it back, parse and validate — the exact CI pipeline. *)
let test_real_report () =
  let defs = D.table2 ~scale:0.01 in
  let qsort =
    List.find (fun d -> d.D.d_name = "qsort") defs
  in
  let rows = D.measure_def qsort in
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
  check_bool "vp+ linked exits" true (vpp.D.m_superblocks > 0);
  List.iter
    (fun m ->
      check_bool (m.D.m_mode ^ ": p25 <= median <= p75") true
        (m.D.m_seconds_p25 <= m.D.m_seconds
        && m.D.m_seconds <= m.D.m_seconds_p75);
      check_bool (m.D.m_mode ^ ": mips from the median") true
        (m.D.m_mips = D.mips m.D.m_instructions m.D.m_seconds))
    rows;
  check_bool "vp is its own baseline" true (vp.D.m_overhead = 1.);
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
      match J.of_string (String.trim (read_file file)) with
      | Error e -> Alcotest.failf "re-parse of written report failed: %s" e
      | Ok doc' ->
          expect_valid doc';
          check_bool "round-tripped document identical" true (doc = doc');
          (* Spot-check the fields CI's trend tooling reads. *)
          check_bool "bench name" true
            (Option.bind (J.member "bench" doc') J.to_str = Some "table2");
          let rows' =
            Option.bind (J.member "rows" doc') J.to_list
            |> Option.value ~default:[]
          in
          check_int "two rows in file" 2 (List.length rows');
          let ovh =
            Option.bind (J.member "overhead" (List.nth rows' 1)) J.to_num
          in
          check_bool "vp+ overhead present and positive" true
            (match ovh with Some o -> o > 0. | None -> false))

(* The branch-heavy dispatch workload drives all three counter classes
   on the default compiled path: linked direct exits, transitions
   through them, jalr exit-cache hits (monomorphic rets) and misses (the
   rotating dispatch site). *)
let test_dispatch_counters () =
  let defs = D.table2 ~scale:0.01 in
  let dispatch = List.find (fun d -> d.D.d_name = "dispatch") defs in
  List.iter
    (fun m ->
      let ctx what = Printf.sprintf "dispatch %s: %s" m.D.m_mode what in
      check_bool (ctx "exited cleanly") true m.D.m_exit_ok;
      check_bool (ctx "exits linked") true (m.D.m_superblocks > 0);
      check_bool (ctx "chains taken") true (m.D.m_chain_hits > 0);
      check_bool (ctx "ic hits") true (m.D.m_ic_hits > 0);
      check_bool (ctx "ic misses") true (m.D.m_ic_misses > 0))
    (D.measure_def dispatch);
  (* On the single-step reference the same workload reports all four
     counters as zero. *)
  List.iter
    (fun m ->
      check_int "reference rows carry zero linked exits" 0 m.D.m_superblocks;
      check_int "reference rows carry zero chain hits" 0 m.D.m_chain_hits;
      check_int "reference rows carry zero ic traffic" 0
        (m.D.m_ic_hits + m.D.m_ic_misses))
    (D.measure_def ~block_cache:false dispatch)

let committed_table2 () =
  match J.of_string (read_file "../BENCH_table2.json") with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "BENCH_table2.json: %s" e

let rows_of doc =
  Option.bind (J.member "rows" doc) J.to_list |> Option.value ~default:[]

let str k r = Option.bind (J.member k r) J.to_str |> Option.value ~default:""
let num k r = Option.bind (J.member k r) J.to_num |> Option.value ~default:0.

(* The committed report is a full-scale run of the default set on the
   compiled path: a vp and a vp+ row per workload, in order. *)
let test_committed_report () =
  let doc = committed_table2 () in
  expect_valid doc;
  check_bool "scale 1" true (J.member "scale" doc = Some (J.Num 1.));
  check_bool "compiled path" true
    (J.member "block_cache" doc = Some (J.Bool true));
  let expected =
    List.concat_map
      (fun d -> [ (d.D.d_name, "vp"); (d.D.d_name, "vp+") ])
      (D.table2 ~scale:1.)
  in
  check_bool "one vp and one vp+ row per default workload" true
    (List.map (fun r -> (str "workload" r, str "mode" r)) (rows_of doc)
    = expected);
  List.iter
    (fun r ->
      check_bool (str "workload" r ^ " exited cleanly") true
        (J.member "exit_ok" r = Some (J.Bool true)))
    (rows_of doc)

(* EXPERIMENTS.md's measured Table II (the table whose header has an
   "#instr" column) shows, on each workload's line, the committed row's
   VP and VP+ MIPS to one decimal. *)
let test_experiments_quote_report () =
  let cells line = List.map String.trim (String.split_on_char '|' line) in
  let rec body = function
    | l :: rest when String.starts_with ~prefix:"|" l -> cells l :: body rest
    | _ -> []
  in
  let rec table = function
    | [] -> Alcotest.fail "EXPERIMENTS.md has no measured Table II"
    | line :: rest when List.mem "#instr" (cells line) -> (cells line, body rest)
    | _ :: rest -> table rest
  in
  let header, lines =
    table (String.split_on_char '\n' (read_file "../EXPERIMENTS.md"))
  in
  let column name =
    match List.find_index (String.equal name) header with
    | Some i -> i
    | None -> Alcotest.failf "Table II has no %S column" name
  in
  let cell c name = Option.value ~default:"" (List.nth_opt c (column name)) in
  List.iter
    (fun r ->
      let workload = str "workload" r and mode = str "mode" r in
      match List.find_opt (fun c -> cell c "Benchmark" = workload) lines with
      | None -> Alcotest.failf "EXPERIMENTS.md Table II has no %s line" workload
      | Some c ->
          check_string
            (Printf.sprintf "%s %s MIPS" workload mode)
            (Printf.sprintf "%.1f" (num "mips" r))
            (cell c (if mode = "vp" then "VP MIPS" else "VP+ MIPS")))
    (rows_of (committed_table2 ()))

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
          Alcotest.test_case "real report end to end" `Slow test_real_report;
          Alcotest.test_case "dispatch workload counters" `Slow
            test_dispatch_counters;
          Alcotest.test_case "committed table2 report" `Quick
            test_committed_report;
          Alcotest.test_case "EXPERIMENTS.md quotes the report" `Quick
            test_experiments_quote_report;
        ] );
    ]
