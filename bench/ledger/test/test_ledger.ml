(* The ledger at smoke size: every metric BENCHMARK.json names is emitted
   with its unit, results survive a Jsonkit round trip, a wrong expectation
   shows up in fail_rate, and the traced run's span tree is well formed. *)

open Ledger_core
module J = Jsonkit.Json

let benchmark =
  lazy
    (match
       J.of_string
         (In_channel.with_open_bin "../../../BENCHMARK.json" In_channel.input_all)
     with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let run ?(processes = 1) ~trace w =
  Bench.combine ~trace ~size:Workload.Smoke ~seed:1 w
    (List.init processes (fun _ ->
         Bench.measure ~seconds:0. ~trace ~size:Workload.Smoke ~work_dir:"_ledger" w))

let results =
  lazy
    (List.concat_map
       (fun name ->
         let w = Workload.make Workload.Smoke ~seed:1 name in
         [ run ~trace:false w; run ~processes:2 ~trace:true w ])
       Workload.names)

let declared key =
  match Option.bind (J.member key (Lazy.force benchmark)) J.to_list with
  | Some l -> l
  | None -> Alcotest.failf "BENCHMARK.json has no %S list" key

let str key v =
  match Option.bind (J.member key v) J.to_str with
  | Some s -> s
  | None -> Alcotest.failf "entry without %S: %s" key (J.to_string v)

let test_declared_metrics () =
  List.iter
    (fun (r : Bench.result) ->
      let key = if r.traced then "per_layer" else "end_to_end" in
      let line =
        match J.of_string (Report.contract_line r) with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) (r.workload ^ " correct") true
        (J.member "correct" line = Some (J.Bool true));
      let metrics = Option.get (J.member "metrics" line) in
      List.iter
        (fun m ->
          let name = str "name" m in
          let where = Printf.sprintf "%s %s %s" r.workload key name in
          match J.member name metrics with
          | None -> Alcotest.failf "%s: not emitted" where
          | Some v ->
              Alcotest.(check string) (where ^ " unit") (str "unit" m) (str "unit" v);
              Alcotest.(check bool) (where ^ " is a number") true
                (Option.bind (J.member "value" v) J.to_num <> None))
        (declared key))
    (Lazy.force results)

(* BENCHMARK.json restates Metric's tables; neither may drift. *)
let test_declared_specs () =
  let check key specs =
    let entries = declared key in
    Alcotest.(check (list string)) (key ^ " names")
      (List.map (fun (s : Metric.spec) -> s.name) specs)
      (List.map (str "name") entries);
    List.iter2
      (fun (s : Metric.spec) e ->
        Alcotest.(check string) (s.name ^ " better") (Report.better_name s.better)
          (str "better" e);
        match s.bound with
        | Some b ->
            Alcotest.(check (option (float 1e-9))) (s.name ^ " bound") (Some b)
              (Option.bind (J.member "bound" e) J.to_num)
        | None -> ())
      specs entries
  in
  check "end_to_end" Metric.end_to_end;
  check "per_layer" Metric.per_layer;
  Alcotest.(check (list string)) "workloads" Workload.names
    (List.map (str "name") (declared "workloads"))

let test_round_trip () =
  let text =
    J.to_string (Report.document (List.map Report.to_json (Lazy.force results)))
  in
  (match J.of_string text with
  | Ok doc -> Alcotest.(check string) "re-rendered" text (J.to_string doc)
  | Error e -> Alcotest.fail e);
  let file = Filename.temp_file ~temp_dir:"." "ledger" ".json" in
  Out_channel.with_open_bin file (fun oc -> output_string oc text);
  let parsed = Report.read_ledger file in
  Sys.remove file;
  match parsed with
  | Ok ws ->
      Alcotest.(check int) "workload entries" (List.length (Lazy.force results))
        (List.length ws)
  | Error e -> Alcotest.fail e

let test_wrong_expectation () =
  let w = Workload.make Workload.Smoke ~seed:1 "io-interrupts" in
  let wrong =
    {
      w with
      programs =
        List.map (fun (p : Workload.program) -> { p with expect_exit = Some 1 }) w.programs;
    }
  in
  let r = run ~trace:false wrong in
  let fail_rate =
    (snd (List.find (fun ((s : Metric.spec), _) -> s.name = "fail_rate") r.metrics))
      .Metric.median
  in
  Alcotest.(check bool) "failed checks" true (r.failed > 0);
  Alcotest.(check bool) "fail_rate above 0" true (fail_rate > 0.);
  Alcotest.(check bool) "result not correct" true
    (J.member "correct" (Result.get_ok (J.of_string (Report.contract_line r)))
    = Some (J.Bool false))

let test_span_tree () =
  List.iter
    (fun (r : Bench.result) ->
      if r.traced then begin
        Alcotest.(check bool) (r.workload ^ " has spans") true (r.spans <> []);
        (* Two processes' spans pooled into one tree. *)
        Alcotest.(check int) (r.workload ^ " processes") 2 r.processes;
        let ids = List.map (fun s -> s.Spans.id) r.spans in
        Alcotest.(check int) (r.workload ^ " span ids unique") (List.length ids)
          (List.length (List.sort_uniq compare ids));
        (match Spans.well_formed r.spans with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" r.workload e);
        List.iter
          (fun (s, self) ->
            if self < -1e-9 then Alcotest.failf "%s: negative self time" s.Spans.name)
          (Spans.self_times r.spans);
        let events =
          Option.bind (J.member "traceEvents" (Spans.to_chrome r.spans)) J.to_list
        in
        Alcotest.(check (option int)) "one event per span"
          (Some (List.length r.spans)) (Option.map List.length events)
      end)
    (Lazy.force results);
  let bad =
    [
      { Spans.id = 0; name = "parent"; run = 1; parent = -1; start = 0.; stop = 1. };
      { Spans.id = 1; name = "child"; run = 1; parent = 0; start = 0.5; stop = 1.5 };
    ]
  in
  Alcotest.(check bool) "child outside its parent" true
    (Result.is_error (Spans.well_formed bad))

let side median p25 p75 samples = { Report.median; p25; p75; samples }

let test_verdicts () =
  let mips = Metric.find "vp_mips" in
  let base = side 100. 99. 101. [ 99.; 100.; 101. ] in
  let v = Report.verdict mips base in
  Alcotest.(check string) "faster" "improved" (v (side 110. 109. 111. [ 109.; 110.; 111. ]));
  Alcotest.(check string) "slower" "worse beyond bound"
    (v (side 70. 69. 71. [ 69.; 70.; 71. ]));
  Alcotest.(check string) "same" "within bound" (v (side 100.5 99. 101. [ 99.; 100.5; 101. ]));
  Alcotest.(check string) "noisy base" "unresolved"
    (Report.verdict mips (side 100. 80. 120. [ 80.; 100.; 120. ])
       (side 105. 90. 115. [ 90.; 105.; 115. ]))

let () =
  Alcotest.run "ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "declared metrics emitted with units" `Quick
            test_declared_metrics;
          Alcotest.test_case "BENCHMARK.json matches the metric tables" `Quick
            test_declared_specs;
          Alcotest.test_case "ledger JSON round-trips" `Quick test_round_trip;
          Alcotest.test_case "wrong expectation raises fail_rate" `Quick
            test_wrong_expectation;
          Alcotest.test_case "span tree well formed" `Quick test_span_tree;
          Alcotest.test_case "compare verdicts" `Quick test_verdicts;
        ] );
    ]
