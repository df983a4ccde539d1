(* Rendering a result three ways: the human table, the one-line result the
   benchmark contract reads, and the ledger.json document that [compare]
   reads back. *)

module J = Jsonkit.Json

let pf = Printf.printf
let size_name = function Workload.Full -> "full" | Workload.Smoke -> "smoke"
let better_name = function Metric.Higher -> "higher" | Metric.Lower -> "lower"

let print_rows rows =
  pf "  %-28s %-10s %14s %14s %14s %5s\n" "metric" "unit" "median" "p25" "p75" "n";
  List.iter
    (fun ((s : Metric.spec), (m : Metric.summary)) ->
      pf "  %-28s %-10s %14.6g %14.6g %14.6g %5d%s\n" s.name s.unit m.median m.p25
        m.p75 m.n
        (if s.name = "setup_s" then Printf.sprintf "   p90 %.6g" m.p90 else ""))
    rows

let median name rows =
  (snd (List.find (fun ((s : Metric.spec), _) -> s.name = name) rows)).Metric.median

(* Self time per span name inside the traced passes (set-up samples are
   left out), per pass. *)
let print_self_times (r : Bench.result) =
  let passes =
    List.filter_map
      (fun (s : Spans.span) -> if s.name = "pass" then Some s.run else None)
      r.spans
  in
  let totals = Hashtbl.create 32 in
  List.iter
    (fun ((s : Spans.span), self) ->
      if List.mem s.run passes then
        Hashtbl.replace totals s.name
          (self +. Option.value ~default:0. (Hashtbl.find_opt totals s.name)))
    (Spans.self_times r.spans);
  let rows = List.sort (fun (_, a) (_, b) -> Float.compare b a) (List.of_seq (Hashtbl.to_seq totals)) in
  pf "  self time per traced pass (s):\n";
  List.iter
    (fun (name, t) -> pf "    %-24s %12.6f\n" name (t /. float_of_int r.traced_passes))
    rows

let print (r : Bench.result) =
  pf "== %s  seed %d  size %s  %d process(es): %d timed pass(es) after %d warm-up%s ==\n"
    r.workload r.seed (size_name r.size) r.processes r.passes r.warmup
    (if r.traced then Printf.sprintf ", %d traced" r.traced_passes else "");
  print_rows r.metrics;
  pf "  checks: %d of %d failed\n" r.failed r.attempted;
  List.iter (pf "  FAILED: %s\n") r.failures;
  pf "  sim_digest %s\n" r.digest;
  if r.traced then begin
    pf "  per-layer (traced passes):\n";
    print_rows r.layers;
    let lm = median in
    pf "  ladder MIPS: vp %.2f -> vp+tags %.2f -> vp+ %.2f -> vp+trace %.2f\n"
      (lm "ladder.vp_mips" r.layers) (lm "ladder.tags_mips" r.layers)
      (lm "ladder.vpp_mips" r.layers) (lm "ladder.trace_mips" r.layers);
    let untraced = median "vpp_mips" r.metrics in
    let traced = lm "ladder.vpp_mips" r.layers in
    pf "  tracing overhead: untraced vpp_mips %.2f, traced %.2f (%+.1f%%)\n"
      untraced traced
      (100. *. ((untraced /. traced) -. 1.));
    print_self_times r
  end

(* The last line of a single-workload run: end-to-end metrics untraced,
   per-layer metrics traced, each as its median. *)
let contract_line (r : Bench.result) =
  let specs, rows =
    if r.traced then (Metric.per_layer, r.layers) else (Metric.end_to_end, r.metrics)
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (r.failed = 0));
         ("attempted", J.num_of_int r.attempted);
         ("failed", J.num_of_int r.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (s : Metric.spec) ->
                  ( s.name,
                    J.Obj [ ("value", J.Num (median s.name rows)); ("unit", J.Str s.unit) ] ))
                specs) );
       ])

let summary_json ((s : Metric.spec), (m : Metric.summary)) =
  ( s.name,
    J.Obj
      ([
         ("unit", J.Str s.unit);
         ("better", J.Str (better_name s.better));
       ]
      @ (match s.bound with Some b -> [ ("bound", J.Num b) ] | None -> [])
      @ [
          ("median", J.Num m.median);
          ("p25", J.Num m.p25);
          ("p75", J.Num m.p75);
          ("p90", J.Num m.p90);
          ("n", J.num_of_int m.n);
          ("samples", J.List (List.map (fun x -> J.Num x) m.samples));
        ]) )

let to_json (r : Bench.result) =
  J.Obj
    [
      ("workload", J.Str r.workload);
      ("seed", J.num_of_int r.seed);
      ("size", J.Str (size_name r.size));
      ("traced", J.Bool r.traced);
      ("processes", J.num_of_int r.processes);
      ("warmup", J.num_of_int r.warmup);
      ("passes", J.num_of_int r.passes);
      ("traced_passes", J.num_of_int r.traced_passes);
      ("attempted", J.num_of_int r.attempted);
      ("failed", J.num_of_int r.failed);
      ("failures", J.List (List.map (fun f -> J.Str f) r.failures));
      ("sim_digest", J.Str r.digest);
      ("metrics", J.Obj (List.map summary_json r.metrics));
      ("layers", J.Obj (List.map summary_json r.layers));
    ]

let document workloads = J.Obj [ ("ledger", J.num_of_int 1); ("workloads", J.List workloads) ]

(* --- compare --------------------------------------------------------- *)

type side = { median : float; p25 : float; p75 : float; samples : float list }

(* Workload name -> end-to-end metric name -> side. *)
let read_ledger file =
  let ( let* ) = Option.bind in
  let metric (name, v) =
    let num k = Option.bind (J.member k v) J.to_num in
    let* median = num "median" in
    let* p25 = num "p25" in
    let* p75 = num "p75" in
    let* samples = Option.bind (J.member "samples" v) J.to_list in
    Some (name, { median; p25; p75; samples = List.filter_map J.to_num samples })
  in
  let workload w =
    let* name = Option.bind (J.member "workload" w) J.to_str in
    match J.member "metrics" w with
    | Some (J.Obj fields) -> Some (name, List.filter_map metric fields)
    | _ -> None
  in
  let parsed =
    match J.of_string (In_channel.with_open_bin file In_channel.input_all) with
    | Error e -> Error e
    | Ok doc -> (
        match Option.bind (J.member "workloads" doc) J.to_list with
        | None -> Error "no \"workloads\" list"
        | Some ws ->
            let entries = List.map workload ws in
            if List.mem None entries then Error "malformed workload entry"
            else Ok (List.filter_map Fun.id entries))
  in
  Result.map_error (fun e -> file ^ ": " ^ e) parsed

(* Worse beyond the bound is a regression whatever the spread; a spread
   wider than the bound leaves the pairing unresolved unless every change
   sample beats every base sample; a gain needs the medians to differ by
   more than the base's quartile spread. A metric read once per run
   (fail_rate) has no spread, so its gain must exceed the bound
   instead. *)
let verdict (s : Metric.spec) b c =
  let bound = Option.value ~default:0. s.bound in
  let gain x y = match s.better with Metric.Higher -> y -. x | Metric.Lower -> x -. y in
  let rel x = if b.median = 0. then x else x /. Float.abs b.median in
  let change = rel (gain b.median c.median) in
  let spread = rel (b.p75 -. b.p25) in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.) b.samples) c.samples
  in
  if change < -.bound then "worse beyond bound"
  else if List.length b.samples < 3 then
    if change > bound then "improved" else "within bound"
  else if spread > bound && not all_better then "unresolved"
  else if change > spread then "improved"
  else "within bound"

let compare_files base change =
  match (read_ledger base, read_ledger change) with
  | Error e, _ | _, Error e ->
      prerr_endline e;
      2
  | Ok bs, Ok cs ->
      let regressions = ref 0 in
      pf "%-16s %-16s %12s %12s %23s %23s  %s\n" "workload" "metric" "base" "change"
        "base p25..p75" "change p25..p75" "verdict";
      List.iter
        (fun (w, bm) ->
          match List.assoc_opt w cs with
          | None -> pf "%-16s (missing from %s)\n" w change
          | Some cm ->
              List.iter
                (fun (s : Metric.spec) ->
                  match (List.assoc_opt s.name bm, List.assoc_opt s.name cm) with
                  | Some b, Some c ->
                      let v = verdict s b c in
                      if v = "worse beyond bound" then incr regressions;
                      pf "%-16s %-16s %12.6g %12.6g %11.5g..%-11.5g %11.5g..%-11.5g  %s\n" w
                        s.name b.median c.median b.p25 b.p75 c.p25 c.p75 v
                  | _ -> ())
                (Metric.end_to_end @ [ Metric.fail_rate ]))
        bs;
      if !regressions > 0 then 1 else 0
