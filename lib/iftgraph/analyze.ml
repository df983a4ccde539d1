(* Cross-run analysis over a directory of graph stores.

   Ingestion is lazy: creating an analyzer only lists the files; the
   first query decodes every store in file order and pins them in
   memory. Query results are memoized per analyzer — a repeated query
   touches neither the files nor the decoded graphs, which
   [store_reads] / [memo_hits] expose for the tier-1 near-O(answer)
   check. *)

type entry = {
  e_name : string;
  e_path : string;
  mutable e_bytes : int;
  mutable e_store : (Store.t * Store.index) option;
}

type cached =
  | C_back of (string * Query.back) list
  | C_reach of (string * Query.reach) list

type t = {
  entries : entry array;  (** Sorted by file name. *)
  mutable store_reads : int;  (** Store files read and decoded. *)
  mutable memo_hits : int;
  memo : (string, cached) Hashtbl.t;
}

let store_ext = ".iftg"

let create paths =
  let entries =
    paths
    |> List.map (fun p ->
           { e_name = Filename.basename p; e_path = p; e_bytes = 0;
             e_store = None })
    |> List.sort (fun a b -> compare a.e_name b.e_name)
    |> Array.of_list
  in
  { entries; store_reads = 0; memo_hits = 0; memo = Hashtbl.create 16 }

let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Analyze.load_dir: %s is not a directory" dir);
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f store_ext)
    |> List.map (Filename.concat dir)
  in
  create files

let run_count t = Array.length t.entries
let store_reads t = t.store_reads
let memo_hits t = t.memo_hits

(* Decode every not-yet-loaded store, in file order. The read is
   descriptor-safe: a store that fails to decode does not leak the
   channel of the file it came from. *)
let force t =
  Array.iter
    (fun e ->
      if e.e_store = None then begin
        let raw = Snapshot.Io.read_file e.e_path in
        let store = Store.of_string raw in
        t.store_reads <- t.store_reads + 1;
        e.e_bytes <- String.length raw;
        e.e_store <- Some (store, Store.index store)
      end)
    t.entries

let stores t =
  force t;
  Array.to_list t.entries
  |> List.map (fun e ->
         match e.e_store with
         | Some (s, idx) -> (e.e_name, s, idx)
         | None -> assert false)

let memoized t key compute =
  match Hashtbl.find_opt t.memo key with
  | Some v ->
      t.memo_hits <- t.memo_hits + 1;
      v
  | None ->
      let v = compute () in
      Hashtbl.add t.memo key v;
      v

let sources_of t pred =
  let key = "sources-of " ^ Query.pred_to_string pred in
  match
    memoized t key (fun () ->
        C_back
          (stores t
          |> List.map (fun (name, s, idx) -> (name, Query.sources_of s idx pred))
          ))
  with
  | C_back r -> r
  | C_reach _ -> assert false

let reaches t pred =
  let key = "reaches " ^ Query.pred_to_string pred in
  match
    memoized t key (fun () ->
        C_reach
          (stores t
          |> List.map (fun (name, s, idx) -> (name, Query.reaches s idx pred))))
  with
  | C_reach r -> r
  | C_back _ -> assert false

(* --- Cross-run aggregation -------------------------------------------- *)

type run_row = {
  r_name : string;
  r_bytes : int;
  r_context : string;
  r_nodes : int;
  r_edges : int;
  r_seeds : int;
  r_merges : int;
  r_declasses : int;
  r_vias : int;
  r_violations : int;
  r_dropped_edges : int;
  r_dropped_sources : int;
}

type origin_row = {
  o_origin : string;
  o_runs : int;  (** Runs whose graph seeds from this origin. *)
  o_seeds : int;  (** Seed nodes across all runs. *)
  o_violations_reached : int;
      (** Violations (across runs) whose backward source set includes
          this origin — the per-peripheral reach histogram. *)
}

type path_row = {
  p_origin : string;
  p_what : string;  (** Violation description. *)
  p_runs : int;
  p_flows : int;  (** origin -> violation pairs observed. *)
}

type summary = {
  sm_runs : run_row list;
  sm_origins : origin_row list;  (** Sorted by origin name. *)
  sm_top_paths : path_row list;  (** By descending flow count. *)
  sm_total_nodes : int;
  sm_total_edges : int;
  sm_total_violations : int;
  sm_truncated_runs : int;  (** Runs with nonzero dropped counters. *)
}

let summary ?(top = 10) t =
  force t;
  let rows =
    Array.to_list t.entries
    |> List.map (fun e ->
           let s, _ = Option.get e.e_store in
           let seeds, merges, declasses, vias, violations = Store.stats s in
           {
             r_name = e.e_name;
             r_bytes = e.e_bytes;
             r_context = s.Store.meta.Store.context;
             r_nodes = Array.length s.Store.nodes;
             r_edges = Array.length s.Store.edges;
             r_seeds = seeds;
             r_merges = merges;
             r_declasses = declasses;
             r_vias = vias;
             r_violations = violations;
             r_dropped_edges = s.Store.meta.Store.dropped_edges;
             r_dropped_sources = s.Store.meta.Store.dropped_sources;
           })
  in
  (* Per-origin histogram and origin -> violation flow paths: one
     backward walk per violation per run (memoized like any query). *)
  let origins : (string, int ref * int ref * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let get_origin o =
    match Hashtbl.find_opt origins o with
    | Some r -> r
    | None ->
        let r = (ref 0, ref 0, ref 0) in
        Hashtbl.add origins o r;
        r
  in
  let paths : (string * string, int ref * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (_, s, idx) ->
      let seen_run = Hashtbl.create 8 in
      Array.iter
        (fun n ->
          if n.Store.n_kind = Store.Seed then begin
            let runs, seeds, _ = get_origin n.Store.n_origin in
            seeds := !seeds + 1;
            if not (Hashtbl.mem seen_run n.Store.n_origin) then begin
              Hashtbl.add seen_run n.Store.n_origin ();
              incr runs
            end
          end)
        s.Store.nodes;
      let seen_path_run = Hashtbl.create 8 in
      Array.iteri
        (fun k _ ->
          let back = Query.sources_of s idx (Query.P_violation k) in
          let what =
            match back.Query.bk_start with
            | id :: _ -> s.Store.nodes.(id).Store.n_origin
            | [] -> ""
          in
          List.iter
            (fun src ->
              let _, _, viol = get_origin src.Query.src_origin in
              incr viol;
              let key = (src.Query.src_origin, what) in
              let runs, flows =
                match Hashtbl.find_opt paths key with
                | Some r -> r
                | None ->
                    let r = (ref 0, ref 0) in
                    Hashtbl.add paths key r;
                    r
              in
              incr flows;
              if not (Hashtbl.mem seen_path_run key) then begin
                Hashtbl.add seen_path_run key ();
                incr runs
              end)
            back.Query.bk_sources)
        idx.Store.violations)
    (stores t);
  let origin_rows =
    Hashtbl.fold
      (fun o (runs, seeds, viol) acc ->
        { o_origin = o; o_runs = !runs; o_seeds = !seeds;
          o_violations_reached = !viol }
        :: acc)
      origins []
    |> List.sort (fun a b -> compare a.o_origin b.o_origin)
  in
  let path_rows =
    Hashtbl.fold
      (fun (o, w) (runs, flows) acc ->
        { p_origin = o; p_what = w; p_runs = !runs; p_flows = !flows } :: acc)
      paths []
    |> List.sort (fun a b ->
           compare (-a.p_flows, a.p_origin, a.p_what)
             (-b.p_flows, b.p_origin, b.p_what))
  in
  let path_rows =
    if List.length path_rows <= top then path_rows
    else List.filteri (fun i _ -> i < top) path_rows
  in
  {
    sm_runs = rows;
    sm_origins = origin_rows;
    sm_top_paths = path_rows;
    sm_total_nodes = List.fold_left (fun a r -> a + r.r_nodes) 0 rows;
    sm_total_edges = List.fold_left (fun a r -> a + r.r_edges) 0 rows;
    sm_total_violations =
      List.fold_left (fun a r -> a + r.r_violations) 0 rows;
    sm_truncated_runs =
      List.fold_left
        (fun a r ->
          if r.r_dropped_edges > 0 || r.r_dropped_sources > 0 then a + 1
          else a)
        0 rows;
  }
