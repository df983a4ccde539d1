(* Queries over a single store.

   Backward source-finding walks at class granularity (visit a class ->
   scan every commit to that class -> enqueue merge/declass input
   classes); the forensic chain of Trace.Provenance is a second view of
   the same walk. Forward reach works on the explicit flow edges
   instead, which respects observation order (only commits at-or-after
   the start nodes are reached). *)

type pred =
  | P_violation of int  (** k-th violation node of the store, 0-based. *)
  | P_pc of int  (** Nodes stamped with this pc. *)
  | P_tag of string  (** Commits to the named class. *)
  | P_origin of string  (** Seeds from this origin / via channel. *)
  | P_addr of int  (** Seeds covering this bus address. *)

let pred_to_string = function
  | P_violation k -> Printf.sprintf "violation:%d" k
  | P_pc pc -> Printf.sprintf "pc:0x%x" pc
  | P_tag n -> "tag:" ^ n
  | P_origin o -> "origin:" ^ o
  | P_addr a -> Printf.sprintf "addr:0x%x" a

let parse_pred s =
  match String.index_opt s ':' with
  | None ->
      Error
        (Printf.sprintf
           "bad predicate %S (expected violation:K, pc:0xADDR, tag:NAME, \
            origin:NAME or addr:0xADDR)"
           s)
  | Some i -> (
      let kind = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      let num what =
        match int_of_string_opt v with
        | Some n when n >= 0 -> Ok n
        | _ -> Error (Printf.sprintf "bad %s in predicate %S" what s)
      in
      match kind with
      | "violation" -> Result.map (fun k -> P_violation k) (num "index")
      | "pc" -> Result.map (fun pc -> P_pc pc) (num "address")
      | "addr" -> Result.map (fun a -> P_addr a) (num "address")
      | "tag" -> if v = "" then Error "empty tag name" else Ok (P_tag v)
      | "origin" ->
          if v = "" then Error "empty origin name" else Ok (P_origin v)
      | k -> Error (Printf.sprintf "unknown predicate kind %S in %S" k s))

(* Matched node ids, ascending; empty when nothing matches (e.g. a
   violation index past the store's count). *)
let start_nodes store idx = function
  | P_violation k ->
      if k >= 0 && k < Array.length idx.Store.violations then
        [ idx.Store.violations.(k) ]
      else []
  | P_pc pc ->
      Array.to_list store.Store.nodes
      |> List.filter_map (fun n ->
             if n.Store.n_pc = pc then Some n.Store.n_id else None)
  | P_tag name ->
      Array.to_list store.Store.nodes
      |> List.filter_map (fun n ->
             if Store.tag_name store n.Store.n_tag = name then
               Some n.Store.n_id
             else None)
  | P_origin origin ->
      Array.to_list store.Store.nodes
      |> List.filter_map (fun n ->
             if
               (n.Store.n_kind = Store.Seed || n.Store.n_kind = Store.Via)
               && n.Store.n_origin = origin
             then Some n.Store.n_id
             else None)
  | P_addr addr ->
      Array.to_list store.Store.nodes
      |> List.filter_map (fun n ->
             if n.Store.n_kind = Store.Seed && n.Store.n_addr = addr then
               Some n.Store.n_id
             else None)

(* --- Backward: which seeds reach these nodes? ------------------------- *)

type source = {
  src_origin : string;
  src_addr : int option;
  src_tag : int;
  src_time : int;
  src_node : int;
}

type back = {
  bk_pred : pred;
  bk_start : int list;  (** Matched start node ids. *)
  bk_sources : source list;  (** Deduped, (origin, addr, tag)-sorted. *)
  bk_tags : int list;  (** Classes visited by the walk, ascending. *)
  bk_nodes_visited : int;
}

let walk_back store idx tags visit =
  let ntags = Array.length store.Store.meta.classes in
  let seen = Array.make (max 1 ntags) false in
  let queue = Queue.create () in
  let push tag =
    if tag >= 0 && tag < ntags && not seen.(tag) then begin
      seen.(tag) <- true;
      Queue.add tag queue
    end
  in
  List.iter push tags;
  while not (Queue.is_empty queue) do
    let tag = Queue.pop queue in
    let ids = idx.Store.by_tag.(tag) in
    visit tag ids;
    List.iter
      (fun id ->
        let n = store.Store.nodes.(id) in
        match n.Store.n_kind with
        | Store.Merge ->
            push n.Store.n_a;
            push n.Store.n_b
        | Store.Declass -> push n.Store.n_a
        | Store.Seed | Store.Via | Store.Violation -> ())
      ids
  done

let sources_of store idx pred =
  let starts = start_nodes store idx pred in
  let tags = ref [] and sources = ref [] and visited = ref 0 in
  walk_back store idx
    (List.map (fun id -> store.Store.nodes.(id).Store.n_tag) starts)
    (fun tag ids ->
      tags := tag :: !tags;
      List.iter
        (fun id ->
          incr visited;
          let n = store.Store.nodes.(id) in
          if n.Store.n_kind = Store.Seed then
            sources :=
              {
                src_origin = n.Store.n_origin;
                src_addr = (if n.Store.n_addr < 0 then None else Some n.Store.n_addr);
                src_tag = n.Store.n_tag;
                src_time = n.Store.n_time;
                src_node = n.Store.n_id;
              }
              :: !sources)
        ids);
  let sources =
    List.sort_uniq
      (fun a b ->
        compare
          (a.src_origin, a.src_addr, a.src_tag)
          (b.src_origin, b.src_addr, b.src_tag))
      !sources
  in
  {
    bk_pred = pred;
    bk_start = starts;
    bk_sources = sources;
    bk_tags = List.sort compare !tags;
    bk_nodes_visited = !visited;
  }

(* --- Forward: what does this flow into? ------------------------------- *)

type reach = {
  rc_pred : pred;
  rc_start : int list;
  rc_nodes_reached : int;
  rc_tags : int list;  (** Classes of reached commits, ascending. *)
  rc_violations : int list;  (** Reached violation node ids, ascending. *)
  rc_origins : string list;  (** Seed/via origins inside the reach. *)
}

let reaches store idx pred =
  let starts = start_nodes store idx pred in
  let n = Array.length store.Store.nodes in
  let seen = Array.make (max 1 n) false in
  let queue = Queue.create () in
  let push id =
    if id >= 0 && id < n && not seen.(id) then begin
      seen.(id) <- true;
      Queue.add id queue
    end
  in
  List.iter push starts;
  let reached = ref 0 in
  let tags = Hashtbl.create 8 in
  let violations = ref [] in
  let origins = ref [] in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    incr reached;
    let nd = store.Store.nodes.(id) in
    Hashtbl.replace tags nd.Store.n_tag ();
    (match nd.Store.n_kind with
    | Store.Violation -> violations := id :: !violations
    | Store.Seed | Store.Via ->
        if not (List.mem nd.Store.n_origin !origins) then
          origins := nd.Store.n_origin :: !origins
    | Store.Merge | Store.Declass -> ());
    List.iter push idx.Store.out_edges.(id)
  done;
  {
    rc_pred = pred;
    rc_start = starts;
    rc_nodes_reached = !reached;
    rc_tags = List.sort compare (Hashtbl.fold (fun t () acc -> t :: acc) tags []);
    rc_violations = List.sort compare !violations;
    rc_origins = List.sort compare !origins;
  }
