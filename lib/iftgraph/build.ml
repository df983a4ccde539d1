(* Incremental construction of a Store.t while a simulation runs.

   Every observed commit is appended as it happens; exact repeats (same
   kind, tags, origin, addr AND pc) coalesce into the existing node's
   count, so a hot loop recomputing the same join settles into a single
   hashtable hit per iteration. Edges are derived on append:

   - a per-tag chain edge from the previous commit of the same class, so
     every earlier contributor to a tag stays reachable backward; and
   - for merges/declassifications, input edges from the latest commit of
     each input class.

   Node ids are append-ordered, which keeps every edge forward
   (from < to) and the store's delta encoding compact. *)

type key = {
  k_kind : Store.kind;
  k_tag : int;
  k_a : int;
  k_b : int;
  k_origin : string;
  k_addr : int;
  k_pc : int;
}

type pending = {
  p_kind : Store.kind;
  p_tag : int;
  p_time : int;
  p_pc : int;
  p_a : int;
  p_b : int;
  p_origin : string;
  p_addr : int;
  mutable p_count : int;
}

type t = {
  classes : string array;
  mutable context : string;
  mutable nodes : pending list;  (** Newest first. *)
  mutable n_nodes : int;
  mutable edges : Store.edge list;  (** Newest first. *)
  mutable n_edges : int;
  seen : (key, pending) Hashtbl.t;
  latest : int array;  (** tag -> newest committing node id; -1 none. *)
  mutable cur_time : int;
  mutable cur_pc : int;
}

let create ?(context = "") ~classes () =
  {
    classes = Array.of_list classes;
    context;
    nodes = [];
    n_nodes = 0;
    edges = [];
    n_edges = 0;
    seen = Hashtbl.create 256;
    latest = Array.make (max 1 (List.length classes)) (-1);
    cur_time = 0;
    cur_pc = -1;
  }

let set_context t ctx = t.context <- ctx

let set_pos t ~time ~pc =
  t.cur_time <- time;
  t.cur_pc <- pc

let node_count t = t.n_nodes
let edge_count t = t.n_edges

let in_range t tag = tag >= 0 && tag < Array.length t.latest

let add_edge t ~from_ ~to_ =
  if from_ >= 0 && from_ <> to_ then begin
    t.edges <- { Store.e_from = from_; e_to = to_ } :: t.edges;
    t.n_edges <- t.n_edges + 1
  end

(* [inputs] are the classes whose latest commits feed this one; [commits]
   tells whether the node becomes its own class's latest (violations are
   sink observations, they commit nothing). *)
let append t ~kind ~tag ~time ~pc ~a ~b ~origin ~addr ~inputs ~commits =
  let key =
    { k_kind = kind; k_tag = tag; k_a = a; k_b = b; k_origin = origin;
      k_addr = addr; k_pc = pc }
  in
  match Hashtbl.find_opt t.seen key with
  | Some p -> p.p_count <- p.p_count + 1
  | None ->
      let id = t.n_nodes in
      let p =
        { p_kind = kind; p_tag = tag; p_time = time; p_pc = pc; p_a = a;
          p_b = b; p_origin = origin; p_addr = addr; p_count = 1 }
      in
      t.nodes <- p :: t.nodes;
      t.n_nodes <- id + 1;
      Hashtbl.add t.seen key p;
      (* Chain edge first, then input edges, deduped against each other
         (a merge whose input is its own class is just the chain). *)
      let chain = if in_range t tag then t.latest.(tag) else -1 in
      add_edge t ~from_:chain ~to_:id;
      List.iter
        (fun input ->
          if in_range t input then begin
            let src = t.latest.(input) in
            if src <> chain then add_edge t ~from_:src ~to_:id
          end)
        inputs;
      if commits && in_range t tag then t.latest.(tag) <- id

let add_seed t ~origin ?(addr = -1) ~time ~tag () =
  append t ~kind:Store.Seed ~tag ~time ~pc:t.cur_pc ~a:(-1) ~b:(-1) ~origin
    ~addr ~inputs:[] ~commits:true

let add_merge t ~a ~b ~result =
  append t ~kind:Store.Merge ~tag:result ~time:t.cur_time ~pc:t.cur_pc ~a ~b
    ~origin:"" ~addr:(-1) ~inputs:[ a; b ] ~commits:true

let add_declass t ~from ~result =
  append t ~kind:Store.Declass ~tag:result ~time:t.cur_time ~pc:t.cur_pc
    ~a:from ~b:(-1) ~origin:"" ~addr:(-1) ~inputs:[ from ] ~commits:true

let add_via t ~channel ~tag =
  append t ~kind:Store.Via ~tag ~time:t.cur_time ~pc:t.cur_pc ~a:(-1) ~b:(-1)
    ~origin:channel ~addr:(-1) ~inputs:[] ~commits:true

let add_violation t ~what ~pc ~time ~tag =
  append t ~kind:Store.Violation ~tag ~time ~pc ~a:(-1) ~b:(-1) ~origin:what
    ~addr:(-1) ~inputs:[ tag ] ~commits:false

let finish t =
  let nodes = Array.make t.n_nodes None in
  List.iteri
    (fun i p -> nodes.(t.n_nodes - 1 - i) <- Some p)
    t.nodes;
  let nodes =
    Array.mapi
      (fun id p ->
        match p with
        | None -> assert false
        | Some p ->
            {
              Store.n_id = id;
              n_kind = p.p_kind;
              n_tag = p.p_tag;
              n_time = p.p_time;
              n_pc = p.p_pc;
              n_a = p.p_a;
              n_b = p.p_b;
              n_origin = p.p_origin;
              n_addr = p.p_addr;
              n_count = p.p_count;
            })
      nodes
  in
  {
    Store.meta =
      {
        Store.classes = Array.copy t.classes;
        context = t.context;
        dropped_edges = 0;
        dropped_sources = 0;
      };
    nodes;
    edges = Array.of_list (List.rev t.edges);
  }
