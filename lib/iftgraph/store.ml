module C = Snapshot.Codec

let corrupt fmt = Printf.ksprintf (fun s -> raise (C.Corrupt s)) fmt

type kind = Seed | Merge | Declass | Via | Violation

let kind_name = function
  | Seed -> "seed"
  | Merge -> "merge"
  | Declass -> "declass"
  | Via -> "via"
  | Violation -> "violation"

let kind_code = function
  | Seed -> 0
  | Merge -> 1
  | Declass -> 2
  | Via -> 3
  | Violation -> 4

let kind_of_code = function
  | 0 -> Seed
  | 1 -> Merge
  | 2 -> Declass
  | 3 -> Via
  | 4 -> Violation
  | c -> corrupt "bad node kind code %d" c

type node = {
  n_id : int;
  n_kind : kind;
  n_tag : int;  (** The security class this commit produced / observed. *)
  n_time : int;  (** Simulation time, ps. *)
  n_pc : int;  (** Last retired pc when the commit happened; -1 unknown. *)
  n_a : int;  (** Merge input a / declass from-tag; -1 unused. *)
  n_b : int;  (** Merge input b; -1 unused. *)
  n_origin : string;  (** Seed origin / via channel / violation what. *)
  n_addr : int;  (** Seed bus address; -1 none. *)
  n_count : int;  (** Occurrences coalesced into this node (>= 1). *)
}

type edge = { e_from : int; e_to : int }

type meta = {
  classes : string array;  (** Lattice class names; index = tag. *)
  context : string;
  dropped_edges : int;  (** 0 in new stores; see store.mli. *)
  dropped_sources : int;
}

type t = { meta : meta; nodes : node array; edges : edge array }

let magic = "DIFTVPGR"
let version = 1

(* --- Indexes ---------------------------------------------------------- *)

(* Derived, never serialised: rebuild from the arrays after decode so a
   decode -> encode round trip is byte-identical by construction. *)
type index = {
  by_tag : int list array;  (** tag -> node ids, ascending. *)
  violations : int array;  (** Violation node ids, ascending. *)
  out_edges : int list array;  (** node id -> successor node ids. *)
  in_edges : int list array;  (** node id -> predecessor node ids. *)
}

let index t =
  let ntags = Array.length t.meta.classes in
  let n = Array.length t.nodes in
  let by_tag = Array.make (max 1 ntags) [] in
  let violations = ref [] in
  Array.iter
    (fun nd ->
      if nd.n_tag >= 0 && nd.n_tag < ntags then
        by_tag.(nd.n_tag) <- nd.n_id :: by_tag.(nd.n_tag);
      if nd.n_kind = Violation then violations := nd.n_id :: !violations)
    t.nodes;
  Array.iteri (fun i ids -> by_tag.(i) <- List.rev ids) by_tag;
  let out_edges = Array.make (max 1 n) [] in
  let in_edges = Array.make (max 1 n) [] in
  Array.iter
    (fun e ->
      out_edges.(e.e_from) <- e.e_to :: out_edges.(e.e_from);
      in_edges.(e.e_to) <- e.e_from :: in_edges.(e.e_to))
    t.edges;
  Array.iteri (fun i l -> out_edges.(i) <- List.rev l) out_edges;
  Array.iteri (fun i l -> in_edges.(i) <- List.rev l) in_edges;
  {
    by_tag;
    violations = Array.of_list (List.rev !violations);
    out_edges;
    in_edges;
  }

(* --- Encoding --------------------------------------------------------- *)

(* Sectioned container in the lib/snapshot style: magic, format version,
   named sections. Strings are interned into a table built in
   first-reference order, so identical stores are identical byte strings
   (what the CI golden diff and the re-encode ingestion test compare). *)

let encode t =
  let strings = Hashtbl.create 64 in
  let string_list = ref [] in
  let nstrings = ref 0 in
  let intern s =
    match Hashtbl.find_opt strings s with
    | Some i -> i
    | None ->
        let i = !nstrings in
        incr nstrings;
        Hashtbl.add strings s i;
        string_list := s :: !string_list;
        i
  in
  (* +1 shifts the "absent" sentinel -1 into varint range. *)
  let nodes_w = C.writer () in
  Array.iter
    (fun n ->
      C.put_varint nodes_w (kind_code n.n_kind);
      C.put_varint nodes_w n.n_tag;
      C.put_varint nodes_w n.n_time;
      C.put_varint nodes_w (n.n_pc + 1);
      C.put_varint nodes_w (n.n_a + 1);
      C.put_varint nodes_w (n.n_b + 1);
      C.put_varint nodes_w (intern n.n_origin);
      C.put_varint nodes_w (n.n_addr + 1);
      C.put_varint nodes_w n.n_count)
    t.nodes;
  let edges_w = C.writer () in
  (* Edges are appended with ascending targets; delta-code the target and
     the (usually small) backward distance to the source. *)
  let prev_to = ref 0 in
  Array.iter
    (fun e ->
      C.put_varint edges_w (e.e_to - !prev_to);
      prev_to := e.e_to;
      C.put_varint edges_w (e.e_to - e.e_from + 1))
    t.edges;
  let meta_w = C.writer () in
  C.put_varint meta_w (Array.length t.meta.classes);
  Array.iter (fun c -> C.put_string meta_w c) t.meta.classes;
  C.put_string meta_w t.meta.context;
  C.put_varint meta_w t.meta.dropped_edges;
  C.put_varint meta_w t.meta.dropped_sources;
  C.put_varint meta_w (Array.length t.nodes);
  C.put_varint meta_w (Array.length t.edges);
  let strings_w = C.writer () in
  let all = List.rev !string_list in
  C.put_varint strings_w (List.length all);
  List.iter (fun s -> C.put_string strings_w s) all;
  let w = C.writer () in
  C.put_u32 w version;
  C.put_list w
    (fun w (name, payload) ->
      C.put_string w name;
      C.put_string w payload)
    [
      ("meta", C.contents meta_w);
      ("strings", C.contents strings_w);
      ("nodes", C.contents nodes_w);
      ("edges", C.contents edges_w);
    ];
  magic ^ C.contents w

let to_string = encode

let decode s =
  if String.length s < 8 || String.sub s 0 8 <> magic then
    corrupt "not an IFT graph store (bad magic)";
  let r = C.reader (String.sub s 8 (String.length s - 8)) in
  let v = C.get_u32 r in
  if v <> version then corrupt "unsupported graph-store version %d" v;
  let sections =
    C.get_list r (fun r ->
        let name = C.get_string r in
        let payload = C.get_string r in
        (name, payload))
  in
  C.expect_end r;
  let section name =
    match List.assoc_opt name sections with
    | Some p -> (C.reader p, String.length p)
    | None -> corrupt "graph store lacks a %S section" name
  in
  (* A count precedes its elements: bound it by what its section can hold
     at [per] bytes an element, so a hostile count raises Corrupt instead
     of allocating. *)
  let count what n ~bytes ~per =
    if n > bytes / per then
      corrupt "%s count %d exceeds its %d-byte section" what n bytes;
    n
  in
  let mr, meta_bytes = section "meta" in
  let nclasses = count "class" (C.get_varint mr) ~bytes:meta_bytes ~per:4 in
  let classes = Array.init nclasses (fun _ -> C.get_string mr) in
  let context = C.get_string mr in
  let dropped_edges = C.get_varint mr in
  let dropped_sources = C.get_varint mr in
  let n_nodes = C.get_varint mr in
  let n_edges = C.get_varint mr in
  C.expect_end mr;
  let sr, strings_bytes = section "strings" in
  let nstrings = count "string" (C.get_varint sr) ~bytes:strings_bytes ~per:4 in
  let strings = Array.init nstrings (fun _ -> C.get_string sr) in
  C.expect_end sr;
  let str i =
    if i < 0 || i >= nstrings then corrupt "string-table id %d out of range" i
    else strings.(i)
  in
  let nr, nodes_bytes = section "nodes" in
  let n_nodes = count "node" n_nodes ~bytes:nodes_bytes ~per:9 in
  let nodes =
    Array.init n_nodes (fun id ->
        let n_kind = kind_of_code (C.get_varint nr) in
        let n_tag = C.get_varint nr in
        let n_time = C.get_varint nr in
        let n_pc = C.get_varint nr - 1 in
        let n_a = C.get_varint nr - 1 in
        let n_b = C.get_varint nr - 1 in
        let n_origin = str (C.get_varint nr) in
        let n_addr = C.get_varint nr - 1 in
        let n_count = C.get_varint nr in
        { n_id = id; n_kind; n_tag; n_time; n_pc; n_a; n_b; n_origin;
          n_addr; n_count })
    in
  C.expect_end nr;
  let er, edges_bytes = section "edges" in
  let n_edges = count "edge" n_edges ~bytes:edges_bytes ~per:2 in
  let prev_to = ref 0 in
  let edges =
    Array.init n_edges (fun _ ->
        let e_to = !prev_to + C.get_varint er in
        prev_to := e_to;
        let e_from = e_to - (C.get_varint er - 1) in
        if e_from < 0 || e_from >= n_nodes || e_to < 0 || e_to >= n_nodes then
          corrupt "edge %d -> %d out of node range" e_from e_to;
        { e_from; e_to })
  in
  C.expect_end er;
  {
    meta = { classes; context; dropped_edges; dropped_sources };
    nodes;
    edges;
  }

let of_string = decode

(* Atomic publish: an exception mid-encode (or a kill mid-write) must
   not leave a truncated .iftg under the final name — campaign resumes
   and analyze sweeps read these directories. *)
let write_file t path = Snapshot.Io.write_file_atomic path (to_string t)

let read_file path = decode (Snapshot.Io.read_file path)

let tag_name t tag =
  if tag >= 0 && tag < Array.length t.meta.classes then t.meta.classes.(tag)
  else string_of_int tag

let stats t =
  let count k = Array.fold_left
      (fun acc n -> if n.n_kind = k then acc + 1 else acc) 0 t.nodes
  in
  ( count Seed, count Merge, count Declass, count Via, count Violation )
