module L = Dift.Lattice

type source = {
  s_id : int;
  s_origin : string;
  s_addr : int option;
  s_time : int;
  s_tag : L.tag;
}

type step =
  | Introduced of source
  | Merged of { result : L.tag; a : L.tag; b : L.tag }
  | Declassified of { result : L.tag; from : L.tag }
  | Via of { tag : L.tag; channel : string }

type chain = { c_tag : L.tag; c_steps : step list; c_sources : source list }

module S = Iftgraph.Store

(* The first node of each [key], in node order. *)
let firsts key nodes =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      let k = key n in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    nodes

let chain store idx tag =
  (* A source's id is its rank among the run's distinct introductions. *)
  let ids = Hashtbl.create 16 in
  Array.iter
    (fun n ->
      let k = (n.S.n_origin, n.S.n_addr, n.S.n_tag) in
      if n.S.n_kind = S.Seed && not (Hashtbl.mem ids k) then
        Hashtbl.add ids k (Hashtbl.length ids))
    store.S.nodes;
  let source n =
    {
      s_id = Hashtbl.find ids (n.S.n_origin, n.S.n_addr, n.S.n_tag);
      s_origin = n.S.n_origin;
      s_addr = (if n.S.n_addr < 0 then None else Some n.S.n_addr);
      s_time = n.S.n_time;
      s_tag = n.S.n_tag;
    }
  in
  let steps = ref [] and srcs = ref [] in
  let emit f l = List.iter (fun n -> steps := f n :: !steps) l in
  Iftgraph.Query.walk_back store idx [ tag ] (fun u ids ->
      let nodes = List.map (fun id -> store.S.nodes.(id)) ids in
      let of_kinds ks = List.filter (fun n -> List.mem n.S.n_kind ks) nodes in
      let seeds =
        List.map source
          (firsts (fun n -> (n.S.n_origin, n.S.n_addr)) (of_kinds [ S.Seed ]))
      in
      srcs := List.rev_append seeds !srcs;
      emit (fun s -> Introduced s) seeds;
      emit
        (fun n -> Via { tag = u; channel = n.S.n_origin })
        (firsts (fun n -> n.S.n_origin) (of_kinds [ S.Via ]));
      emit
        (fun n ->
          if n.S.n_kind = S.Merge then
            Merged { result = u; a = n.S.n_a; b = n.S.n_b }
          else Declassified { result = u; from = n.S.n_a })
        (firsts
           (fun n -> (n.S.n_kind, n.S.n_a, n.S.n_b))
           (of_kinds [ S.Merge; S.Declass ])));
  {
    c_tag = tag;
    c_steps = List.rev !steps;
    c_sources = List.sort (fun a b -> compare a.s_id b.s_id) !srcs;
  }

let pp_source lat ppf s =
  Format.fprintf ppf "#%d %s%s -> %s at t=%dps" s.s_id s.s_origin
    (match s.s_addr with
    | Some a -> Printf.sprintf " @0x%08x" a
    | None -> "")
    (L.name lat s.s_tag) s.s_time

let pp_step lat ppf = function
  | Introduced s -> Format.fprintf ppf "introduced: %a" (pp_source lat) s
  | Merged { result; a; b } ->
      Format.fprintf ppf "%s = lub(%s, %s)" (L.name lat result) (L.name lat a)
        (L.name lat b)
  | Declassified { result; from } ->
      Format.fprintf ppf "%s declassified-from %s" (L.name lat result)
        (L.name lat from)
  | Via { tag; channel } ->
      Format.fprintf ppf "%s carried via %s" (L.name lat tag) channel

let pp_chain lat ppf c =
  Format.fprintf ppf "@[<v>provenance of %s:" (L.name lat c.c_tag);
  if c.c_steps = [] then Format.fprintf ppf "@,  (no recorded introductions)"
  else
    List.iter (fun s -> Format.fprintf ppf "@,  %a" (pp_step lat) s) c.c_steps;
  (match c.c_sources with
  | [] -> ()
  | srcs ->
      Format.fprintf ppf "@,terminal sources:";
      List.iter (fun s -> Format.fprintf ppf "@,  %a" (pp_source lat) s) srcs);
  Format.fprintf ppf "@]"

module J = Jsonkit.Json

let source_to_json lat s =
  J.Obj
    ([ ("id", J.num_of_int s.s_id); ("origin", J.Str s.s_origin) ]
    @ (match s.s_addr with
      | Some a -> [ ("addr", J.num_of_int a) ]
      | None -> [])
    @ [
        ("time_ps", J.num_of_int s.s_time);
        ("tag", J.Str (L.name lat s.s_tag));
      ])

let step_to_json lat = function
  | Introduced s ->
      J.Obj [ ("kind", J.Str "introduced"); ("source", source_to_json lat s) ]
  | Merged { result; a; b } ->
      J.Obj
        [
          ("kind", J.Str "merge");
          ("result", J.Str (L.name lat result));
          ("a", J.Str (L.name lat a));
          ("b", J.Str (L.name lat b));
        ]
  | Declassified { result; from } ->
      J.Obj
        [
          ("kind", J.Str "declass");
          ("result", J.Str (L.name lat result));
          ("from", J.Str (L.name lat from));
        ]
  | Via { tag; channel } ->
      J.Obj
        [
          ("kind", J.Str "via");
          ("tag", J.Str (L.name lat tag));
          ("channel", J.Str channel);
        ]

let chain_to_json lat c =
  J.Obj
    [
      ("tag", J.Str (L.name lat c.c_tag));
      ("steps", J.List (List.map (step_to_json lat) c.c_steps));
      ("sources", J.List (List.map (source_to_json lat) c.c_sources));
    ]
