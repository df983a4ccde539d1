type tag = int

(* Both relations are flat [n * n] arrays indexed [x * n + y], so an
   engine that caches them (see {!lub_flat}) reads an entry without a
   call. *)
type t = {
  names : string array;
  index : (string, tag) Hashtbl.t;
  n : int;
  flow : bool array;
  lub_table : tag array;
}

let size l = l.n

let name l x =
  if x < 0 || x >= size l then
    invalid_arg (Printf.sprintf "Lattice.name: tag %d out of range" x);
  l.names.(x)

let tag_of_name l s =
  match Hashtbl.find_opt l.index s with
  | Some x -> x
  | None -> raise Not_found

let mem_name l s = Hashtbl.mem l.index s

let lub_flat l = l.lub_table
let flow_flat l = l.flow

(* With [y] in range, the arrays' own bounds check refuses any [x] out
   of range. An out-of-range [y] would alias a neighbouring row, so it is
   refused here, as the nested tables refused it. *)
let flat_index l x y =
  if y < 0 || y >= l.n then invalid_arg "index out of bounds";
  (x * l.n) + y

let allowed_flow l x y = l.flow.(flat_index l x y)
let lub l x y = l.lub_table.(flat_index l x y)

(* Recompute the LUB by scanning the flow relation (the ablation
   baseline): find the least common upper bound. *)
let lub_uncached l a b =
  let n = size l and f = l.flow in
  let best = ref (-1) in
  for c = 0 to n - 1 do
    if f.((a * n) + c) && f.((b * n) + c)
       && (!best < 0 || f.((c * n) + !best)) then best := c
  done;
  !best

let lub_list l = function
  | [] -> invalid_arg "Lattice.lub_list: empty list"
  | x :: rest -> List.fold_left (lub l) x rest

let tags l = List.init (size l) (fun i -> i)

(* Reflexive-transitive closure via Floyd-Warshall over booleans. *)
let closure leq =
  let n = Array.length leq in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if leq.(i).(k) then
        for j = 0 to n - 1 do
          if leq.(k).(j) then leq.(i).(j) <- true
        done
    done
  done

let compute_lub names leq =
  let n = Array.length names in
  let table = Array.make (n * n) (-1) in
  let exception Bad of string in
  try
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        (* Common upper bounds of a and b. *)
        let ubs = ref [] in
        for c = 0 to n - 1 do
          if leq.(a).(c) && leq.(b).(c) then ubs := c :: !ubs
        done;
        (* The least among them: an upper bound below all other upper
           bounds. *)
        let least =
          List.filter (fun c -> List.for_all (fun d -> leq.(c).(d)) !ubs) !ubs
        in
        match least with
        | [ c ] -> table.((a * n) + b) <- c
        | [] ->
            raise
              (Bad
                 (Printf.sprintf "classes %s and %s have no least upper bound"
                    names.(a) names.(b)))
        | _ :: _ :: _ ->
            (* Impossible for a partial order: two distinct least elements
               would be mutually <= hence equal. Kept for safety. *)
            raise
              (Bad
                 (Printf.sprintf "classes %s and %s have ambiguous LUB"
                    names.(a) names.(b)))
      done
    done;
    Ok table
  with Bad msg -> Error msg

let make ~classes ~flows =
  let names = Array.of_list classes in
  let n = Array.length names in
  if n = 0 then Error "lattice must have at least one class"
  else begin
    let index = Hashtbl.create (2 * n) in
    let dup = ref None in
    Array.iteri
      (fun i s ->
        if Hashtbl.mem index s && !dup = None then dup := Some s;
        Hashtbl.replace index s i)
      names;
    match !dup with
    | Some s -> Error (Printf.sprintf "duplicate class %S" s)
    | None -> (
        let leq = Array.make_matrix n n false in
        for i = 0 to n - 1 do
          leq.(i).(i) <- true
        done;
        let bad_edge = ref None in
        List.iter
          (fun (a, b) ->
            match (Hashtbl.find_opt index a, Hashtbl.find_opt index b) with
            | Some i, Some j -> leq.(i).(j) <- true
            | None, _ -> if !bad_edge = None then bad_edge := Some a
            | _, None -> if !bad_edge = None then bad_edge := Some b)
          flows;
        match !bad_edge with
        | Some s -> Error (Printf.sprintf "flow mentions unknown class %S" s)
        | None -> (
            closure leq;
            (* Antisymmetry: no two distinct classes may be mutually
               reachable. *)
            let cycle = ref None in
            for i = 0 to n - 1 do
              for j = i + 1 to n - 1 do
                if leq.(i).(j) && leq.(j).(i) && !cycle = None then
                  cycle := Some (i, j)
              done
            done;
            match !cycle with
            | Some (i, j) ->
                Error
                  (Printf.sprintf "flow cycle between %s and %s" names.(i)
                     names.(j))
            | None -> (
                match compute_lub names leq with
                | Error e -> Error e
                | Ok lub_table ->
                    let flow = Array.concat (Array.to_list leq) in
                    Ok { names; index; n; flow; lub_table })))
  end

let make_exn ~classes ~flows =
  match make ~classes ~flows with
  | Ok l -> l
  | Error e -> invalid_arg ("Lattice.make_exn: " ^ e)

let extremum l ~dir =
  let n = size l in
  let is_ext c =
    let ok = ref true in
    for d = 0 to n - 1 do
      let rel = if dir then allowed_flow l c d else allowed_flow l d c in
      if not rel then ok := false
    done;
    !ok
  in
  let rec find c = if c >= n then None else if is_ext c then Some c else find (c + 1) in
  find 0

let bottom l = extremum l ~dir:true
let top l = extremum l ~dir:false

(* Transitive reduction edges (covers) for printing. *)
let covers l =
  let n = size l in
  let edges = ref [] in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b && allowed_flow l a b then begin
        let direct = ref true in
        for c = 0 to n - 1 do
          if c <> a && c <> b && allowed_flow l a c && allowed_flow l c b
          then
            direct := false
        done;
        if !direct then edges := (a, b) :: !edges
      end
    done
  done;
  List.rev !edges

let pp fmt l =
  Format.fprintf fmt "@[<v>lattice {%d classes}" (size l);
  List.iter
    (fun (a, b) -> Format.fprintf fmt "@,  %s -> %s" l.names.(a) l.names.(b))
    (covers l);
  Format.fprintf fmt "@]"

let to_dot l =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph ifp {\n  rankdir=BT;\n";
  Array.iter (fun s -> Buffer.add_string buf (Printf.sprintf "  %S;\n" s)) l.names;
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf
        (Printf.sprintf "  %S -> %S;\n" l.names.(a) l.names.(b)))
    (covers l);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let confidentiality () =
  make_exn ~classes:[ "LC"; "HC" ] ~flows:[ ("LC", "HC") ]

let integrity () = make_exn ~classes:[ "HI"; "LI" ] ~flows:[ ("HI", "LI") ]

let product ?(sep = ",") l1 l2 =
  let classes = ref [] in
  let flows = ref [] in
  let combined a b = l1.names.(a) ^ sep ^ l2.names.(b) in
  for a = size l1 - 1 downto 0 do
    for b = size l2 - 1 downto 0 do
      classes := combined a b :: !classes
    done
  done;
  for a = 0 to size l1 - 1 do
    for b = 0 to size l2 - 1 do
      for a' = 0 to size l1 - 1 do
        for b' = 0 to size l2 - 1 do
          if
            allowed_flow l1 a a' && allowed_flow l2 b b'
            && (a <> a' || b <> b')
          then
            flows := (combined a b, combined a' b') :: !flows
        done
      done
    done
  done;
  make_exn ~classes:!classes ~flows:!flows

let ifp3 () = product (confidentiality ()) (integrity ())

let per_byte_key ~n =
  if n < 1 then invalid_arg "Lattice.per_byte_key: n must be positive";
  let keys = List.init n (fun i -> Printf.sprintf "KEY%d" i) in
  let classes = [ "LC,HI"; "LC,LI"; "HC,LI" ] @ keys in
  let flows =
    [ ("LC,HI", "LC,LI"); ("LC,LI", "HC,LI"); ("LC,HI", "HC,LI") ]
    @ List.concat_map (fun k -> [ ("LC,HI", k); (k, "HC,LI") ]) keys
  in
  make_exn ~classes ~flows
