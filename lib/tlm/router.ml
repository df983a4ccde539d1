type entry = { lo : int; hi : int; target : Socket.target }

type t = {
  name : string;
  mutable sorted : entry array; (* address order, rebuilt by [map] *)
  mutable observer : (Payload.t -> string -> unit) option;
}

let create ~name () =
  { name; sorted = [||]; observer = None }

let set_observer r f = r.observer <- f

let overlaps a b = a.lo <= b.hi && b.lo <= a.hi

let map r ~lo ~hi target =
  if hi < lo then invalid_arg "Router.map: empty range";
  let e = { lo; hi; target } in
  (match Array.find_opt (overlaps e) r.sorted with
  | Some clash ->
      invalid_arg
        (Printf.sprintf "Router.map: [0x%x..0x%x] overlaps %s [0x%x..0x%x]" lo
           hi
           (Socket.target_name clash.target)
           clash.lo clash.hi)
  | None -> ());
  (* Mapping is rare and construction-time; dispatch is per transaction.
     Pay for the sort here so [find] can binary-search. Ranges are
     disjoint (checked above), so ordering by [lo] orders by [hi] too. *)
  let a = Array.append r.sorted [| e |] in
  Array.sort (fun a b -> compare a.lo b.lo) a;
  r.sorted <- a

let find r addr =
  let a = r.sorted in
  (* Rightmost entry with [lo <= addr], then a single containment check. *)
  let rec go lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      if a.(mid).lo <= addr then go (mid + 1) hi (Some a.(mid))
      else go lo (mid - 1) best
  in
  match go 0 (Array.length a - 1) None with
  | Some e when addr <= e.hi -> Some e
  | _ -> None

let route r payload delay =
  match find r payload.Payload.addr with
  | None ->
      payload.Payload.resp <- Payload.Address_error;
      delay
  | Some e ->
      let global = payload.Payload.addr in
      payload.Payload.addr <- global - e.lo;
      let delay = Socket.call e.target payload delay in
      payload.Payload.addr <- global;
      (match r.observer with
      | Some f -> f payload (Socket.target_name e.target)
      | None -> ());
      delay

let target_socket r = Socket.target ~name:r.name (route r)
