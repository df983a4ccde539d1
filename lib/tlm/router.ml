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

(* Index of the entry that claims [addr], or -1: the rightmost entry
   with [lo <= addr], then a single containment check. A loop over
   unboxed counters, so a lookup allocates nothing. *)
let find a addr =
  let lo = ref 0 and hi = ref (Array.length a - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    if (Array.unsafe_get a mid).lo <= addr then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !best >= 0 && addr <= (Array.unsafe_get a !best).hi then !best else -1

let route r payload delay =
  let a = r.sorted in
  let i = find a payload.Payload.addr in
  if i < 0 then begin
    payload.Payload.resp <- Payload.Address_error;
    delay
  end
  else begin
    let e = Array.unsafe_get a i in
    let global = payload.Payload.addr in
    payload.Payload.addr <- global - e.lo;
    let delay = Socket.call e.target payload delay in
    payload.Payload.addr <- global;
    (match r.observer with
    | Some f -> f payload (Socket.target_name e.target)
    | None -> ());
    delay
  end

let target_socket r = Socket.target ~name:r.name (route r)
