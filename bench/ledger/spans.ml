(* Spans recorded in memory around each call the ledger makes into a
   layer, written out once at the end as Chrome trace-event JSON. A
   disabled recorder still times the call (the end-to-end metrics need the
   duration) but records nothing. *)

type span = {
  id : int;
  name : string;
  run : int;  (** The pass (or setup sample) the span belongs to. *)
  parent : int;  (** [-1] for a root. *)
  start : float;  (** Seconds on the system's monotonic clock. *)
  stop : float;
}

type t = {
  enabled : bool;
  mutable run : int;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (** Newest first. *)
}

(* The clock is shared by every process on the host, so the spans of the
   processes of one run lie on one time line. *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
let create ~enabled = { enabled; run = 0; next = 0; stack = []; spans = [] }
let set_run t run = t.run <- run
let duration s = s.stop -. s.start

let span t name f =
  if not t.enabled then begin
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  end
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = now () in
    let close () =
      let stop = now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; run = t.run; parent; start; stop } :: t.spans;
      stop -. start
    in
    match f () with
    | v -> (v, close ())
    | exception e ->
        ignore (close ());
        raise e
  end

let spans t = List.sort (fun a b -> compare a.id b.id) t.spans

(* The spans of several recorders as one list: ids and runs of each later
   recorder are moved past those of the ones before it. *)
let concat recorded =
  let last f l = List.fold_left (fun m (s : span) -> max m (f s)) (-1) l in
  let _, _, rev =
    List.fold_left
      (fun (id0, run0, acc) l ->
        let shift s =
          {
            s with
            id = s.id + id0;
            run = s.run + run0;
            parent = (if s.parent < 0 then s.parent else s.parent + id0);
          }
        in
        (id0 + last (fun s -> s.id) l + 1, run0 + last (fun (s : span) -> s.run) l + 1,
         List.rev_append (List.map shift l) acc))
      (0, 0, []) recorded
  in
  List.rev rev

(* Self time: a span's duration minus the part its children cover. The
   children of one span run one after another, so their durations add. *)
let self_times spans =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)))
    spans

(* Every child lies inside its parent and in the same run, and no self time
   is negative (up to clock rounding). *)
let well_formed spans =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let bad =
    List.filter_map
      (fun (s, self) ->
        let inside =
          s.parent < 0
          ||
          match Hashtbl.find_opt by_id s.parent with
          | Some p -> p.run = s.run && p.start <= s.start && s.stop <= p.stop
          | None -> false
        in
        if inside && self >= -1e-9 && s.start <= s.stop then None
        else Some s.name)
      (self_times spans)
  in
  match bad with [] -> Ok () | n :: _ -> Error ("malformed span " ^ n)

module J = Jsonkit.Json

let to_chrome spans =
  let us x = J.Num (Float.round (x *. 1e9) /. 1e3) in
  let event (s, self) =
    J.Obj
      [
        ("name", J.Str s.name);
        ("cat", J.Str (List.hd (String.split_on_char '.' s.name)));
        ("ph", J.Str "X");
        ("ts", us s.start);
        ("dur", us (duration s));
        ("pid", J.num_of_int 1);
        ("tid", J.num_of_int 1);
        ( "args",
          J.Obj
            [
              ("id", J.num_of_int s.id);
              ("parent", J.num_of_int s.parent);
              ("run", J.num_of_int s.run);
              ("self_us", us self);
            ] );
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.map event (self_times spans)));
      ("displayTimeUnit", J.Str "ms");
    ]
