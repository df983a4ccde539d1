type event = {
  ev_name : string;
  ev_kernel : t;
  mutable waiters : (unit -> unit) list;  (* newest first *)
  (* At most one notification may be pending per event (IEEE-1666 override
     rule): either a delta notification or a live timed entry, never both. *)
  mutable pending_delta : bool;
  mutable pending_timed : timed_entry option;
  mutable pending_at : Time.t;  (* meaningful iff pending_timed <> None *)
}

(* Timed work is either a named event wakeup — serialisable, the override
   rule applies — or an anonymous thunk ([wait_for] continuations and
   {!schedule_timed} internals), which snapshots reject. A cancelled entry
   stays in the heap and is skipped when its instant is reached. *)
and timed_action = Wake of event | Thunk of (unit -> unit)
and timed_entry = { seq : int; action : timed_action; mutable cancelled : bool }

and t = {
  mutable now : Time.t;
  runnable : (unit -> unit) Queue.t;
  mutable delta_events : event list;  (* newest first *)
  timed : timed_entry Heap.t;
  events : (string, event) Hashtbl.t;  (* name -> latest event so named *)
  mutable next_seq : int;
  mutable deltas : int;
  mutable stop_requested : bool;
  mutable error : exn option;
}

type _ Effect.t +=
  | Wait_time : Time.t -> unit Effect.t
  | Wait_event : event -> unit Effect.t
  | Halt : unit Effect.t

let create () =
  {
    now = Time.zero;
    runnable = Queue.create ();
    delta_events = [];
    timed = Heap.create ();
    events = Hashtbl.create 16;
    next_seq = 0;
    deltas = 0;
    stop_requested = false;
    error = None;
  }

let now k = k.now
let delta_count k = k.deltas

let create_event k name =
  let e =
    {
      ev_name = name;
      ev_kernel = k;
      waiters = [];
      pending_delta = false;
      pending_timed = None;
      pending_at = Time.zero;
    }
  in
  Hashtbl.replace k.events name e;
  e

let push_entry k at entry = Heap.push k.timed ~key:at entry

let schedule_timed k at thunk =
  k.next_seq <- k.next_seq + 1;
  push_entry k at { seq = k.next_seq; action = Thunk thunk; cancelled = false }

(* Move an event's waiters (in FIFO order) onto the runnable queue. *)
let wake e =
  let ws = List.rev e.waiters in
  e.waiters <- [];
  List.iter (fun w -> Queue.push w e.ev_kernel.runnable) ws

let cancel_timed e =
  match e.pending_timed with
  | Some entry ->
      entry.cancelled <- true;
      e.pending_timed <- None
  | None -> ()

let cancel e =
  cancel_timed e;
  if e.pending_delta then begin
    e.pending_delta <- false;
    let k = e.ev_kernel in
    k.delta_events <- List.filter (fun e' -> e' != e) k.delta_events
  end

(* Immediate notification overrides (cancels) any pending notification. *)
let notify_immediate e =
  cancel e;
  wake e

let notify e =
  let k = e.ev_kernel in
  if not e.pending_delta then begin
    (* A delta notification is earlier than any timed one: it overrides. *)
    cancel_timed e;
    e.pending_delta <- true;
    k.delta_events <- e :: k.delta_events
  end

(* Timed notification at an absolute instant, applying the override rule:
   the notification is discarded if one is already pending at an earlier
   (or equal) instant, and replaces a pending later one. *)
let notify_at_abs e at =
  let k = e.ev_kernel in
  if e.pending_delta then ()
  else
    match e.pending_timed with
    | Some _ when e.pending_at <= at -> ()
    | existing ->
        (match existing with Some _ -> cancel_timed e | None -> ());
        k.next_seq <- k.next_seq + 1;
        let entry = { seq = k.next_seq; action = Wake e; cancelled = false } in
        e.pending_timed <- Some entry;
        e.pending_at <- at;
        push_entry k at entry

let notify_after e t = notify_at_abs e (Time.add e.ev_kernel.now t)

let wait_for t = Effect.perform (Wait_time t)
let wait_event e = Effect.perform (Wait_event e)

let halt () = Effect.perform Halt

let stop k = k.stop_requested <- true
let stopped k = k.stop_requested

(* --- Snapshot support ------------------------------------------------- *)

let pending_timed k =
  let live =
    List.filter (fun (_, e) -> not e.cancelled) (Heap.to_list k.timed)
  in
  let live =
    List.sort (fun (_, a) (_, b) -> Int.compare a.seq b.seq) live
  in
  List.map
    (fun (at, e) ->
      match e.action with
      | Wake ev -> (ev.ev_name, at)
      | Thunk _ ->
          invalid_arg
            "Kernel.pending_timed: anonymous timed work pending (wait_for / \
             schedule_timed); the kernel is not at a snapshottable instant")
    live

let quiescent k =
  Queue.is_empty k.runnable
  && k.delta_events = []
  && List.for_all
       (fun (_, e) ->
         e.cancelled || match e.action with Wake _ -> true | Thunk _ -> false)
       (Heap.to_list k.timed)

let restore k ~now ~deltas ~notifications =
  (* Freshly-constructed modules arm their initial notifications at small
     absolute times (the kernel is still at t = 0 during reconstruction);
     under the override rule those earlier arms would beat the saved ones.
     The saved notification list is the complete pending set, so drop
     everything armed so far and rebuild from it alone. *)
  Hashtbl.iter (fun _ e -> cancel e) k.events;
  Heap.clear k.timed;
  k.delta_events <- [];
  k.now <- now;
  k.deltas <- deltas;
  List.iter
    (fun (name, at) ->
      match Hashtbl.find_opt k.events name with
      | Some e -> notify_at_abs e at
      | None ->
          invalid_arg
            (Printf.sprintf "Kernel.restore: no event named %S" name))
    notifications

(* --- Processes and the scheduler -------------------------------------- *)

let spawn k ~name fn =
  let open Effect.Deep in
  let record_error e =
    if k.error = None then begin
      k.error <- Some e;
      k.stop_requested <- true
    end;
    ignore name
  in
  let run_proc () =
    match_with fn ()
      {
        retc = Fun.id;
        exnc = record_error;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Wait_time t ->
                Some
                  (fun (cont : (a, unit) continuation) ->
                    (* Resumption goes through the runnable queue (not an
                       inline call) so that same-instant wakeups — timed
                       thunks and event waiters alike — run in one
                       deterministic seq-ordered evaluation phase. *)
                    schedule_timed k (Time.add k.now t) (fun () ->
                        Queue.push (fun () -> continue cont ()) k.runnable))
            | Wait_event e ->
                Some
                  (fun (cont : (a, unit) continuation) ->
                    e.waiters <- (fun () -> continue cont ()) :: e.waiters)
            | Halt -> Some (fun (_ : (a, unit) continuation) -> ())
            | _ -> None);
      }
  in
  Queue.push run_proc k.runnable

let run ?until k =
  k.stop_requested <- false;
  let reraise_error () =
    match k.error with
    | Some e ->
        k.error <- None;
        raise e
    | None -> ()
  in
  let rec loop () =
    if k.stop_requested then ()
    else if not (Queue.is_empty k.runnable) then begin
      (* Evaluation phase. *)
      while (not (Queue.is_empty k.runnable)) && not k.stop_requested do
        (Queue.pop k.runnable) ()
      done;
      loop ()
    end
    else if k.delta_events <> [] then begin
      (* Delta-notification phase: start a new delta cycle. *)
      k.deltas <- k.deltas + 1;
      let evs = List.rev k.delta_events in
      k.delta_events <- [];
      List.iter
        (fun e ->
          e.pending_delta <- false;
          wake e)
        evs;
      loop ()
    end
    else begin
      (* Advance time to the next timed notification. Cancelled entries
         (superseded by the override rule) are dead weight: drop them here
         so they neither advance [now] nor count as pending work. *)
      let rec live_min_key () =
        match Heap.min k.timed with
        | Some (_, entry) when entry.cancelled ->
            ignore (Heap.pop k.timed);
            live_min_key ()
        | Some (t, _) -> Some t
        | None -> None
      in
      match live_min_key () with
      | None -> ()
      | Some t -> (
          match until with
          | Some u when t > u -> k.now <- u
          | _ ->
              k.now <- t;
              (* Pop everything scheduled for this instant and fire it in
                 insertion (seq) order; every wakeup lands on the runnable
                 queue, so the subsequent evaluation phase runs processes
                 in that same deterministic order. *)
              let batch = ref [] in
              let rec drain () =
                match Heap.min_key k.timed with
                | Some t' when t' = t -> (
                    match Heap.pop k.timed with
                    | Some (_, entry) ->
                        batch := entry :: !batch;
                        drain ()
                    | None -> ())
                | _ -> ()
              in
              drain ();
              let entries =
                List.sort (fun a b -> Int.compare a.seq b.seq) !batch
              in
              List.iter
                (fun e ->
                  if not e.cancelled then
                    match e.action with
                    | Wake ev ->
                        ev.pending_timed <- None;
                        wake ev
                    | Thunk f -> f ())
                entries;
              loop ())
    end
  in
  loop ();
  reraise_error ()
