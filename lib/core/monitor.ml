type mode = Halt | Record

type event =
  | Violated of Violation.t
  | Declassified of { where : string; from_tag : Lattice.tag; to_tag : Lattice.tag }
  | Note of string

type t = {
  lat : Lattice.t;
  mutable m : mode;
  mutable evs : event list;  (* newest first *)
  mutable n_violations : int;
  mutable n_declass : int;
  (* One cell for the monitor's lifetime: the core caches it and counts
     its checks in place, so [clear] zeroes it rather than replacing it. *)
  n_checks : int ref;
  mutable on_event : (event -> unit) option;
}

let create ?(mode = Halt) lat =
  { lat; m = mode; evs = []; n_violations = 0; n_declass = 0; n_checks = ref 0;
    on_event = None }

let mode t = t.m
let set_mode t m = t.m <- m
let lattice t = t.lat

let set_on_event t f = t.on_event <- f

let report t ev =
  t.evs <- ev :: t.evs;
  (* The observer runs before any Halt-mode raise so a tracer sees the
     violation event in stream order, ahead of the unwinding. *)
  (match t.on_event with Some f -> f ev | None -> ());
  match ev with
  | Violated v ->
      t.n_violations <- t.n_violations + 1;
      if t.m = Halt then raise (Violation.Violation v)
  | Declassified _ -> t.n_declass <- t.n_declass + 1
  | Note _ -> ()

let violation t v = report t (Violated v)
let events t = List.rev t.evs

let violations t =
  List.filter_map (function Violated v -> Some v | _ -> None) (events t)

let violation_count t = t.n_violations
let declassification_count t = t.n_declass

let clear t =
  t.evs <- [];
  t.n_violations <- 0;
  t.n_declass <- 0;
  t.n_checks := 0

let check_cell t = t.n_checks
let check_count t = !(t.n_checks)
let count_check t = incr t.n_checks

let pp_event lat fmt = function
  | Violated v -> Violation.pp lat fmt v
  | Declassified { where; from_tag; to_tag } ->
      Format.fprintf fmt "declassified at %s: %s -> %s" where
        (Lattice.name lat from_tag) (Lattice.name lat to_tag)
  | Note s -> Format.fprintf fmt "note: %s" s

let pp_summary fmt t =
  Format.fprintf fmt "monitor: %d checks, %d violations, %d declassifications"
    !(t.n_checks) t.n_violations t.n_declass
