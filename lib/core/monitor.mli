(** Run-time monitor: collects DIFT events for reporting and statistics.

    The DIFT engine raises {!Violation.Violation} on a failed check; the
    monitor optionally intercepts events first so a simulation harness can
    log, count, or continue past violations (useful for test suites that
    expect many violations in one run). *)

type mode =
  | Halt  (** Re-raise violations, stopping the simulation (default). *)
  | Record  (** Record violations and let execution continue. *)

type event =
  | Violated of Violation.t
  | Declassified of { where : string; from_tag : Lattice.tag; to_tag : Lattice.tag }
  | Note of string

type t

val create : ?mode:mode -> Lattice.t -> t
val mode : t -> mode
val set_mode : t -> mode -> unit
val lattice : t -> Lattice.t

val report : t -> event -> unit
(** Record an event. If the event is a violation and the mode is [Halt],
    re-raises {!Violation.Violation} after recording. *)

val violation : t -> Violation.t -> unit
(** [violation m v] = [report m (Violated v)]. *)

val events : t -> event list
(** All events, oldest first. *)

val violations : t -> Violation.t list
val violation_count : t -> int
val declassification_count : t -> int
val clear : t -> unit

val check_count : t -> int
(** Total number of clearance checks performed (both passed and failed).
    The core counts its own checks in place, through the cell
    {!check_cell} hands it: the fetch, branch, address, store-region,
    trap-CSR and ecall-gate checks. Peripherals and other engines count
    theirs with {!count_check}. Every path reads and clears the same
    total. The core's untainted fast path only ever skips checks that
    are guaranteed to pass, so violations and taint state are unaffected,
    but the count then undercounts; a core created with
    [~block_cache:false] (the single-step reference) counts every check
    exactly. *)

val count_check : t -> unit
(** Count one check: [incr (check_cell t)]. *)

val check_cell : t -> int ref
(** The cell behind {!check_count}, the same one for the monitor's
    lifetime ({!clear} zeroes it in place), so an engine can cache it and
    count a check with one increment instead of a call. *)

val set_on_event : t -> (event -> unit) option -> unit
(** Install (or clear) an observer invoked synchronously from {!report}
    on every event, after it is recorded but before a [Halt]-mode
    violation re-raises — so a tracer sees the event in stream order.
    The observer must not call {!report} re-entrantly. *)

val pp_event : Lattice.t -> Format.formatter -> event -> unit
val pp_summary : Format.formatter -> t -> unit
