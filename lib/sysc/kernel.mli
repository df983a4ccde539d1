(** An event-driven simulation kernel with SystemC-like semantics.

    Processes are cooperative coroutines implemented with OCaml 5 effect
    handlers (the analogue of [SC_THREAD]). The scheduler follows the
    SystemC evaluate / delta-notification / timed-notification phase
    order (the VP has no primitive channels, so there is no update
    phase):

    - all runnable processes run to their next [wait] (evaluation phase);
    - delta notifications wake their waiting processes (a new delta cycle);
    - when nothing is runnable, time advances to the earliest timed
      notification.

    Notification override rule (IEEE-1666 5.10.8): an event carries at
    most one pending notification. A new timed notification is discarded
    if one is already pending at an earlier or equal instant, and replaces
    a pending later one; a delta notification overrides any timed one; an
    immediate notification fires at once and cancels whatever was pending.
    Same-instant wakeups — timed notifications and resumed [wait_for]s
    alike — fire in arming order (a global sequence number), and every
    wakeup goes through the runnable queue, so the evaluation phase runs
    processes in one deterministic order. Both properties are what make
    {!pending_timed}/{!restore} sufficient to checkpoint and resume a
    simulation without perturbing its schedule. *)

type t
(** A kernel instance. Kernels are independent; each VP builds its own. *)

type event
(** A notifiable event (cf. [sc_event]). *)

val create : unit -> t

val now : t -> Time.t
(** Current simulation time. *)

val delta_count : t -> int
(** Number of delta cycles executed so far (for tests/statistics). *)

val create_event : t -> string -> event
(** Events are registered by name for {!restore}; creating a second event
    with the same name shadows the first in the registry (all
    snapshot-relevant event names in this repository are unique). *)

(** {1 Processes} *)

val spawn : t -> name:string -> (unit -> unit) -> unit
(** Register a process; it becomes runnable at the start of simulation (or
    immediately, if spawned during simulation). A process runs until it
    performs one of the [wait_*] operations below, halts, or returns. An
    exception escaping a process aborts the simulation and is re-raised by
    {!run}. *)

(** The following may only be called from inside a process spawned on some
    kernel; calling them elsewhere raises [Effect.Unhandled]. *)

val wait_for : Time.t -> unit
(** Suspend the calling process for a simulated duration. *)

val wait_event : event -> unit
(** Suspend until the event is notified. *)

val halt : unit -> unit
(** Terminate the calling process. *)

(** {1 Notification} *)

val notify : event -> unit
(** Delta notification: waiters wake in the next delta cycle. *)

val notify_immediate : event -> unit
(** Immediate notification: waiters wake in the current evaluation phase,
    and any pending (delta or timed) notification of the event is
    cancelled. *)

val notify_after : event -> Time.t -> unit
(** Timed notification (relative delay), subject to the override rule:
    kept only if no earlier notification is pending on the event. *)

(** {1 Running} *)

val run : ?until:Time.t -> t -> unit
(** Run the simulation until no activity remains, [stop] is called, or
    simulated time would exceed [until]. May be called repeatedly to resume
    (e.g. with increasing [until]). *)

val stop : t -> unit
(** Request the simulation to stop; takes effect at the next scheduling
    point. Callable from inside a process. *)

val stopped : t -> bool

val release : t -> unit
(** Unwind every suspended process, so that its fiber stack is freed.
    OCaml 5 frees a fiber's stack only when its continuation is resumed
    or discontinued, never when the continuation is collected: a kernel
    dropped with parked processes keeps their stacks for the life of the
    program. Call it from outside {!run}, once the kernel's state has
    been read; the kernel cannot run again ({!run} raises
    [Invalid_argument]). *)

(** {1 Snapshot support}

    Process continuations cannot be serialised, so a kernel can only be
    checkpointed at a {e quiescent} instant: nothing runnable, no pending
    delta notifications, and every pending timed notification
    addressed to a {e named event} (no [wait_for] thunks in flight). The
    VP arranges this by restructuring every long-lived process to wait on
    events armed with {!notify_after} and pausing the CPU at a time-sync
    boundary; see [docs/snapshot.md]. *)

val quiescent : t -> bool
(** True when the kernel state is fully described by [(now, delta_count,
    pending_timed)] — the precondition of a checkpoint. *)

val pending_timed : t -> (string * Time.t) list
(** Live pending timed notifications as [(event name, absolute instant)],
    in arming (sequence) order. Raises [Invalid_argument] if an anonymous
    timed thunk is pending (the kernel is not quiescent). *)

val restore : t -> now:Time.t -> deltas:int -> notifications:(string * Time.t) list -> unit
(** Reset the clock and delta counter and re-arm pending notifications (in
    list order, preserving their relative firing order at equal instants).
    Any notifications armed before the call — e.g. initial arms made by
    freshly-constructed modules — are cancelled first: the saved list is
    the complete pending set. Must run on a freshly built kernel whose
    events have been created but whose processes have not yet run; raises
    [Invalid_argument] for an unknown event name. *)
