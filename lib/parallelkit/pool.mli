(** A fixed-size [Domain]-based worker pool over one shared task counter.

    [map ~jobs f tasks] applies [f] to every element of [tasks] and
    returns the results {e in task order}, regardless of which worker ran
    which task — the building block of deterministic parallel campaigns.

    - [jobs <= 1] takes the exact sequential code path: a plain in-order
      map on the calling domain, no domains spawned, no channels, no
      synchronisation. A [--jobs 1] campaign is therefore bit-for-bit
      the sequential program.
    - [jobs > 1] spawns [min jobs (Array.length tasks)] worker domains.
      Each worker claims the next unclaimed task index from one shared
      atomic counter, so a worker that drew short tasks keeps claiming
      while another is stuck on a long one. Results land in a slot array
      keyed by index, so neither completion order nor which worker ran a
      task can reorder them: the merged output is byte-identical at any
      [jobs].

    Exception safety: a task that raises does not tear down the pool
    mid-flight. Every worker runs to completion, all domains are joined,
    and only then is the {e first} exception (in task order) re-raised on
    the caller — with its original backtrace. If the pool itself fails —
    [Domain.spawn] raising mid-spawn, or [on_done] raising on the caller
    — the already-spawned workers are stopped at their next task
    boundary and joined before the original exception propagates: no
    detached domains, no leaked channels, no hang. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default for [--jobs]
    flags. *)

val map : ?on_done:(int -> 'b -> unit) -> jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** See above. [jobs] values above the task count are clamped.

    [on_done i v] is invoked once per {e successful} task, on the
    calling domain, as completions arrive (so in nondeterministic order
    when [jobs > 1], ascending order when sequential). It may freely
    touch caller-side state — the campaign checkpoint writer hangs off
    this hook. A raise from [on_done] aborts the pool cleanly (workers
    stopped and joined) and propagates. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map] on lists (order preserved). *)
