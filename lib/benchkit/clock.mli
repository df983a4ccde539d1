val now_s : unit -> float
(** Seconds from an arbitrary epoch on the monotonic clock (never goes
    backwards; use differences only). The epoch is captured at module
    init so the value stays small enough that float conversion keeps
    nanosecond resolution regardless of system uptime. *)
