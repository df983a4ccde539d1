(** Simulation time, in integer picoseconds (cf. [sc_time]).

    An OCaml [int] holds 2^62 ps (> 50 days of simulated time), ample for
    the VP workloads here. *)

type t = int
(** Picoseconds. Always non-negative in kernel use. *)

val zero : t
val ps : int -> t
val ns : int -> t
val us : int -> t
val ms : int -> t
val sec : int -> t

val add : t -> t -> t

val to_ns : t -> float

val pp : Format.formatter -> t -> unit
(** Prints with an auto-selected unit, e.g. ["25 ms"], ["1.5 us"]. *)
