(** Incremental, deduplicating construction of a {!Store.t}.

    Every [Trace.Tracer.t] owns one builder, fed while the simulation
    runs: commits are appended in observation order, exact repeats (same
    kind, classes, origin, address {e and} pc) coalesce into the existing
    node's count, and flow edges are derived on append — a per-class
    chain edge from the previous commit of the same class plus input
    edges from the latest commit of each merge/declass input class.
    [finish] freezes everything into a store value. *)

type t

val create : ?context:string -> classes:string list -> unit -> t
(** [classes] are the lattice's class names, indexed by tag. *)

val set_context : t -> string -> unit

val set_pos : t -> time:int -> pc:int -> unit
(** Current simulation position; stamped onto subsequent merge, declass
    and via nodes, and its pc onto seeds ({!add_seed} takes its own time,
    {!add_violation} both). The tracer calls it just before it may add
    one of those, not per instruction, so the position only needs to be
    right when such a node is added. *)

val add_seed : t -> origin:string -> ?addr:int -> time:int -> tag:int -> unit -> unit
val add_merge : t -> a:int -> b:int -> result:int -> unit
val add_declass : t -> from:int -> result:int -> unit
val add_via : t -> channel:string -> tag:int -> unit
val add_violation : t -> what:string -> pc:int -> time:int -> tag:int -> unit

val node_count : t -> int
val edge_count : t -> int

val finish : t -> Store.t
(** The builder stays usable afterwards (the snapshot is a copy); calling
    [finish] again after more commits yields the longer graph. *)
