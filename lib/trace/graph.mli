(** The graph-store view of a tracer: name the run, then freeze and
    persist the tracer's IFT graph ({!Tracer.t.graph}) as a store.

    The graph records from {!Tracer.create} on, so a sink attached late
    still holds the run's earlier seeds. {!finish} may be called more
    than once; each call freezes the graph as recorded so far. *)

type t

val attach : ?context:string -> Tracer.t -> t
(** Set the store's run description (default [""]). *)

val builder : t -> Iftgraph.Build.t

val finish : t -> Iftgraph.Store.t
(** Freeze the current graph ({!Iftgraph.Build.finish}). *)

val write_file : t -> string -> unit
(** [finish] and write the store to a file. *)

val detach : t -> unit
(** A no-op: the graph belongs to the tracer. *)
