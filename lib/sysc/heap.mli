(** A simple imperative binary min-heap, used for the kernel's timed event
    queue. Keys are integers (simulation times); ties pop in an unspecified
    but deterministic order (the kernel adds a sequence number for FIFO
    behaviour among equal times). *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> key:int -> 'a -> unit

val min_key : 'a t -> int option
(** Key of the minimum element without removing it. *)

val min : 'a t -> (int * 'a) option
(** The minimum element without removing it. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum-key element. *)

val to_list : 'a t -> (int * 'a) list
(** All (key, value) pairs in unspecified order, without disturbing the
    heap (snapshot support). *)

val clear : 'a t -> unit
