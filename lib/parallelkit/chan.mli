(** A minimal multi-producer / multi-consumer channel (mutex + condition
    queue) used to feed worker domains.

    Unbounded FIFO; [close] wakes every blocked receiver. Safe to use from
    any domain. *)

type 'a t

val create : unit -> 'a t

val send : 'a t -> 'a -> unit
(** Enqueue a value. Raises [Invalid_argument] on a closed channel. *)

val recv : 'a t -> 'a option
(** Take the oldest value, blocking while the channel is open and empty.
    [None] once the channel is closed {e and} drained — the
    worker-shutdown signal. *)

val close : 'a t -> unit
(** Idempotent. Values already enqueued are still delivered. *)
