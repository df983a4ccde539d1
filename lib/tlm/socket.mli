(** Initiator / target sockets with blocking transport (cf. TLM-2.0
    [simple_initiator_socket] / [simple_target_socket]).

    The blocking-transport convention: the callee processes the payload,
    sets its response status, and returns the accumulated timing annotation
    (input delay plus the target's modelled latency). *)

exception Unbound of string
(** Transport through an unbound initiator socket. *)

type transport_fn = Payload.t -> Sysc.Time.t -> Sysc.Time.t

type target
type initiator

val target : name:string -> transport_fn -> target
val target_name : target -> string

val initiator : name:string -> initiator

val bind : initiator -> target -> unit
(** Rebinding replaces the previous binding. *)

val is_bound : initiator -> bool

val transport : initiator -> transport_fn
(** Forward a transaction through the binding. Raises {!Unbound} if the
    socket has no target. *)

val call : target -> transport_fn
(** Invoke a target's transport directly (used by routers). *)
