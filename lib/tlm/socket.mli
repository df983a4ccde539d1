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

val transport : initiator -> transport_fn
(** Forward a transaction through the binding. Raises {!Unbound} if the
    socket has no target. *)

val call : target -> Payload.t -> Sysc.Time.t -> Sysc.Time.t
(** Invoke a target's transport directly (used by routers). It takes
    both arguments in its definition: under the default dev profile
    every library module is compiled [-opaque], so a caller cannot see
    a function's arity, and an arity-1 [call] applied to two more
    arguments allocates a partial application on every call. *)
