(** General-purpose I/O: 32 pins, each direction-configurable.

    Output pins form an output interface (clearance-checked per write, like
    the UART); input pins are driven from the host side with an explicit
    security class — a cheap way to model classified discrete signals
    (door-lock state, tamper switches, ...).

    Register map:
    - [0x00] DIR (read/write): bit n = 1 makes pin n an output;
    - [0x04] OUT (read/write): output latch — writes are clearance-checked
      against the port named at creation; only bits configured as outputs
      take effect;
    - [0x08] IN (read): current input-pin levels, tagged per the last
      {!drive_input} call;
    - [0x0c] RISE (read): pins that rose since the last read (write-1 has
      no effect; reading clears). *)

type t

val create : Env.t -> name:string -> port:string -> t
val socket : t -> Tlm.Socket.target

val set_irq_callback : t -> (unit -> unit) -> unit
(** Fired on any input edge while at least one input pin is high. *)

(** {1 Host side} *)

val drive_input : t -> pin:int -> ?tag:Dift.Lattice.tag -> bool -> unit
(** Set the level of input pin [pin] (0..31). The pin's byte-wide tag
    defaults to the policy's default class. *)

val output_levels : t -> int
(** Current output latch (host-side observation of the pins). *)

val save : t -> Snapshot.Codec.writer -> unit
val load : t -> Snapshot.Codec.reader -> unit
