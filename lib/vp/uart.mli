(** UART peripheral with a host-visible transmit log and an injectable
    receive FIFO.

    Register map (byte offsets):
    - [0x00] TXDATA (write): transmit one byte — this is an {e output
      interface}: the byte's tag is checked against the policy clearance of
      the port name given at creation;
    - [0x04] RXDATA (read): pop one received byte (0 if the FIFO is empty);
    - [0x08] STATUS (read): bit0 = receive FIFO non-empty, bit1 = transmit
      ready (always set);
    - [0x0c] IRQ_EN (read/write): bit0 enables the receive interrupt. *)

type t

val create : Env.t -> name:string -> port:string -> t
(** [port] is the output-interface name looked up in the policy's
    clearance table. *)

val socket : t -> Tlm.Socket.target

val set_irq_callback : t -> (bool -> unit) -> unit
(** Called with [true] when the receive interrupt condition rises (wired to
    a PLIC source by the SoC). *)

(** {1 Host side} *)

val push_rx : t -> ?tag:Dift.Lattice.tag -> string -> unit
(** Inject bytes into the receive FIFO; each byte is classified with [tag]
    (default: the policy's default class — external, untrusted data). *)

val rx_pending : t -> int

val tx_string : t -> string
(** Everything transmitted so far, as characters. *)

val save : t -> Snapshot.Codec.writer -> unit
val load : t -> Snapshot.Codec.reader -> unit
