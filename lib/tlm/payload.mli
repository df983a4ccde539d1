(** TLM-2.0-style generic payload carrying tainted data.

    As in the paper, the data array of a transaction is an array of tainted
    bytes: each data byte travels with its security-class tag, so
    information flow is tracked through the interconnect and into the
    peripherals. Values and tags are stored in two parallel byte buffers.

    This module owns the byte/tag encoding of a register access: the CPU's
    bus interface, the peripheral models and the tracer read and write
    register values through the codec below. Only byte-array windows (CAN
    mailboxes, AES key and data, the sensor frame) go byte by byte. *)

type command = Read | Write

type response =
  | Ok_resp
  | Address_error  (** No target claims the address. *)
  | Command_error  (** Target rejected the access (size, alignment, ...). *)

type t = {
  mutable cmd : command;
  mutable addr : int;
      (** Global address as issued; routers rewrite it to a target-local
          offset for the duration of the downstream call. *)
  data : Bytes.t;  (** Byte values. *)
  tags : Bytes.t;  (** One security tag per data byte. *)
  mutable resp : response;
}

val create : ?cmd:command -> ?addr:int -> len:int -> default_tag:Dift.Lattice.tag -> unit -> t
(** Fresh payload with [len] zero bytes, all tagged [default_tag]. *)

val length : t -> int

val get_byte : t -> int -> int
val set_byte : t -> int -> int -> unit
val get_tag : t -> int -> Dift.Lattice.tag
val set_tag : t -> int -> Dift.Lattice.tag -> unit

val set_all_tags : t -> Dift.Lattice.tag -> unit
(** Raises [Invalid_argument] for a tag that is not a byte (above 255 or
    negative), like {!set_tag}: a tag is never truncated. *)

(** {2 Register codec}

    A transaction of [length p] bytes carries one little-endian register
    value, the way a bus master reads or writes a memory-mapped register
    of that width. Lengths 1, 2 and 4 read or write their bytes and tags
    in one access each, and allocate nothing; other lengths go byte by
    byte. *)

val value : t -> int
(** Zero-extended value of all [length p] bytes. *)

val set_value : t -> int -> tag:Dift.Lattice.tag -> unit
(** Store the [length p] low bytes of a value; every byte gets [tag]. *)

val lub_tag : Dift.Lattice.t -> t -> Dift.Lattice.tag
(** LUB of all byte tags: the class of the value as a whole. *)

val rearm : t -> command -> int -> unit
(** [rearm p cmd addr] readies a reused payload for its next transaction:
    sets command and address and resets the response to [Ok_resp]. *)

val ok : t -> bool
