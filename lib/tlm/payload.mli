(** TLM-2.0-style generic payload carrying tainted data.

    As in the paper, the data array of a transaction is an array of tainted
    bytes: each data byte travels with its security-class tag, so
    information flow is tracked through the interconnect and into the
    peripherals. Values and tags are stored in two parallel byte buffers. *)

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

val get_word : t -> int32
(** Little-endian 32-bit value of bytes 0..3. Requires [length >= 4]. *)

val set_word : t -> int32 -> unit

val word_tag : Dift.Lattice.t -> t -> Dift.Lattice.tag
(** LUB of the tags of bytes 0..3. *)

val is_read : t -> bool
val ok : t -> bool

val pp : Format.formatter -> t -> unit
