(** Tainted values: a datum paired with its security-class tag.

    This is the OCaml analogue of the paper's [Taint<T>] C++ template
    (Fig. 3), kept as the executable statement of its semantics: only
    [test_taint] uses it. The VP itself stores values and tags in parallel
    byte buffers and arrays (RAM, TLM payloads, the ISS register file) for
    speed, and observes the same semantics. *)

type 'a t = private { v : 'a; tag : Lattice.tag }

val make : 'a -> Lattice.tag -> 'a t
(** [make v tag] pairs datum [v] with security class [tag]. *)

val value : 'a t -> 'a
val tag : 'a t -> Lattice.tag

val retag : 'a t -> Lattice.tag -> 'a t
(** Declassification / reclassification: replace the tag, keeping the value.
    Only trusted peripherals should do this (threat model, Section IV-B). *)

val map : Lattice.t -> ('a -> 'b) -> 'a t -> 'b t
(** Unary operation: the result keeps the operand's tag. *)

val map2 : Lattice.t -> ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
(** Binary operation: the result's tag is the LUB of the operands' tags,
    mirroring the paper's overloaded operators. *)

val check_clearance : Lattice.t -> 'a t -> required:Lattice.tag -> bool
(** [check_clearance l x ~required] is [allowed_flow l (tag x) required]:
    may [x] flow to a sink with clearance [required]? *)

(** {1 Byte conversion (paper's [to_bytes] / [from_bytes])} *)

val to_bytes : int32 t -> char t array
(** Split a 32-bit tainted word into four little-endian tainted bytes, each
    carrying the word's tag. *)

val from_bytes : Lattice.t -> char t array -> int32 t
(** Reassemble a 32-bit word from four little-endian tainted bytes; the
    word's tag is the LUB of all byte tags. Raises [Invalid_argument] if the
    array does not have exactly four elements. *)

val pp : (Format.formatter -> 'a -> unit) -> Lattice.t -> Format.formatter -> 'a t -> unit
