(** A small self-describing binary codec for VP snapshots.

    All integers are little-endian. The format is deliberately hand-rolled
    (no [Marshal]): snapshots must be stable across OCaml versions and
    byte-comparable — two snapshots of identical simulator state are
    identical strings, which is what the determinism tests and the CI
    determinism job diff. *)

exception Corrupt of string
(** Raised by any [get_*] on malformed or truncated input. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer
val contents : writer -> string

val put_u8 : writer -> int -> unit
val put_u32 : writer -> int -> unit
(** Low 32 bits of the argument. *)

val put_i64 : writer -> int -> unit
(** A full OCaml [int] (sign-extended to 64 bits). *)

val put_bool : writer -> bool -> unit

val put_varint : writer -> int -> unit
(** Unsigned LEB128: 7 value bits per byte, continuation in the high bit.
    The compact choice for the small ids, counts and deltas of the
    provenance-graph stores ([lib/iftgraph]); raises [Invalid_argument]
    on negative values. *)

val put_string : writer -> string -> unit
(** u32 length followed by the raw bytes. *)

val put_bytes_rle : writer -> Bytes.t -> unit
(** Run-length encoded: long runs of one byte (memory images are mostly
    zeros, tag arrays mostly bottom) collapse to a few bytes; incompressible
    stretches are stored as literals. *)

val put_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
(** u32 count followed by the elements in order. *)

(** {1 Reading} *)

type reader

val reader : string -> reader

val reader_version : reader -> int
(** Container format version the data was written under. Fresh readers
    assume the current version; {!set_reader_version} overrides (stamped by
    [Soc.restore] from the decoded container so per-section loaders can
    default fields that older snapshots predate). *)

val set_reader_version : reader -> int -> unit

val get_u8 : reader -> int
val get_u32 : reader -> int
val get_i64 : reader -> int
val get_bool : reader -> bool

val get_varint : reader -> int
(** Raises {!Corrupt} if the encoding overflows the OCaml [int] range. *)

val get_string : reader -> string

val get_bytes_rle_into : ?below:int -> reader -> Bytes.t -> unit
(** Decodes into [dst]; raises {!Corrupt} if the encoded length differs
    from [Bytes.length dst] (snapshots never resize live buffers), or if
    a decoded byte is not below [below] (default 256: any byte). The bound
    is checked once per run and once per literal byte, so a tag array of
    a few long runs costs a few checks. *)

val get_list : reader -> (reader -> 'a) -> 'a list

val expect_end : reader -> unit
(** Raises {!Corrupt} if input remains — catches section drift between the
    writer and reader of a peripheral. *)

(** {1 Containers} *)

(** A snapshot file: magic, format version, and named sections. Section
    order is fixed by the writer, so identical state yields identical
    files. *)
module Container : sig
  val magic : string

  val version : int
  (** Current (newest) format version, always used for writing. *)

  val min_version : int
  (** Oldest version {!decode} still accepts; loaders fill fields newer
      than the stored version with their reset defaults. *)

  val encode : (string * string) list -> string

  val encode_at : version:int -> (string * string) list -> string
  (** Encode under an older (still-supported) format version — the
      sections must already match that version's layout. Exists for
      migration tests and tooling; raises [Invalid_argument] outside
      [min_version..version]. *)

  val decode : string -> (string * string) list
  (** Raises {!Corrupt} on a bad magic or unsupported version. *)

  val decode_versioned : string -> int * (string * string) list
  (** Like {!decode}, also returning the stored format version. *)
end
