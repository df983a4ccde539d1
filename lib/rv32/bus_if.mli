(** The CPU's memory interface: translates loads/stores/fetches into TLM
    transactions carrying tainted bytes (modification 3 of Section V-B1),
    with an optional direct-memory-interface (DMI) fast path into RAM.

    Hot-path convention: {!load} returns the value; the tag of the accessed
    data is left in {!last_tag} to avoid allocating result tuples in the
    execute loop, and timing annotations of TLM transactions accumulate
    until the core drains them with {!take_delay}. *)

exception Bus_error of { addr : int; write : bool }
(** Access to an unmapped address or a target error; the core converts this
    into a load/store access-fault trap. *)

type t

val create :
  lattice:Dift.Lattice.t ->
  default_tag:Dift.Lattice.tag ->
  tracking:bool ->
  name:string ->
  t
(** [tracking:false] (the plain-VP flavour) skips all tag bookkeeping on the
    DMI path; tags still travel in TLM payloads so peripherals are oblivious
    to the mode. *)

val tracking : t -> bool
(** The flavour given to [create]; a {!Core} built on this bus takes it. *)

val socket : t -> Tlm.Socket.initiator
(** Bind this to the SoC router. *)

val set_dmi : t -> base:int -> data:Bytes.t -> tags:Bytes.t -> unit
(** Register a DMI region: accesses to [base .. base + |data| - 1] touch the
    byte buffers directly, bypassing the router. *)

val clear_dmi : t -> unit

val dmi_range : t -> (int * int) option
(** [(base, limit)] of the registered DMI region, if any (the core sizes
    its pc-indexed decode cache from this). *)

val load : t -> width:int -> addr:int -> int
(** Zero-extended little-endian value of [width] (1, 2 or 4) bytes.
    Sets {!last_tag} (LUB of byte tags). *)

val store : t -> width:int -> addr:int -> value:int -> tag:Dift.Lattice.tag -> unit
(** Write [width] low bytes of [value]; every byte receives [tag]. *)

val last_tag : t -> Dift.Lattice.tag

val set_code_write_hook : t -> (int -> int -> unit) -> unit
(** Install a callback fired with [(addr, width)] after every store taken
    on the DMI path. The core uses this to invalidate decoded basic blocks
    on self-modifying code; stores routed over TLM are covered by the
    memory model's own write hook instead. *)

val set_merge_hook : t -> (int -> int -> int -> unit) option -> unit
(** Install (or clear) a tag-merge observer, called as [f a b r] for each
    LUB taken while folding byte tags of a multi-byte load (both the DMI
    and the MMIO path). Trivial joins ([r] equal to an input) are
    reported too; filter downstream. Used by the provenance tracker; the
    no-observer configuration keeps the original fold loop. *)

val take_delay : t -> Sysc.Time.t
(** Return and reset the accumulated TLM timing annotation. *)

val mem_tag : t -> addr:int -> Dift.Lattice.tag option
(** Tag of a byte via DMI, if the address is in the DMI region (test and
    diagnostic aid). *)
