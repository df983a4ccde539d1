(** The sensor peripheral of Fig. 4: a memory-mapped 64-byte data frame of
    tainted bytes, periodically refilled with freshly classified data by a
    SystemC thread, plus a [data_tag] configuration register.

    Register map:
    - [0x00..0x3f]: the data frame (read/write);
    - [0x40] DATA_TAG: reading returns the configured security class (as a
      low-confidentiality value, mirroring Fig. 4 line 45); writing sets the
      class assigned to subsequently generated sensor data. A class at or
      above the lattice's size is refused with [Command_error], which the
      firmware sees as a store access fault, and the class is kept. *)

type t

val create : Env.t -> name:string -> ?period:Sysc.Time.t -> ?seed:int -> unit -> t
(** [period] defaults to 25 ms (40 Hz, as in the paper). Data is generated
    with a deterministic xorshift PRNG seeded by [seed] so simulations are
    reproducible. *)

val socket : t -> Tlm.Socket.target

val set_irq_callback : t -> (unit -> unit) -> unit
(** Invoked on every newly generated frame (edge-triggered interrupt,
    Fig. 4 line 24). *)

val set_data_tag : t -> Dift.Lattice.tag -> unit
(** Host-side configuration of the generated data's class. *)

val data_tag : t -> Dift.Lattice.tag

val start : t -> unit
(** Arm the first tick (one [period] from now) and spawn the generation
    thread. The tick is a named kernel event, so a pending tick is part of
    the serialisable kernel state. *)

val frames_generated : t -> int

val save : t -> Snapshot.Codec.writer -> unit

val load : t -> Snapshot.Codec.reader -> unit
(** Raises {!Snapshot.Codec.Corrupt} on a class or frame tag not below
    the lattice's size. *)
