(** The on-disk IFT provenance-graph store ([DIFTVPGR]).

    One store persists the full commit/flow graph of one run: a {e node}
    per distinct tag commit — a peripheral seeding a class ({!Seed}), a
    genuine lattice join ({!Merge}), a {!Declass}, a named transfer hop
    ({!Via}) — plus {!Violation} sink observations, and an {e edge} per
    observed flow between commits. The store holds the {e whole} graph:
    repeats are coalesced into their node's [n_count], never dropped.

    The container reuses the [lib/snapshot] codec conventions: magic,
    format version, named sections, little-endian, varint-packed node and
    edge records, an interned string table. Encoding is canonical —
    [decode] then [encode] is byte-identical, and two runs of the same
    deterministic simulation write identical files. *)

type kind = Seed | Merge | Declass | Via | Violation

val kind_name : kind -> string

type node = {
  n_id : int;  (** Dense id; also the index into {!t.nodes}. *)
  n_kind : kind;
  n_tag : int;  (** The security class this commit produced / observed. *)
  n_time : int;  (** Simulation time, ps. *)
  n_pc : int;  (** Last retired pc when the commit happened; -1 unknown. *)
  n_a : int;  (** Merge input a / declass from-tag; -1 unused. *)
  n_b : int;  (** Merge input b; -1 unused. *)
  n_origin : string;  (** Seed origin / via channel / violation what. *)
  n_addr : int;  (** Seed bus address; -1 none. *)
  n_count : int;  (** Occurrences coalesced into this node (>= 1). *)
}

type edge = { e_from : int; e_to : int }
(** Directed flow: the commit at [e_from] fed the commit at [e_to].
    Always forward in id order ([e_from < e_to]). *)

type meta = {
  classes : string array;  (** Lattice class names; index = tag. *)
  context : string;  (** Free-form run description (policy, file, ...). *)
  dropped_edges : int;
      (** Edges a bounded provenance recorder discarded during the run.
          Always 0 in new stores, whose tracer drops nothing; the
          analyzer still reports a store with a nonzero count as a
          truncated run. *)
  dropped_sources : int;  (** Same, for source introductions. *)
}

type t = { meta : meta; nodes : node array; edges : edge array }

val magic : string
val version : int

(** {1 Derived indexes}

    Rebuilt from the arrays (never serialised — canonical encoding). *)

type index = {
  by_tag : int list array;  (** tag -> node ids, ascending. *)
  violations : int array;  (** Violation node ids, ascending. *)
  out_edges : int list array;  (** node id -> successor node ids. *)
  in_edges : int list array;  (** node id -> predecessor node ids. *)
}

val index : t -> index

(** {1 Serialisation} *)

val to_string : t -> string
val of_string : string -> t
(** Raises {!Snapshot.Codec.Corrupt} on malformed input. *)

val write_file : t -> string -> unit
val read_file : string -> t

(** {1 Convenience} *)

val tag_name : t -> int -> string

val stats : t -> int * int * int * int * int
(** [(seeds, merges, declasses, vias, violations)] node counts. *)
