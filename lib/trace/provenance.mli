(** Taint provenance: where did this tag come from?

    Granularity is the security class (lattice tag), matching the DIFT
    engine itself. The record of a run's taint flow is the tracer's IFT
    graph ([Tracer.t.graph]): every taint {e introduction} (a peripheral
    seeding a tag into the system, or a policy region classifying memory)
    is a seed node, and observed propagation adds [result = lub(a, b)]
    merges, declassifications and "carried via DMA"-style transfer hops.
    {!chain} walks a tag seen at a sink back over that graph to the set
    of seeds that introduced it. *)

type source = {
  s_id : int;  (** Dense introduction id, in first-observation order. *)
  s_origin : string;  (** Peripheral / region name, e.g. ["sensor"]. *)
  s_addr : int option;  (** Bus address or region base, when meaningful. *)
  s_time : int;  (** Simulation time of first observation, ps. *)
  s_tag : Dift.Lattice.tag;  (** The class this source introduces. *)
}

type step =
  | Introduced of source
  | Merged of { result : Dift.Lattice.tag; a : Dift.Lattice.tag; b : Dift.Lattice.tag }
  | Declassified of { result : Dift.Lattice.tag; from : Dift.Lattice.tag }
  | Via of { tag : Dift.Lattice.tag; channel : string }

type chain = {
  c_tag : Dift.Lattice.tag;
  c_steps : step list;  (** Breadth-first from the queried tag. *)
  c_sources : source list;  (** Terminal introductions, by id. *)
}

val chain : Iftgraph.Store.t -> Iftgraph.Store.index -> Dift.Lattice.tag -> chain
(** The forensic view of {!Iftgraph.Query.walk_back} from [tag]: per
    visited class, its distinct seeds (on origin, address and class),
    then its distinct via channels, then its distinct merge/declass
    inputs, each in first-observation order. A source's [s_id] is its
    rank among the store's distinct introductions. *)

val pp_source : Dift.Lattice.t -> Format.formatter -> source -> unit
val pp_chain : Dift.Lattice.t -> Format.formatter -> chain -> unit
val source_to_json : Dift.Lattice.t -> source -> Jsonkit.Json.t
val chain_to_json : Dift.Lattice.t -> chain -> Jsonkit.Json.t
