(** Single-store queries: backward source-finding and forward reach.

    Backward queries go through {!walk_back}, which is also the walk
    behind [Trace.Provenance.chain]: a violation's source set from a
    store and its live forensic chain are two views of one walk. Forward
    reach follows the explicit flow edges instead. *)

(** A start-set predicate, written [kind:value] on the CLI. *)
type pred =
  | P_violation of int  (** [violation:K] — k-th violation, 0-based. *)
  | P_pc of int  (** [pc:0xADDR] — nodes stamped with this pc. *)
  | P_tag of string  (** [tag:NAME] — commits to the named class. *)
  | P_origin of string  (** [origin:NAME] — seeds / via hops by name. *)
  | P_addr of int  (** [addr:0xADDR] — seeds covering this address. *)

val parse_pred : string -> (pred, string) result
val pred_to_string : pred -> string

type source = {
  src_origin : string;
  src_addr : int option;
  src_tag : int;
  src_time : int;  (** First observation, ps. *)
  src_node : int;
}

type back = {
  bk_pred : pred;
  bk_start : int list;
  bk_sources : source list;  (** Deduped, (origin, addr, tag)-sorted. *)
  bk_tags : int list;  (** Classes the walk visited, ascending. *)
  bk_nodes_visited : int;
}

val walk_back :
  Store.t -> Store.index -> int list -> (int -> int list -> unit) -> unit
(** [walk_back store idx tags visit] walks breadth-first over classes
    from [tags]: each class is visited once, as [visit tag ids] with every
    node committing to it (ascending ids), and the input classes of its
    merges and declassifications are enqueued after it. *)

val sources_of : Store.t -> Store.index -> pred -> back

type reach = {
  rc_pred : pred;
  rc_start : int list;
  rc_nodes_reached : int;
  rc_tags : int list;
  rc_violations : int list;
  rc_origins : string list;
}

val reaches : Store.t -> Store.index -> pred -> reach
