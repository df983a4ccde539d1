(** Cross-run analysis over a directory of {!Store} files.

    Creating an analyzer only lists the files. The first query decodes
    every store, in file order, and pins them in memory; results are
    memoized, so a repeated query touches neither the files nor the
    graphs. [store_reads] and [memo_hits] expose that behaviour for the
    tier-1 near-O(answer) check. *)

type t

val store_ext : string
(** [".iftg"] — the suffix [load_dir] selects on. *)

val create : string list -> t
(** Analyzer over an explicit list of store files (sorted by basename). *)

val load_dir : string -> t
(** All [*.iftg] files directly inside the directory.
    @raise Invalid_argument if the path is not a directory. *)

val run_count : t -> int
val store_reads : t -> int
(** Store files read {e and} decoded so far. After any number of
    queries this equals [run_count] — each store is read once. *)

val memo_hits : t -> int
(** Queries answered from the memo table without touching the graphs. *)

val stores : t -> (string * Store.t * Store.index) list
(** Forces ingestion; stores in file-name order. *)

val sources_of : t -> Query.pred -> (string * Query.back) list
(** Backward query against every store, keyed by file name. Memoized. *)

val reaches : t -> Query.pred -> (string * Query.reach) list
(** Forward query against every store, keyed by file name. Memoized. *)

(** One store's headline numbers. *)
type run_row = {
  r_name : string;
  r_bytes : int;  (** On-disk store size. *)
  r_context : string;
  r_nodes : int;
  r_edges : int;
  r_seeds : int;
  r_merges : int;
  r_declasses : int;
  r_vias : int;
  r_violations : int;
  r_dropped_edges : int;
  r_dropped_sources : int;
}

(** Per-peripheral reach histogram entry. *)
type origin_row = {
  o_origin : string;
  o_runs : int;  (** Runs whose graph seeds from this origin. *)
  o_seeds : int;  (** Seed nodes across all runs. *)
  o_violations_reached : int;
      (** Violations (across runs) whose backward source set includes
          this origin. *)
}

(** An origin -> violation flow path counted across runs. *)
type path_row = {
  p_origin : string;
  p_what : string;  (** Violation description. *)
  p_runs : int;
  p_flows : int;
}

type summary = {
  sm_runs : run_row list;  (** File-name order. *)
  sm_origins : origin_row list;  (** Sorted by origin name. *)
  sm_top_paths : path_row list;  (** Descending flow count. *)
  sm_total_nodes : int;
  sm_total_edges : int;
  sm_total_violations : int;
  sm_truncated_runs : int;  (** Runs with nonzero dropped counters. *)
}

val summary : ?top:int -> t -> summary
(** Aggregate report; [top] caps [sm_top_paths] (default 10). *)
