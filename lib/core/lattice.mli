(** Information Flow Policy (IFP) lattices.

    An IFP is a finite join-semilattice of security classes. Data tagged with
    class [x] may flow to a sink with clearance [y] iff [allowed_flow l x y].
    Combining two pieces of data yields the least upper bound ([lub]) of
    their classes, i.e. the least class at least as restrictive as both. *)

type tag = int
(** A security class, represented as a dense integer tag (cf. the paper's
    [typedef uint8_t Tag]). Tags index into the lattice tables. *)

type t
(** A validated IFP lattice with precomputed flow and LUB tables. *)

val make : classes:string list -> flows:(string * string) list -> (t, string) result
(** [make ~classes ~flows] builds a lattice from named security classes and
    directed allowed-flow edges [(src, dst)]. The reflexive-transitive
    closure is taken automatically. Returns [Error _] if the relation is not
    antisymmetric (a flow cycle between distinct classes), if an edge names
    an unknown class, if classes are duplicated, or if some pair of classes
    has no unique least upper bound. *)

val make_exn : classes:string list -> flows:(string * string) list -> t
(** Like {!make} but raises [Invalid_argument] on error. *)

val size : t -> int
(** Number of security classes. *)

val name : t -> tag -> string
(** Human-readable name of a class. Raises [Invalid_argument] on a tag out
    of range. *)

val tag_of_name : t -> string -> tag
(** Inverse of {!name}. Raises [Not_found] for unknown names. *)

val mem_name : t -> string -> bool

val allowed_flow : t -> tag -> tag -> bool
(** [allowed_flow l x y] is true iff information of class [x] may flow to a
    place with clearance [y] (the paper's [allowedFlow(X, Y)]). This is the
    lattice partial order [x <= y]. *)

val lub : t -> tag -> tag -> tag
(** Least upper bound of two classes (the paper's [LUB]). O(1): looked up
    in a table precomputed at lattice construction. *)

val lub_flat : t -> tag array
(** The LUB table behind {!lub}, flat: [lub l x y] is
    [(lub_flat l).((x * size l) + y)]. An engine caches it (and {!size})
    so that a join on its per-instruction path is one array read, not a
    call. Shared, not copied: callers must not write to it. *)

val flow_flat : t -> bool array
(** The flow relation behind {!allowed_flow}, flat like {!lub_flat}:
    [allowed_flow l x y] is [(flow_flat l).((x * size l) + y)]. Shared:
    callers must not write to it. *)

val lub_uncached : t -> tag -> tag -> tag
(** Same result as {!lub} but recomputed from the flow relation on every
    call; exists only to quantify what the precomputed table buys (the
    [ablate-lub] bench). *)

val lub_list : t -> tag list -> tag
(** LUB of a non-empty list. Raises [Invalid_argument] on the empty list. *)

val bottom : t -> tag option
(** The unique least class, if one exists. *)

val top : t -> tag option
(** The unique greatest class, if one exists. *)

val tags : t -> tag list
(** All tags, in increasing order. *)

val pp : Format.formatter -> t -> unit
(** Print the lattice as its Hasse-style flow relation. *)

val to_dot : t -> string
(** Graphviz rendering of the flow relation (transitive reduction), for
    regenerating Fig. 1-style diagrams. *)

(** {1 Standard IFPs from the paper (Fig. 1)} *)

val confidentiality : unit -> t
(** IFP-1: classes [LC] and [HC]; flow allowed from [LC] to [HC] only, so
    confidential data cannot reach low outputs. *)

val integrity : unit -> t
(** IFP-2: classes [HI] and [LI]; flow allowed from [HI] to [LI] only, so
    untrusted data cannot reach high-integrity sinks. *)

val product : ?sep:string -> t -> t -> t
(** [product l1 l2] combines two IFPs: classes are pairs (named
    ["A" ^ sep ^ "B"], default separator ","), and a flow is allowed iff both
    component flows are allowed. *)

val ifp3 : unit -> t
(** IFP-3: [product (confidentiality ()) (integrity ())] — four classes
    [LC,LI], [LC,HI], [HC,LI], [HC,HI]. *)

val per_byte_key : n:int -> t
(** The refined immobilizer lattice of Section VI-A: IFP-3 with the (HC,HI)
    key class split into [n] pairwise-incomparable classes [KEY0..KEY(n-1)],
    each sitting between [LC,HI] and [HC,LI]. Writing byte [i] of the key
    over byte [j] (i <> j) then violates the store clearance, defeating the
    entropy-reduction attack. *)
