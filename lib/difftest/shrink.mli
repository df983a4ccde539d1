(** Delta-debugging shrinker: reduce a failing program to a minimal
    reproducer while a caller-supplied predicate keeps failing.

    Three passes run to a fixpoint: block-level chunk deletion (ddmin
    style, halving chunk sizes), structural simplification (a guard, loop
    or call collapses to its straight-line body), and per-instruction
    deletion inside block bodies. The result is 1-minimal at block and
    instruction granularity: removing any single remaining block or body
    instruction makes the failure disappear. *)

type stats = {
  evals : int;  (** Predicate evaluations spent. *)
  from_blocks : int;
  from_insns : int;
  to_blocks : int;
  to_insns : int;
}

val minimize : (Prog.t -> bool) -> Prog.t -> Prog.t * stats
(** [minimize pred prog] with [pred prog = true] ("still fails"). The
    predicate must be deterministic. At most 2000 evaluations bound the
    work; the best program found so far is returned when exhausted. *)
