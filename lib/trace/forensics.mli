(** Violation forensics: turn "a violation was raised" into an actionable
    report — what was violated, the last-N event window leading up to it
    (instructions and bus traffic interleaved), the provenance chain of
    the offending tag back to its introducing sources, and policy
    context. Renderable as text ({!pp}) and JSON ({!to_json}). *)

type report = {
  r_violation : Dift.Violation.t option;
      (** [None] when reporting on a run that ended without a violation
          (difftest divergences, e.g.) — the window is still useful. *)
  r_time : int;  (** Time of the newest retained event, ps. *)
  r_window : Event.t list;  (** Snapshot copies, oldest first. *)
  r_chain : Provenance.chain option;
      (** Chain of the violation's [data_tag], when there is one. *)
  r_context : string;  (** Free-form policy / scenario description. *)
  r_tracer : Tracer.t;  (** For lattice names and disassembly. *)
}

val make :
  ?violation:Dift.Violation.t ->
  ?context:string ->
  Tracer.t ->
  unit ->
  report
(** Snapshot a report from the tracer's current state, with its 32
    trailing events. *)

val pp : Format.formatter -> report -> unit
val to_string : report -> string
val to_json : report -> Jsonkit.Json.t
val violation_to_json : Dift.Lattice.t -> Dift.Violation.t -> Jsonkit.Json.t
