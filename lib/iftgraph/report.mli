(** Rendering of analyzer results — jsonkit values for [--json] and
    aligned text for the terminal.

    Every JSON report is an object with ["schema"] (fixed to
    ["iftgraph-report-v1"]) and ["kind"] (["sources-of"] / ["reaches"] /
    ["summary"]) so consumers dispatch without guessing; {!validate}
    checks any of the three shapes. *)

val sources_json : Analyze.t -> Query.pred -> Jsonkit.Json.t
val sources_text : Analyze.t -> Query.pred -> string
val reaches_json : Analyze.t -> Query.pred -> Jsonkit.Json.t
val reaches_text : Analyze.t -> Query.pred -> string
val summary_json : ?top:int -> Analyze.t -> Jsonkit.Json.t
val summary_text : ?top:int -> Analyze.t -> string

val validate : Jsonkit.Json.t -> (unit, string) result
(** Schema check for any report this module emits (dispatches on
    ["kind"]). [Ok ()] iff every required field is present with the
    right type. *)
