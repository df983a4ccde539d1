(** Trace output sinks. Both render the events currently retained in the
    tracer's ring, oldest first; rendering happens offline (after or
    outside the simulation), so allocation here is not a concern. *)

val event_json : Tracer.t -> Event.t -> Jsonkit.Json.t
(** One event as a JSON object ([t] = time in ps, [k] = kind, then
    kind-specific fields; see {!Event.kind}). *)

val stream_jsonl : Tracer.t -> out_channel -> unit
(** Install the tracer's {!Tracer.set_on_record} observer to append one
    JSONL line per event as it happens. Unlike {!write_file} this sees
    the complete stream, not just the ring's retained tail — it is what
    [vp_run --trace-out] and the CI determinism job rely on (trace files
    from a checkpointed run concatenate to the uninterrupted run's file).
    The caller owns the channel (flush/close it after the run). *)

val stop_stream : Tracer.t -> unit
(** Remove the observer installed by {!stream_jsonl}. *)

val write_file : Tracer.t -> format:[ `Jsonl | `Chrome ] -> string -> unit
(** The retained events as JSONL (one {!event_json} object per line) or
    as a Chrome [trace_event] document (load via [ui.perfetto.dev]). *)
