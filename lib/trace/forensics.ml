module J = Jsonkit.Json
module L = Dift.Lattice

type report = {
  r_violation : Dift.Violation.t option;
  r_time : int;
  r_window : Event.t list;
  r_chain : Provenance.chain option;
  r_context : string;
  r_tracer : Tracer.t;
}

let last_time tracer =
  let t = ref 0 in
  Ring.iter tracer.Tracer.ring (fun e -> t := e.Event.time);
  !t

(* Trailing events a report captures. *)
let window = 32

let make ?violation ?(context = "") tracer () =
  {
    r_violation = violation;
    r_time = last_time tracer;
    r_window = Ring.last tracer.Tracer.ring window;
    r_chain =
      Option.map
        (fun (v : Dift.Violation.t) ->
          let store = Iftgraph.Build.finish tracer.Tracer.graph in
          Provenance.chain store (Iftgraph.Store.index store)
            v.Dift.Violation.data_tag)
        violation;
    r_context = context;
    r_tracer = tracer;
  }

let pp_event tracer ppf (e : Event.t) =
  let tag_name tag =
    if tag >= 0 && tag < L.size tracer.Tracer.lat then L.name tracer.Tracer.lat tag
    else string_of_int tag
  in
  match e.Event.kind with
  | Event.Insn ->
      Format.fprintf ppf "[%10dps] %08x: %-28s%s" e.Event.time e.Event.addr
        (tracer.Tracer.disasm e.Event.data)
        (if e.Event.tainted then " ; tainted " ^ tag_name e.Event.tag else "")
  | Event.Tlm_read | Event.Tlm_write ->
      Format.fprintf ppf "[%10dps] bus %s %s addr=0x%08x len=%d tag=%s"
        e.Event.time
        (Event.kind_name e.Event.kind)
        e.Event.text e.Event.addr e.Event.data (tag_name e.Event.tag)
  | Event.Trap ->
      Format.fprintf ppf "[%10dps] trap %s (pc=0x%08x)" e.Event.time
        e.Event.text e.Event.addr
  | Event.Violation ->
      let pc =
        if e.Event.addr < 0 then "?"
        else Printf.sprintf "0x%08x" e.Event.addr
      in
      Format.fprintf ppf "[%10dps] !! VIOLATION %s (pc=%s tag=%s)" e.Event.time
        e.Event.text pc (tag_name e.Event.tag)
  | Event.Declass ->
      Format.fprintf ppf "[%10dps] declassify %s: %s -> %s" e.Event.time
        e.Event.text (tag_name e.Event.data) (tag_name e.Event.tag)
  | Event.Note -> Format.fprintf ppf "[%10dps] note: %s" e.Event.time e.Event.text

let pp ppf r =
  let lat = r.r_tracer.Tracer.lat in
  Format.fprintf ppf "@[<v>=== DIFT forensic report ===@,";
  (match r.r_violation with
  | Some v -> Format.fprintf ppf "violation: %a@," (Dift.Violation.pp lat) v
  | None -> Format.fprintf ppf "violation: (none recorded)@,");
  Format.fprintf ppf "sim time: %d ps@," r.r_time;
  if r.r_context <> "" then Format.fprintf ppf "context: %s@," r.r_context;
  Format.fprintf ppf "last %d events (of %d recorded):"
    (List.length r.r_window)
    (Tracer.events_recorded r.r_tracer);
  List.iter
    (fun e -> Format.fprintf ppf "@,  %a" (pp_event r.r_tracer) e)
    r.r_window;
  (match r.r_chain with
  | Some c -> Format.fprintf ppf "@,%a" (Provenance.pp_chain lat) c
  | None -> ());
  Format.fprintf ppf "@]"

let to_string r = Format.asprintf "%a" pp r

let violation_to_json lat (v : Dift.Violation.t) =
  J.Obj
    ([
       ("kind", J.Str (Dift.Violation.kind_name v.Dift.Violation.kind));
       ("data_tag", J.Str (L.name lat v.Dift.Violation.data_tag));
       ("required_tag", J.Str (L.name lat v.Dift.Violation.required_tag));
     ]
    @ (match v.Dift.Violation.pc with
      | Some pc -> [ ("pc", J.num_of_int pc) ]
      | None -> [])
    @
    match v.Dift.Violation.detail with
    | "" -> []
    | d -> [ ("detail", J.Str d) ])

let to_json r =
  let lat = r.r_tracer.Tracer.lat in
  J.Obj
    ((match r.r_violation with
     | Some v -> [ ("violation", violation_to_json lat v) ]
     | None -> [])
    @ [
        ("time_ps", J.num_of_int r.r_time);
        ( "window",
          J.List (List.map (Sink.event_json r.r_tracer) r.r_window) );
      ]
    @ (match r.r_chain with
      | Some c -> [ ("chain", Provenance.chain_to_json lat c) ]
      | None -> [])
    @
    match r.r_context with
    | "" -> []
    | ctx -> [ ("context", J.Str ctx) ])
