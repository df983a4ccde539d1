module Build = Iftgraph.Build

(* The last retired instruction's time and pc ([-1] before the first). *)
type pos = { mutable time : int; mutable pc : int }

type t = {
  ring : Ring.t;
  graph : Build.t;
  lat : Dift.Lattice.t;
  mutable disasm : int -> string;
  mutable on_record : (Event.t -> unit) option;
  pos : pos;
}

let default_disasm w = Printf.sprintf ".word 0x%08x" w

let create lat =
  {
    ring = Ring.create 4096;
    graph =
      Build.create
        ~classes:(List.init (Dift.Lattice.size lat) (Dift.Lattice.name lat))
        ();
    lat;
    disasm = default_disasm;
    on_record = None;
    pos = { time = 0; pc = -1 };
  }

let set_disasm t f = t.disasm <- f
let set_on_record t f = t.on_record <- f
let events_recorded t = Ring.total t.ring

(* The slot is recycled on the next record_*: observers must consume (or
   copy) the event before returning. *)
let observed t e = match t.on_record with None -> () | Some f -> f e

let record_insn t ~time ~pc ~word ~tag ~tainted =
  let e = Ring.emit t.ring in
  e.Event.time <- time;
  e.Event.kind <- Event.Insn;
  e.Event.addr <- pc;
  e.Event.data <- word;
  e.Event.tag <- tag;
  e.Event.tainted <- tainted;
  (* Most slots already hold "": skip the write barrier. *)
  if String.length e.Event.text <> 0 then e.Event.text <- "";
  observed t e;
  t.pos.time <- time;
  t.pos.pc <- pc

(* The graph stamps seed, merge, declass and via nodes with the last
   retired instruction's position; it is handed over only before one of
   those may be added, not per instruction. *)
let sync_pos t = Build.set_pos t.graph ~time:t.pos.time ~pc:t.pos.pc

let record_tlm t ~time ~write ~addr ~len ~tag ~target =
  let e = Ring.emit t.ring in
  e.Event.time <- time;
  e.Event.kind <- (if write then Event.Tlm_write else Event.Tlm_read);
  e.Event.addr <- addr;
  e.Event.data <- len;
  e.Event.tag <- tag;
  e.Event.tainted <- false;
  e.Event.text <- target;
  observed t e

let record_trap t ~time ~addr ~code ~text =
  let e = Ring.emit t.ring in
  e.Event.time <- time;
  e.Event.kind <- Event.Trap;
  e.Event.addr <- addr;
  e.Event.data <- code;
  e.Event.tag <- 0;
  e.Event.tainted <- false;
  e.Event.text <- text;
  observed t e

let record_violation t ~time ~pc ~tag ~what =
  let e = Ring.emit t.ring in
  e.Event.time <- time;
  e.Event.kind <- Event.Violation;
  e.Event.addr <- pc;
  e.Event.data <- 0;
  e.Event.tag <- tag;
  e.Event.tainted <- true;
  e.Event.text <- what;
  observed t e;
  Build.add_violation t.graph ~what ~pc ~time ~tag

let record_declass t ~time ~from_tag ~to_tag ~where =
  let e = Ring.emit t.ring in
  e.Event.time <- time;
  e.Event.kind <- Event.Declass;
  e.Event.addr <- 0;
  e.Event.data <- from_tag;
  e.Event.tag <- to_tag;
  e.Event.tainted <- false;
  e.Event.text <- where;
  observed t e;
  if from_tag <> to_tag then begin
    sync_pos t;
    Build.add_declass t.graph ~from:from_tag ~result:to_tag
  end

let record_note t ~time text =
  let e = Ring.emit t.ring in
  e.Event.time <- time;
  e.Event.kind <- Event.Note;
  e.Event.addr <- 0;
  e.Event.data <- 0;
  e.Event.tag <- 0;
  e.Event.tainted <- false;
  e.Event.text <- text;
  observed t e

let record_source t ~origin ?addr ~time tag =
  sync_pos t;
  Build.add_seed t.graph ~origin ?addr ~time ~tag ()

let record_via t ~channel tag =
  sync_pos t;
  Build.add_via t.graph ~channel ~tag

(* Only genuine joins matter: if the result equals an input, walking
   that input's provenance already covers it. This also keeps the hot
   all-bottom case (lub pub pub = pub) free of any bookkeeping. *)
let record_merge t ~a ~b ~result =
  if result <> a && result <> b then begin
    sync_pos t;
    Build.add_merge t.graph ~a ~b ~result
  end
