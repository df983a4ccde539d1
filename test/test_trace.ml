(* Tier-1 tests for the tracing subsystem (lib/trace): ring-buffer
   mechanics, the provenance chain over the tracer's IFT graph, and the
   end-to-end acceptance
   paths — a tainted sensor word carried by DMA and encrypted by the AES
   engine traces back to the sensor, Wilander violations carry non-empty
   provenance, and an immobilizer forensic report's chain terminates at
   the PIN's classification region, which a graph sink attached after
   the image load still holds. *)

open Helpers
module A = Rv32_asm.Asm
module R = Rv32.Reg
module T = Trace

(* --- Ring buffer ----------------------------------------------------- *)

let test_ring () =
  let r = T.Ring.create 4 in
  check_int "capacity" 4 (T.Ring.capacity r);
  check_int "empty length" 0 (T.Ring.length r);
  for i = 1 to 6 do
    let e = T.Ring.emit r in
    e.T.Event.time <- i;
    e.T.Event.kind <- T.Event.Note;
    e.T.Event.text <- string_of_int i
  done;
  check_int "total counts overwritten events" 6 (T.Ring.total r);
  check_int "length capped at capacity" 4 (T.Ring.length r);
  let times = ref [] in
  T.Ring.iter r (fun e -> times := e.T.Event.time :: !times);
  check_bool "iter oldest to newest" true (List.rev !times = [ 3; 4; 5; 6 ]);
  let last2 = T.Ring.last r 2 in
  check_bool "last n, oldest first" true
    (List.map (fun e -> e.T.Event.time) last2 = [ 5; 6 ]);
  (* [last] returns copies, not live slots. *)
  let e = T.Ring.emit r in
  e.T.Event.time <- 99;
  check_bool "copies survive slot recycling" true
    (List.map (fun e -> e.T.Event.time) last2 = [ 5; 6 ]);
  T.Ring.clear r;
  check_int "cleared" 0 (T.Ring.length r);
  check_bool "create rejects non-positive size" true
    (try
       ignore (T.Ring.create 0);
       false
     with Invalid_argument _ -> true)

(* --- Provenance graph ------------------------------------------------ *)

(* A diamond lattice so lub(a,b) is a genuine join (differs from both). *)
let diamond () =
  Dift.Lattice.make_exn
    ~classes:[ "BOT"; "A"; "B"; "TOP" ]
    ~flows:[ ("BOT", "A"); ("BOT", "B"); ("A", "TOP"); ("B", "TOP") ]

(* The forensic chain of [tag] over everything [tracer] recorded so far. *)
let chain_of tracer tag =
  let store = Iftgraph.Build.finish tracer.T.Tracer.graph in
  T.Provenance.chain store (Iftgraph.Store.index store) tag

let test_provenance () =
  let lat = diamond () in
  let t n = Dift.Lattice.tag_of_name lat n in
  let a = t "A" and b = t "B" and top = t "TOP" and bot = t "BOT" in
  let p = T.Tracer.create lat in
  T.Tracer.record_source p ~origin:"sensor" ~time:10 a;
  T.Tracer.record_source p ~origin:"sensor" ~time:999 a;
  T.Tracer.record_source p ~origin:"can" ~time:20 b;
  (match (chain_of p a).T.Provenance.c_sources with
  | [ s ] ->
      check_int "re-registering the same (origin, addr) dedupes" 10
        s.T.Provenance.s_time
  | srcs -> Alcotest.failf "sources of a: %d, expected 1" (List.length srcs));
  T.Tracer.record_merge p ~a ~b ~result:top;
  (* Trivial joins (result equals an input) are not edges. *)
  T.Tracer.record_merge p ~a ~b:bot ~result:a;
  T.Tracer.record_via p ~channel:"dma" a;
  T.Tracer.record_declass p ~time:30 ~from_tag:top ~to_tag:bot ~where:"test";
  let chain_top = chain_of p top in
  check_bool "chain(top) has the merge step" true
    (List.exists
       (function
         | T.Provenance.Merged m -> m.result = top && m.a = a && m.b = b
         | _ -> false)
       chain_top.T.Provenance.c_steps);
  let origins c =
    List.map (fun s -> s.T.Provenance.s_origin) c.T.Provenance.c_sources
  in
  check_bool "chain(top) reaches both introductions" true
    (List.mem "sensor" (origins chain_top) && List.mem "can" (origins chain_top));
  let chain_bot = chain_of p bot in
  check_bool "chain(bot) walks through the declassification" true
    (List.exists
       (function
         | T.Provenance.Declassified d -> d.result = bot && d.from = top
         | _ -> false)
       chain_bot.T.Provenance.c_steps);
  check_bool "chain(bot) still reaches the sensor" true
    (List.mem "sensor" (origins chain_bot));
  check_bool "chain(a) notes the dma hop" true
    (List.exists
       (function
         | T.Provenance.Via v -> v.channel = "dma" && v.tag = a
         | _ -> false)
       (chain_of p a).T.Provenance.c_steps)

(* --- Sensor -> DMA -> AES end to end --------------------------------- *)

(* Firmware: wait for a sensor frame, DMA its first word into RAM, load
   it, feed it to the AES engine, read the (declassified) ciphertext. *)
let sensor_dma_aes p =
  A.li p R.t0 Vp.Soc.sensor_base;
  A.label p "poll_sensor";
  A.lbu p R.t1 R.t0 0;
  A.beqz_l p R.t1 "poll_sensor";
  A.li p R.t2 Vp.Soc.dma_base;
  A.sw p R.t0 R.t2 0x0;
  A.la p R.t3 "buf";
  A.sw p R.t3 R.t2 0x4;
  A.li p R.t4 4;
  A.sw p R.t4 R.t2 0x8;
  A.li p R.t4 1;
  A.sw p R.t4 R.t2 0xc;
  A.label p "poll_dma";
  A.lw p R.t4 R.t2 0xc;
  A.bnez_l p R.t4 "poll_dma";
  A.la p R.t3 "buf";
  A.lw p R.s0 R.t3 0;
  A.li p R.t5 Vp.Soc.aes_base;
  A.sw p R.s0 R.t5 0x10;
  A.li p R.t4 1;
  A.sw p R.t4 R.t5 0x30;
  A.label p "poll_aes";
  A.lw p R.t4 R.t5 0x30;
  A.bnez_l p R.t4 "poll_aes";
  A.lw p R.s1 R.t5 0x20;
  A.li p R.a0 0;
  A.li p R.a7 93;
  A.ecall p;
  A.align p 4;
  A.label p "buf";
  A.word p 0

let test_sensor_dma_aes_provenance () =
  let lat = Dift.Lattice.confidentiality () in
  let lc = Dift.Lattice.tag_of_name lat "LC" in
  let hc = Dift.Lattice.tag_of_name lat "HC" in
  let policy = Dift.Policy.unrestricted lat ~default_tag:lc in
  let monitor = Dift.Monitor.create lat in
  let tracer = T.Tracer.create lat in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking:true
      ~sensor_period:(Sysc.Time.us 20) ~aes_out_tag:lc ~tracer ()
  in
  Vp.Sensor.set_data_tag soc.Vp.Soc.sensor hc;
  let p = A.create () in
  sensor_dma_aes p;
  Vp.Soc.load_image soc (A.assemble p);
  expect_exit (Vp.Soc.run_for_instructions soc 2_000_000) 0;
  check_bool "tracer attached" true (soc.Vp.Soc.env.Vp.Env.tracer <> None);
  check_bool "events recorded" true (T.Tracer.events_recorded tracer > 0);
  (* The routed DMA read shows up as a bus event on the sensor target. *)
  let saw_sensor_read = ref false in
  T.Ring.iter tracer.T.Tracer.ring (fun e ->
      if e.T.Event.kind = T.Event.Tlm_read && e.T.Event.text = "sensor" then
        saw_sensor_read := true);
  check_bool "sensor bus read traced" true !saw_sensor_read;
  (* The ciphertext's class walks back through the AES declassification
     to the sensor that introduced the plaintext's class. *)
  let chain = chain_of tracer lc in
  check_bool "ciphertext chain has the declassification" true
    (List.exists
       (function
         | T.Provenance.Declassified d -> d.result = lc && d.from = hc
         | _ -> false)
       chain.T.Provenance.c_steps);
  check_bool "chain terminates at the sensor" true
    (List.exists
       (fun s -> s.T.Provenance.s_origin = "sensor" && s.T.Provenance.s_tag = hc)
       chain.T.Provenance.c_sources);
  check_bool "the tainted word travelled via dma" true
    (List.exists
       (function
         | T.Provenance.Via v -> v.channel = "dma" && v.tag = hc
         | _ -> false)
       (chain_of tracer hc).T.Provenance.c_steps)

(* --- JSONL sink round-trip ------------------------------------------- *)

(* Every line the JSONL sink writes is a self-contained JSON object that
   re-parses through jsonkit and carries the documented keys for its kind
   (docs/tracing.md) — the contract scripts consuming --trace-out rely
   on. Reuses the sensor -> DMA -> AES run so instruction, bus and
   declassification events all appear in the window. *)
let test_jsonl_roundtrip () =
  let lat = Dift.Lattice.confidentiality () in
  let lc = Dift.Lattice.tag_of_name lat "LC" in
  let hc = Dift.Lattice.tag_of_name lat "HC" in
  let policy = Dift.Policy.unrestricted lat ~default_tag:lc in
  let monitor = Dift.Monitor.create lat in
  let tracer = T.Tracer.create lat in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking:true
      ~sensor_period:(Sysc.Time.us 20) ~aes_out_tag:lc ~tracer ()
  in
  Vp.Sensor.set_data_tag soc.Vp.Soc.sensor hc;
  let p = A.create () in
  sensor_dma_aes p;
  Vp.Soc.load_image soc (A.assemble p);
  expect_exit (Vp.Soc.run_for_instructions soc 2_000_000) 0;
  let file = Filename.temp_file "trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      T.Sink.write_file tracer ~format:`Jsonl file;
      let ic = open_in file in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let lines = List.rev !lines in
      check_int "one line per retained event"
        (T.Ring.length tracer.T.Tracer.ring)
        (List.length lines);
      let member = Jsonkit.Json.member in
      let kinds = Hashtbl.create 8 in
      List.iter
        (fun line ->
          match Jsonkit.Json.of_string line with
          | Error e -> Alcotest.failf "line %S does not parse: %s" line e
          | Ok j ->
              check_bool "time present and integral" true
                (member "t" j |> Option.map Jsonkit.Json.to_int |> Option.join
                <> None);
              let k =
                match
                  member "k" j |> Option.map Jsonkit.Json.to_str |> Option.join
                with
                | Some k -> k
                | None -> Alcotest.failf "line %S has no kind" line
              in
              Hashtbl.replace kinds k ();
              let require keys =
                List.iter
                  (fun key ->
                    check_bool (Printf.sprintf "%s event has %S" k key) true
                      (member key j <> None))
                  keys
              in
              (match k with
              | "insn" -> require [ "pc"; "word"; "asm"; "tag"; "tainted" ]
              | "rd" | "wr" -> require [ "addr"; "len"; "tag"; "target" ]
              | "trap" -> require [ "pc"; "code"; "what" ]
              | "violation" -> require [ "pc"; "tag"; "what" ]
              | "declass" -> require [ "from"; "to"; "where" ]
              | "note" -> require [ "text" ]
              | other -> Alcotest.failf "unknown event kind %S" other))
        lines;
      check_bool "instruction events in the window" true
        (Hashtbl.mem kinds "insn");
      check_bool "bus events in the window" true
        (Hashtbl.mem kinds "rd" || Hashtbl.mem kinds "wr"))

(* --- Explicit seeding and inertness ---------------------------------- *)

let test_seed_taint () =
  let lat = Dift.Lattice.confidentiality () in
  let hc = Dift.Lattice.tag_of_name lat "HC" in
  let policy =
    Dift.Policy.unrestricted lat
      ~default_tag:(Dift.Lattice.tag_of_name lat "LC")
  in
  let monitor = Dift.Monitor.create lat in
  let tracer = T.Tracer.create lat in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking:true ~tracer () in
  Vp.Soc.seed_taint soc ~origin:"manual" ~addr:Vp.Soc.ram_base ~len:4 hc;
  check_bool "seeded source registered" true
    (List.exists
       (fun s -> s.T.Provenance.s_origin = "manual")
       (chain_of tracer hc).T.Provenance.c_sources);
  check_bool "seeding outside RAM rejected" true
    (try
       Vp.Soc.seed_taint soc ~origin:"bad" ~addr:0x1000 ~len:4 hc;
       false
     with Invalid_argument _ -> true);
  (* Without a tracer the SoC carries no trace state at all. *)
  let monitor2 = Dift.Monitor.create lat in
  let plain = Vp.Soc.create ~policy ~monitor:monitor2 ~tracking:true () in
  check_bool "no tracer, no trace" true (plain.Vp.Soc.env.Vp.Env.tracer = None)

(* --- Wilander attacks carry provenance ------------------------------- *)

let test_wilander_provenance () =
  (* A structurally identical lattice to the attack policy's. *)
  let tracer = T.Tracer.create (Dift.Lattice.integrity ()) in
  (match Firmware.Wilander.run ~tracer 3 with
  | Firmware.Wilander.Detected -> ()
  | Firmware.Wilander.Missed c -> Alcotest.failf "attack 3 missed (exit %d)" c
  | Firmware.Wilander.Not_applicable -> Alcotest.fail "attack 3 marked N/A");
  let viol = ref None in
  T.Ring.iter tracer.T.Tracer.ring (fun e ->
      if e.T.Event.kind = T.Event.Violation then viol := Some (T.Event.copy e));
  match !viol with
  | None -> Alcotest.fail "no violation event in the ring"
  | Some e ->
      let chain = chain_of tracer e.T.Event.tag in
      check_bool "violating tag has non-empty provenance" true
        (chain.T.Provenance.c_sources <> []);
      check_bool "provenance names the attack input channel" true
        (List.exists
           (fun s -> s.T.Provenance.s_origin = "uart.rx")
           chain.T.Provenance.c_sources)

(* --- Immobilizer forensic report (the acceptance check) -------------- *)

let test_immobilizer_forensics () =
  let img =
    Firmware.Immo_fw.image
      ~variant:(Firmware.Immo_fw.Normal { fixed_dump = false })
      ()
  in
  let policy = Firmware.Immo_fw.base_policy img in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let aes_out_tag, aes_in_clearance = Firmware.Immo_fw.aes_args policy in
  let tracer = T.Tracer.create policy.Dift.Policy.lattice in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking:true ~aes_out_tag
      ~aes_in_clearance ~tracer ()
  in
  Vp.Soc.load_image soc img;
  (* A graph sink attached after the load still holds the load's seeds. *)
  let sink = T.Graph.attach ~context:"attached late" tracer in
  check_bool "late sink holds the PIN region's seed" true
    (Array.exists
       (fun n ->
         n.Iftgraph.Store.n_kind = Iftgraph.Store.Seed
         && n.Iftgraph.Store.n_origin = "policy-region:pin")
       (T.Graph.finish sink).Iftgraph.Store.nodes);
  let _engine = Firmware.Immo_fw.Engine.attach soc ~challenge:"CHLLNG42" in
  Vp.Uart.push_rx soc.Vp.Soc.uart "D";
  (match Vp.Soc.run_for_instructions soc 2_000_000 with
  | exception Dift.Violation.Violation _ -> ()
  | _ -> Alcotest.fail "vulnerable dump did not raise a violation");
  let v =
    match Dift.Monitor.violations monitor with
    | v :: _ -> v
    | [] -> Alcotest.fail "monitor recorded no violation"
  in
  let r =
    T.Forensics.make ~violation:v ~context:"immobilizer acceptance" tracer ()
  in
  check_bool "window non-empty" true (r.T.Forensics.r_window <> []);
  (match r.T.Forensics.r_chain with
  | None -> Alcotest.fail "report has no provenance chain"
  | Some c ->
      check_bool "chain terminates at the PIN classification region" true
        (List.exists
           (fun s -> s.T.Provenance.s_origin = "policy-region:pin")
           c.T.Provenance.c_sources));
  let text = T.Forensics.to_string r in
  check_bool "text report renders" true
    (String.length text > 0
    && String.sub text 0 (min 3 (String.length text)) = "===");
  match Jsonkit.Json.of_string (Jsonkit.Json.to_string (T.Forensics.to_json r)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "forensic JSON does not re-parse: %s" e

(* --- Tracing is transparent ------------------------------------------ *)

(* A VP+ run with a tracer attached retires exactly the instructions of
   the same run without one, and both exit cleanly. *)
let test_tracer_transparent () =
  let img = Firmware.Qsort_fw.image ~n:1000 ~rounds:1 () in
  let policy = Benchkit.Defs.integrity_policy img in
  let run tracer =
    let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
    let soc = Vp.Soc.create ~policy ~monitor ~tracking:true ?tracer () in
    Vp.Soc.load_image soc img;
    Vp.Soc.start soc;
    Vp.Soc.run soc;
    check_bool "exits cleanly" true
      (Rv32.Core.exit_reason soc.Vp.Soc.core = Rv32.Core.Exited 0);
    Rv32.Core.instret soc.Vp.Soc.core
  in
  let tracer = T.Tracer.create policy.Dift.Policy.lattice in
  let untraced = run None in
  let traced = run (Some tracer) in
  check_int "same instret with a tracer attached" untraced traced;
  check_bool "the tracer saw every instruction" true
    (T.Ring.total tracer.T.Tracer.ring >= traced)

(* --- Caller hooks compose with the tracer ---------------------------- *)

(* A loop of ecalls into a handler that skips them and mrets. *)
let ecall_loop p =
  Firmware.Rt.entry p ();
  A.la p R.t6 "tvec";
  A.csrrw p R.zero Rv32.Csr.mtvec R.t6;
  A.li p R.s0 300;
  A.label p "loop";
  A.li p R.a7 0;
  A.ecall p;
  A.addi p R.s0 R.s0 (-1);
  A.bnez_l p R.s0 "loop";
  Firmware.Rt.exit_ p ~code:0 ();
  A.align p 4;
  A.label p "tvec";
  A.csrrs p R.t5 Rv32.Csr.mepc R.zero;
  A.addi p R.t5 R.t5 4;
  A.csrrw p R.zero Rv32.Csr.mepc R.t5;
  A.mret p

(* [Vp.Soc.set_trace] and [set_trap_hook] run the tracer's recorder
   first and the caller's hook second: the caller sees every retired
   instruction and trap, the tracer's stream is unchanged by it, and
   removing the caller's hook leaves the tracer recording. *)
let test_caller_hooks_compose () =
  let p = A.create () in
  ecall_loop p;
  let img = A.assemble p in
  let policy = Benchkit.Defs.integrity_policy img in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let tracer = T.Tracer.create policy.Dift.Policy.lattice in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking:true ~quantum:64 ~tracer ()
  in
  Vp.Soc.load_image soc img;
  let core = soc.Vp.Soc.core in
  let recorded_insns = ref 0 and recorded_traps = ref [] in
  T.Tracer.set_on_record tracer
    (Some
       (fun ev ->
         match ev.T.Event.kind with
         | T.Event.Insn -> incr recorded_insns
         | T.Event.Trap ->
             recorded_traps :=
               (ev.T.Event.addr, ev.T.Event.data) :: !recorded_traps
         | _ -> ()));
  let hook_calls = ref 0 and hook_traps = ref [] in
  Vp.Soc.set_trace soc (Some (fun _ _ -> incr hook_calls));
  Vp.Soc.set_trap_hook soc
    (Some
       (fun ev ->
         hook_traps :=
           (match ev with
           | Rv32.Core.Trap_enter { cause; epc; _ } -> (epc, cause)
           | Rv32.Core.Trap_return { target; to_priv } -> (target, to_priv))
           :: !hook_traps));
  Vp.Soc.pause_at soc 1000;
  Vp.Soc.start soc;
  Vp.Soc.run soc;
  check_bool "paused mid-run" true (Vp.Soc.paused soc);
  let instret = Rv32.Core.instret core in
  check_int "the caller's hook sees every instruction" instret !hook_calls;
  check_int "the tracer records one Insn event per instruction" instret
    !recorded_insns;
  Vp.Soc.set_trace soc None;
  Vp.Soc.resume soc;
  expect_exit (Rv32.Core.exit_reason core) 0;
  check_int "the removed hook sees nothing more" instret !hook_calls;
  check_int "the tracer keeps recording without it" (Rv32.Core.instret core)
    !recorded_insns;
  check_bool "traps taken" true (List.length !hook_traps >= 600);
  check_bool "the trap hook sees the traps the tracer records" true
    (!hook_traps = !recorded_traps)

(* --- Recorder parity across execution paths --------------------------- *)

(* A secret word is loaded in the middle of a block: on the compiled path
   the value-only chain hands over to the full chain there, and the
   tainted register then feeds joins with untainted ones. Clearing the
   registers at the end of each round makes the next round start on the
   value-only chain again. *)
let tainted_mid_block p =
  A.li p R.s1 4;
  A.la p R.t0 "secret";
  A.label p "loop";
  A.addi p R.s2 R.s2 1;
  A.lw p R.t1 R.t0 0;
  A.add p R.t2 R.t1 R.s2;
  A.add p R.t3 R.t2 R.t2;
  A.sw p R.t3 R.t0 4;
  A.li p R.t1 0;
  A.li p R.t2 0;
  A.li p R.t3 0;
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "loop";
  A.li p R.a0 0;
  A.li p R.a7 93;
  A.ecall p;
  A.align p 4;
  A.label p "secret";
  A.word p 0x1234;
  A.word p 0

let event_line e =
  Printf.sprintf "t=%d %s addr=0x%x data=0x%x tag=%d tainted=%b %S"
    e.T.Event.time (T.Event.kind_name e.T.Event.kind) e.T.Event.addr
    e.T.Event.data e.T.Event.tag e.T.Event.tainted e.T.Event.text

(* The complete recorded stream and the core after the run. *)
let record_stream ~block_cache build =
  let p = A.create () in
  build p;
  let img = A.assemble p in
  let lat = Dift.Lattice.confidentiality () in
  let classification =
    match Rv32_asm.Image.symbol_opt img "secret" with
    | Some lo ->
        [ Dift.Policy.region ~name:"secret" ~lo ~hi:(lo + 3)
            ~tag:(Dift.Lattice.tag_of_name lat "HC") ]
    | None -> []
  in
  let policy =
    Dift.Policy.make ~lattice:lat
      ~default_tag:(Dift.Lattice.tag_of_name lat "LC")
      ~classification ()
  in
  let monitor = Dift.Monitor.create lat in
  let tracer = T.Tracer.create lat in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking:true ~block_cache ~tracer ()
  in
  Vp.Soc.load_image soc img;
  let events = ref [] in
  T.Tracer.set_on_record tracer
    (Some (fun e -> events := T.Event.copy e :: !events));
  let reason = Vp.Soc.run_for_instructions soc 100_000 in
  (List.rev !events, soc.Vp.Soc.core, reason)

(* The compiled path's recorders are made once per compiled instruction,
   the single-step reference's per step: both must record the same
   stream, with one [Insn] event per retired instruction. The
   self-modifying program catches a recorder that keeps a stale word,
   the tainted load one whose operand tags miss the fast-to-full
   hand-over. *)
let test_recorder_parity () =
  List.iter
    (fun (name, build, code) ->
      let compiled, core, reason = record_stream ~block_cache:true build in
      expect_exit reason code;
      let reference, ref_core, ref_reason =
        record_stream ~block_cache:false build
      in
      expect_exit ref_reason code;
      let insns evs =
        List.length (List.filter (fun e -> e.T.Event.kind = T.Event.Insn) evs)
      in
      check_int (name ^ ": one Insn event per instruction (compiled)")
        (Rv32.Core.instret core) (insns compiled);
      check_int (name ^ ": one Insn event per instruction (reference)")
        (Rv32.Core.instret ref_core) (insns reference);
      check_bool (name ^ ": the compiled path ran value-only chains") true
        (Rv32.Core.fast_retired core > 0);
      Alcotest.(check (list string))
        (name ^ ": same stream on both paths")
        (List.map event_line reference)
        (List.map event_line compiled))
    [ ("smc cross-block", smc_cross_block, 201);
      ("tainted load mid-block", tainted_mid_block, 0) ];
  (* The streams above are worth comparing only if they hold what the
     programs are built to exercise. *)
  let words_at_site, _, _ = record_stream ~block_cache:true smc_cross_block in
  let site_words =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           if e.T.Event.kind = T.Event.Insn
              && Rv32.Decode.decode e.T.Event.data
                 = Rv32.Insn.ADDI (R.s1, R.s1, 100)
           then Some e.T.Event.addr
           else None)
         words_at_site)
  in
  check_int "the patched word is recorded at one site" 1
    (List.length site_words);
  let tainted, _, _ = record_stream ~block_cache:true tainted_mid_block in
  check_bool "tainted operands are recorded" true
    (List.exists (fun e -> e.T.Event.tainted) tainted)

let () =
  Alcotest.run "trace"
    [
      ("ring", [ Alcotest.test_case "wrap/last/total" `Quick test_ring ]);
      ( "provenance",
        [ Alcotest.test_case "sources/merge/declass/chain" `Quick test_provenance ]
      );
      ( "integration",
        [
          Alcotest.test_case "sensor -> dma -> aes chain" `Quick
            test_sensor_dma_aes_provenance;
          Alcotest.test_case "jsonl sink round-trip" `Quick
            test_jsonl_roundtrip;
          Alcotest.test_case "explicit seeding + inert without tracer" `Quick
            test_seed_taint;
          Alcotest.test_case "wilander violation provenance" `Quick
            test_wilander_provenance;
          Alcotest.test_case "immobilizer forensic report" `Quick
            test_immobilizer_forensics;
          Alcotest.test_case "tracer transparent on qsort" `Quick
            test_tracer_transparent;
          Alcotest.test_case "caller hooks compose with the tracer" `Quick
            test_caller_hooks_compose;
          Alcotest.test_case "recorder parity across execution paths" `Quick
            test_recorder_parity;
        ] );
    ]
