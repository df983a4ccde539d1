(* vp_run: assemble a RISC-V assembly file and execute it on the virtual
   prototype, with or without the DIFT engine.

     dune exec bin/vp_run.exe -- prog.s --policy integrity --uart-input hi

   Exit status: 0 clean exit, 1 refused input (a source that does not
   assemble, a corrupt or truncated --resume checkpoint), 2 instruction
   limit / idle, 3 security violation (also when the firmware exited 0
   but violations were recorded), 4 fatal trap; a nonzero firmware exit
   code is passed through. *)

open Cmdliner
module J = Jsonkit.Json

(* Exception-safe file I/O: the read closes its descriptor even when a
   decode raises mid-stream, and state/checkpoint writes are published
   atomically (temp + rename) so a crash never leaves a truncated
   artifact under the final name. *)
let read_file = Snapshot.Io.read_file
let write_file = Snapshot.Io.write_file_atomic

type policy_kind = P_none | P_integrity | P_confidentiality

let build_policy kind img =
  match kind with
  | P_none ->
      let lat = Dift.Lattice.integrity () in
      Dift.Policy.unrestricted lat
        ~default_tag:(Dift.Lattice.tag_of_name lat "HI")
  | P_integrity ->
      (* Code-injection and trap-steering protection: program HI, fetch
         clearance HI, trap-vector writes (mtvec/mepc) require HI. *)
      let lat = Dift.Lattice.integrity () in
      let hi = Dift.Lattice.tag_of_name lat "HI" in
      let li = Dift.Lattice.tag_of_name lat "LI" in
      Dift.Policy.make ~lattice:lat ~default_tag:li
        ~classification:
          [ Dift.Policy.region ~name:"program" ~lo:img.Rv32_asm.Image.org
              ~hi:(Rv32_asm.Image.limit img - 1) ~tag:hi ]
        ~exec_fetch:hi ~trap_csr:hi ()
  | P_confidentiality ->
      (* Anything in a region labelled "secret" is HC; the UART and CAN
         are cleared for LC. *)
      let lat = Dift.Lattice.confidentiality () in
      let lc = Dift.Lattice.tag_of_name lat "LC" in
      let hc = Dift.Lattice.tag_of_name lat "HC" in
      let classification =
        match Rv32_asm.Image.symbol_opt img "secret" with
        | Some lo ->
            let hi_addr =
              match Rv32_asm.Image.symbol_opt img "secret_end" with
              | Some e -> e - 1
              | None -> lo + 15
            in
            [ Dift.Policy.region ~name:"secret" ~lo ~hi:hi_addr ~tag:hc ]
        | None -> []
      in
      Dift.Policy.make ~lattice:lat ~default_tag:lc ~classification
        ~output_clearance:[ ("uart", lc); ("can", lc) ]
        ~exec_branch:lc ~exec_mem_addr:lc ()

let policy_name = function
  | P_none -> "none"
  | P_integrity -> "integrity"
  | P_confidentiality -> "confidentiality"

let run file policy_kind tracking max_insns uart_input show_symbols quiet
    echo_insns taint_map report coverage trace_on trace_out trace_format
    forensics graph_out json checkpoint_every checkpoint_out checkpoint_stop
    resume state_out quantum =
  let src = read_file file in
  match Rv32_asm.Parser.parse_result src with
  | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      1
  | Ok img ->
      if show_symbols then
        print_string (Format.asprintf "%a" Rv32_asm.Image.pp_symbols img);
      let policy = build_policy policy_kind img in
      let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
      let want_trace =
        trace_on || trace_out <> None || forensics || graph_out <> None
      in
      let tracer =
        if want_trace then
          Some (Trace.Tracer.create policy.Dift.Policy.lattice)
        else None
      in
      let graph_sink =
        match (tracer, graph_out) with
        | Some tr, Some _ ->
            let context =
              Printf.sprintf "policy=%s tracking=%b file=%s"
                (policy_name policy_kind) tracking (Filename.basename file)
            in
            Some (Trace.Graph.attach ~context tr)
        | _ -> None
      in
      let soc =
        Vp.Soc.create ~policy ~monitor ~tracking ~quantum ?tracer ()
      in
      let core = soc.Vp.Soc.core in
      (* Under the confidentiality policy the sensor is a classified
         source: every frame byte it serves is HC. *)
      (match policy_kind with
      | P_confidentiality ->
          Vp.Sensor.set_data_tag soc.Vp.Soc.sensor
            (Dift.Lattice.tag_of_name policy.Dift.Policy.lattice "HC")
      | P_none | P_integrity -> ());
      Vp.Soc.load_image soc img;
      (match uart_input with
      | Some s -> Vp.Uart.push_rx soc.Vp.Soc.uart s
      | None -> ());
      (* One hook serves both flags: a second [Vp.Soc.set_trace] would
         replace the first. *)
      let covered = Hashtbl.create 1024 in
      let remaining = ref echo_insns in
      if coverage || echo_insns > 0 then
        Vp.Soc.set_trace soc
          (Some
             (fun pc insn ->
               if coverage then Hashtbl.replace covered pc ();
               if !remaining > 0 then begin
                 decr remaining;
                 Printf.eprintf "%08x:  %s\n" pc (Rv32.Disasm.insn insn)
               end));
      (* A JSONL --trace-out is streamed as events happen rather than
         dumped from the ring afterwards: the ring only retains a tail,
         and a checkpointed run's trace plus its resumed continuation's
         must concatenate to the uninterrupted run's. *)
      let stream_oc =
        match (tracer, trace_out, trace_format) with
        | Some tr, Some path, `Jsonl ->
            let oc = open_out path in
            Trace.Sink.stream_jsonl tr oc;
            Some oc
        | _ -> None
      in
      (match resume with
      | Some path -> (
          try Vp.Soc.restore soc (read_file path)
          with Snapshot.Codec.Corrupt msg ->
            Printf.eprintf "vp_run: corrupt checkpoint %s: %s\n" path msg;
            exit 1)
      | None -> ());
      let stopped_at_checkpoint = ref false in
      let execute () =
        Rv32.Core.set_max_instructions core max_insns;
        Vp.Soc.start soc;
        (* A restored snapshot starts out paused at its checkpoint. *)
        Rv32.Core.clear_paused core;
        match checkpoint_every with
        | None ->
            Vp.Soc.run soc;
            Rv32.Core.exit_reason core
        | Some every ->
            let k = ref 0 in
            let rec go () =
              Vp.Soc.pause_at soc (Rv32.Core.instret core + every);
              Vp.Soc.run soc;
              if Vp.Soc.paused soc then begin
                let path = Printf.sprintf "%s.%d" checkpoint_out !k in
                incr k;
                write_file path (Vp.Soc.save soc);
                if not quiet then
                  Printf.printf
                    "[vp] checkpoint (%d instructions) written to %s\n"
                    (Rv32.Core.instret core) path;
                if checkpoint_stop then begin
                  stopped_at_checkpoint := true;
                  Rv32.Core.exit_reason core
                end
                else begin
                  Rv32.Core.clear_paused core;
                  go ()
                end
              end
              else Rv32.Core.exit_reason core
            in
            go ()
      in
      let outcome =
        try Ok (execute ())
        with
        | Dift.Violation.Violation v -> Error (`Violation v)
        | Rv32.Core.Fatal_trap { cause; pc; _ } -> Error (`Trap (cause, pc))
      in
      if taint_map then begin
        let lat = policy.Dift.Policy.lattice in
        let baseline =
          match Dift.Lattice.bottom lat with
          | Some b -> b
          | None -> policy.Dift.Policy.default_tag
        in
        let regions = Vp.Memory.tainted_regions soc.Vp.Soc.memory ~baseline in
        Printf.printf "[vp] taint map (%d tainted region(s), baseline %s):\n"
          (List.length regions)
          (Dift.Lattice.name lat baseline);
        List.iter
          (fun (lo, hi, tag) ->
            Printf.printf "  0x%08x..0x%08x  %s\n" (Vp.Soc.ram_base + lo)
              (Vp.Soc.ram_base + hi) (Dift.Lattice.name lat tag))
          regions
      end;
      if report then begin
        let lat = policy.Dift.Policy.lattice in
        Printf.printf "[vp] %s\n"
          (Format.asprintf "%a" Dift.Monitor.pp_summary monitor);
        List.iter
          (fun ev ->
            Printf.printf "  %s\n"
              (Format.asprintf "%a" (Dift.Monitor.pp_event lat) ev))
          (Dift.Monitor.events monitor)
      end;
      if coverage then begin
        (* Count executable words up to the first data label heuristic:
           just report covered distinct pcs vs total instruction words. *)
        let total = img.Rv32_asm.Image.insn_count in
        Printf.printf "[vp] coverage: %d distinct pcs executed (%d opcodes assembled)\n"
          (Hashtbl.length covered) total;
        (* List never-executed instruction addresses in the image that
           decode to something legal, capped for readability. *)
        let shown = ref 0 in
        let code = img.Rv32_asm.Image.code in
        let org = img.Rv32_asm.Image.org in
        let i = ref 0 in
        while !i + 4 <= Bytes.length code && !shown < 16 do
          let pc = org + !i in
          let w = Int32.to_int (Bytes.get_int32_le code !i) land 0xffffffff in
          (match Rv32.Decode.decode w with
          | Rv32.Insn.ILLEGAL _ -> ()
          | insn ->
              if not (Hashtbl.mem covered pc) then begin
                incr shown;
                Printf.printf "  never executed: %08x  %s\n" pc
                  (Rv32.Disasm.insn insn)
              end);
          i := !i + 4
        done
      end;
      let uart_out = Vp.Uart.tx_string soc.Vp.Soc.uart in
      if uart_out <> "" && not quiet then (
        print_string uart_out;
        if uart_out.[String.length uart_out - 1] <> '\n' then print_newline ());
      let reason, code =
        match outcome with
        | Ok (Rv32.Core.Exited ecode) ->
            if not quiet then
              Printf.printf "[vp] exited with code %d after %d instructions\n"
                ecode (Rv32.Core.instret core);
            ("exited", if ecode = 0 then 0 else ecode land 0xff)
        | Ok Rv32.Core.Breakpoint ->
            Printf.printf "[vp] stopped at ebreak (pc=0x%08x)\n" (Rv32.Core.pc core);
            ("breakpoint", 0)
        | Ok Rv32.Core.Insn_limit ->
            Printf.printf "[vp] instruction limit (%d) reached\n" max_insns;
            ("insn-limit", 2)
        | Ok Rv32.Core.Running when !stopped_at_checkpoint ->
            if not quiet then
              Printf.printf "[vp] stopped at checkpoint after %d instructions\n"
                (Rv32.Core.instret core);
            ("checkpoint", 0)
        | Ok Rv32.Core.Running ->
            Printf.printf "[vp] simulation idle (deadlock?)\n";
            ("idle", 2)
        | Error (`Violation v) ->
            Printf.printf "[vp] SECURITY VIOLATION: %s\n"
              (Dift.Violation.to_string policy.Dift.Policy.lattice v);
            ("violation", 3)
        | Error (`Trap (cause, pc)) ->
            Printf.printf "[vp] fatal trap: cause %d at pc=0x%08x\n" cause pc;
            ("trap", 4)
      in
      (* A run that recorded violations never exits 0, even if the
         firmware reached a clean exit (Record-mode monitors, violations
         raised after the offending instruction retired, ...). *)
      let code =
        if code = 0 && Dift.Monitor.violation_count monitor > 0 then 3
        else code
      in
      let forensic_report =
        match tracer with
        | Some tr when forensics ->
            let violation =
              match outcome with
              | Error (`Violation v) -> Some v
              | _ -> (
                  match Dift.Monitor.violations monitor with
                  | v :: _ -> Some v
                  | [] -> None)
            in
            let context =
              Printf.sprintf "policy=%s tracking=%b file=%s"
                (policy_name policy_kind) tracking file
            in
            Some (Trace.Forensics.make ?violation ~context tr ())
        | _ -> None
      in
      (match forensic_report with
      | Some r -> Format.printf "%a@." Trace.Forensics.pp r
      | None -> ());
      (match (tracer, trace_out) with
      | Some tr, Some path ->
          (match stream_oc with
          | Some oc ->
              Trace.Sink.stop_stream tr;
              close_out oc
          | None -> Trace.Sink.write_file tr ~format:trace_format path);
          if not quiet then
            Printf.printf "[vp] trace (%d events recorded) written to %s\n"
              (Trace.Tracer.events_recorded tr)
              path
      | _ -> ());
      (match (graph_sink, graph_out) with
      | Some sink, Some path ->
          Trace.Graph.write_file sink path;
          if not quiet then
            Printf.printf
              "[vp] IFT graph store (%d nodes, %d edges) written to %s\n"
              (Iftgraph.Build.node_count (Trace.Graph.builder sink))
              (Iftgraph.Build.edge_count (Trace.Graph.builder sink))
              path
      | _ -> ());
      (match state_out with
      | None -> ()
      | Some path ->
          if Vp.Soc.paused soc || Rv32.Core.halted core then begin
            write_file path (Vp.Soc.save soc);
            if not quiet then
              Printf.printf "[vp] final state written to %s\n" path
          end
          else
            Printf.eprintf
              "[vp] --state-out: run ended neither paused nor halted; no \
               state written\n");
      if json then begin
        let lat = policy.Dift.Policy.lattice in
        let doc =
          J.Obj
            ([
               ("file", J.Str file);
               ("policy", J.Str (policy_name policy_kind));
               ("tracking", J.Bool tracking);
               ("exit_code", J.num_of_int code);
               ("reason", J.Str reason);
               ("instructions", J.num_of_int (Rv32.Core.instret core));
               ("blocks_built", J.num_of_int (Rv32.Core.blocks_built core));
               ( "superblocks_built",
                 J.num_of_int (Rv32.Core.superblocks_built core) );
               ("chain_hits", J.num_of_int (Rv32.Core.chain_hits core));
               ("ic_hits", J.num_of_int (Rv32.Core.ic_hits core));
               ("ic_misses", J.num_of_int (Rv32.Core.ic_misses core));
               ("fast_retired", J.num_of_int (Rv32.Core.fast_retired core));
               ("sim_time_ps", J.num_of_int (Sysc.Kernel.now soc.Vp.Soc.kernel));
               ("checks", J.num_of_int (Dift.Monitor.check_count monitor));
               ("violations", J.num_of_int (Dift.Monitor.violation_count monitor));
               ( "declassifications",
                 J.num_of_int (Dift.Monitor.declassification_count monitor) );
               ("uart_tx", J.Str uart_out);
             ]
            @ (match Dift.Monitor.violations monitor with
              | [] -> []
              | vs ->
                  [
                    ( "violation_events",
                      J.List
                        (List.map (Trace.Forensics.violation_to_json lat) vs)
                    );
                  ])
            @ (match tracer with
              | Some tr ->
                  [ ("trace_events", J.num_of_int (Trace.Tracer.events_recorded tr)) ]
              | None -> [])
            @
            match forensic_report with
            | Some r -> [ ("forensics", Trace.Forensics.to_json r) ]
            | None -> [])
        in
        print_endline (J.to_string doc)
      end;
      code

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s" ~doc:"Assembly source file.")

let policy_arg =
  let kinds =
    [ ("none", P_none); ("integrity", P_integrity);
      ("confidentiality", P_confidentiality) ]
  in
  Arg.(value & opt (enum kinds) P_none
       & info [ "policy" ] ~docv:"KIND"
           ~doc:"Security policy: $(b,none), $(b,integrity) (code-injection \
                 and trap-steering protection), or $(b,confidentiality) (a \
                 region labelled $(i,secret)..$(i,secret_end) and the sensor \
                 data stream are classified HC).")

let tracking_arg =
  Arg.(value & flag & info [ "no-tracking" ] ~doc:"Run the plain VP (no DIFT engine).")

let max_arg =
  Arg.(value & opt int 100_000_000 & info [ "max-insns" ] ~docv:"N" ~doc:"Instruction budget.")

let uart_arg =
  Arg.(value & opt (some string) None
       & info [ "uart-input" ] ~docv:"STR" ~doc:"Bytes queued on the UART receiver.")

let symbols_arg =
  Arg.(value & flag & info [ "symbols" ] ~doc:"Print the symbol table before running.")

let quiet_arg = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress UART echo.")

let taint_map_arg =
  Arg.(value & flag
       & info [ "taint-map" ] ~doc:"Print the RAM taint map after the run.")

let report_arg =
  Arg.(value & flag
       & info [ "report" ] ~doc:"Print the DIFT monitor's event log after the run.")

let coverage_arg =
  Arg.(value & flag
       & info [ "coverage" ] ~doc:"Report executed-instruction coverage after the run.")

let echo_insns_arg =
  Arg.(value & opt int 0
       & info [ "echo-insns" ] ~docv:"N"
           ~doc:"Print the first $(docv) executed instructions to stderr.")

let trace_flag_arg =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Enable the tracing subsystem (event ring + taint provenance).")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the recorded trace to $(docv) after the run (implies \
                 $(b,--trace)).")

let trace_format_arg =
  let fmts = [ ("jsonl", `Jsonl); ("chrome", `Chrome) ] in
  Arg.(value & opt (enum fmts) `Jsonl
       & info [ "trace-format" ] ~docv:"FMT"
           ~doc:"Trace file format: $(b,jsonl) (one event per line) or \
                 $(b,chrome) (Chrome trace_event, for about://tracing).")

let forensics_arg =
  Arg.(value & flag
       & info [ "forensics" ]
           ~doc:"Print a forensic report after the run: the violation, the \
                 trailing event window, and the provenance chain of the \
                 offending tag (implies $(b,--trace)).")

let graph_out_arg =
  Arg.(value & opt (some string) None
       & info [ "graph-out" ] ~docv:"FILE"
           ~doc:"Persist the run's full IFT provenance graph as a $(i,.iftg) \
                 store to $(docv) (implies $(b,--trace)). Query it later \
                 with $(b,vp_run analyze).")

let json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Print a machine-readable run summary (violations, check \
                 counts, sim time) as a single JSON object on stdout.")

let checkpoint_every_arg =
  Arg.(value & opt (some int) None
       & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Pause roughly every $(docv) instructions (rounded up to the \
                 next time-sync boundary) and write a full-platform snapshot.")

let checkpoint_out_arg =
  Arg.(value & opt string "vp.ckpt"
       & info [ "checkpoint-out" ] ~docv:"PATH"
           ~doc:"Snapshot file prefix: checkpoint $(i,k) is written to \
                 $(docv).$(i,k).")

let checkpoint_stop_arg =
  Arg.(value & flag
       & info [ "checkpoint-stop" ]
           ~doc:"Stop the run after writing the first checkpoint (exit \
                 status 0). Resume it later with $(b,--resume).")

let resume_arg =
  Arg.(value & opt (some file) None
       & info [ "resume" ] ~docv:"FILE"
           ~doc:"Restore the snapshot in $(docv) before running. The same \
                 source file, policy, and tracking flags as the run that \
                 wrote it must be given: a snapshot holds mutable state \
                 only, not configuration. Violations recorded before the \
                 checkpoint are not re-reported.")

let quantum_arg =
  Arg.(value & opt int 1000
       & info [ "quantum" ] ~docv:"CYCLES"
           ~doc:"Time-sync quantum: the CPU reconciles local time with the \
                 kernel every $(docv) cycles. Checkpoints land on these \
                 boundaries, so $(b,--checkpoint-every) is rounded up to \
                 the next one. A resumed run must use the same quantum as \
                 the run that wrote the snapshot.")

let state_out_arg =
  Arg.(value & opt (some string) None
       & info [ "state-out" ] ~docv:"FILE"
           ~doc:"After the run ends (halt or checkpoint stop), write the \
                 final platform state as a snapshot to $(docv). Two runs of \
                 the same program write bit-identical files, which makes \
                 this the canonical artifact for determinism checks.")

(* --- analyze: query .iftg graph stores -------------------------------- *)

let analyze store sources_of reaches summary top json =
  let pred_or_die what s =
    match Iftgraph.Query.parse_pred s with
    | Ok p -> p
    | Error msg ->
        Printf.eprintf "vp_run analyze: %s: %s\n" what msg;
        exit 1
  in
  let queries =
    List.concat
      [
        (match sources_of with
        | Some s -> [ `Sources (pred_or_die "--sources-of" s) ]
        | None -> []);
        (match reaches with
        | Some s -> [ `Reaches (pred_or_die "--reaches" s) ]
        | None -> []);
        (if summary then [ `Summary ] else []);
      ]
  in
  let queries = if queries = [] then [ `Summary ] else queries in
  match
    (try Ok (Iftgraph.Analyze.load_dir store)
     with Invalid_argument msg -> Error msg)
  with
  | Error msg ->
      Printf.eprintf "vp_run analyze: %s\n" msg;
      1
  | Ok an ->
      if Iftgraph.Analyze.run_count an = 0 then begin
        Printf.eprintf "vp_run analyze: no %s stores in %s\n"
          Iftgraph.Analyze.store_ext store;
        1
      end
      else begin
        (try
           List.iter
             (fun q ->
               if json then
                 let doc =
                   match q with
                   | `Sources p -> Iftgraph.Report.sources_json an p
                   | `Reaches p -> Iftgraph.Report.reaches_json an p
                   | `Summary -> Iftgraph.Report.summary_json ~top an
                 in
                 print_endline (J.to_string doc)
               else
                 let text =
                   match q with
                   | `Sources p -> Iftgraph.Report.sources_text an p
                   | `Reaches p -> Iftgraph.Report.reaches_text an p
                   | `Summary -> Iftgraph.Report.summary_text ~top an
                 in
                 print_string text)
             queries
         with Snapshot.Codec.Corrupt msg ->
           Printf.eprintf "vp_run analyze: corrupt store: %s\n" msg;
           exit 1);
        0
      end

let store_arg =
  Arg.(required & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Directory of $(i,.iftg) graph stores (from \
                 $(b,--graph-out), $(b,policy_fuzz --graph-out) or the \
                 difftest shrinker).")

let sources_of_arg =
  Arg.(value & opt (some string) None
       & info [ "sources-of" ] ~docv:"PRED"
           ~doc:"Backward query: walk from the nodes matching $(docv) \
                 ($(b,violation:)$(i,K), $(b,pc:)$(i,0xADDR), \
                 $(b,tag:)$(i,NAME), $(b,origin:)$(i,NAME) or \
                 $(b,addr:)$(i,0xADDR)) back to the peripheral sources that \
                 seeded them.")

let reaches_arg =
  Arg.(value & opt (some string) None
       & info [ "reaches" ] ~docv:"PRED"
           ~doc:"Forward query: everything the nodes matching $(docv) flow \
                 into, including any violations reached.")

let summary_arg =
  Arg.(value & flag
       & info [ "summary" ]
           ~doc:"Cross-run aggregate: per-store counts, the per-peripheral \
                 reach histogram and the top flow paths. The default when \
                 no query is given.")

let top_arg =
  Arg.(value & opt int 10
       & info [ "top" ] ~docv:"K" ~doc:"Flow paths shown in the summary.")

let analyze_cmd =
  let doc = "query persisted IFT provenance-graph stores" in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const analyze $ store_arg $ sources_of_arg $ reaches_arg $ summary_arg
      $ top_arg $ json_arg)

let run_term =
  Term.(
    const (fun f p nt m u s q echo tm rep cov tr trout trfmt forn gout js ck
              ckout ckstop res stout qn ->
        run f p (not nt) m u s q echo tm rep cov tr trout trfmt forn gout js
          ck ckout ckstop res stout qn)
    $ file_arg $ policy_arg $ tracking_arg $ max_arg $ uart_arg $ symbols_arg
    $ quiet_arg $ echo_insns_arg $ taint_map_arg $ report_arg $ coverage_arg
    $ trace_flag_arg $ trace_out_arg $ trace_format_arg $ forensics_arg
    $ graph_out_arg $ json_arg $ checkpoint_every_arg $ checkpoint_out_arg
    $ checkpoint_stop_arg $ resume_arg $ state_out_arg $ quantum_arg)

let run_exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on a clean exit (the firmware exited 0, or stopped at an \
                   $(b,ebreak) or a $(b,--checkpoint-stop) checkpoint).";
      info 1 ~doc:"when the input is refused before the simulation starts: \
                   the source does not assemble, or the $(b,--resume) \
                   checkpoint is corrupt or truncated.";
      info 2 ~doc:"when the instruction limit is reached or the simulation \
                   goes idle.";
      info 3 ~doc:"on a security violation, also when the firmware exited 0 \
                   but violations were recorded.";
      info 4 ~doc:"on a fatal trap.";
      info 1 ~max:255
        ~doc:"otherwise, the firmware's nonzero exit code (low 8 bits).";
    ]
  @ List.filter (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.ok) Cmd.Exit.defaults

let cmd =
  let doc = "execute a RISC-V binary on the DIFT-enabled virtual prototype" in
  Cmd.group ~default:run_term
    (Cmd.info "vp_run" ~doc ~exits:run_exits)
    [
      Cmd.v
        (Cmd.info "run" ~exits:run_exits
           ~doc:"assemble and execute a program (the default command)")
        run_term;
      analyze_cmd;
    ]

(* Every pre-subcommand invocation (`vp_run prog.s --policy ...`) must
   keep working, so unless the first argument names a subcommand (or
   asks for help), route the whole line to `run`. *)
let argv =
  let argv = Sys.argv in
  if Array.length argv <= 1 then argv
  else
    match argv.(1) with
    | "run" | "analyze" | "--help" | "-h" | "--version" -> argv
    | _ ->
        Array.append
          [| argv.(0); "run" |]
          (Array.sub argv 1 (Array.length argv - 1))

let () = exit (Cmd.eval' ~argv cmd)
