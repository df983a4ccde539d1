(* policy_fuzz: coverage-guided differential testing of the DIFT engine.

   Random structured programs (branches, bounded loops, calls, M-extension
   edge operands) run on the golden-model interpreter, the plain VP and
   VP+ under random security policies; any invariant violation is shrunk
   to a minimal .s reproducer.

     dune exec bin/policy_fuzz.exe -- --programs 500 --seed 42
     dune exec bin/policy_fuzz.exe -- --inject mulhsu --shrink-dir /tmp *)

open Cmdliner

let run programs seed size no_shrink shrink_dir graph_dir props_every inject
    cache_diff snap_diff jobs shard_size checkpoint resume =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Parallelkit.Pool.default_jobs ()
  in
  let config =
    {
      Difftest.Harness.seed;
      programs;
      size;
      shrink = not no_shrink;
      shrink_dir;
      graph_dir;
      props_every;
      inject;
      cache_diff;
      snap_diff;
      jobs;
      shard_size = max 1 shard_size;
      checkpoint;
      resume;
    }
  in
  (* A bad checkpoint must fail cleanly before any campaign work: wrong
     campaign (fingerprint/shard-count mismatch), corrupt or truncated
     container, or an unreadable path. *)
  match Difftest.Harness.run ~config () with
  | exception Parallelkit.Checkpoint.Mismatch msg ->
      Printf.eprintf "policy_fuzz: cannot resume: %s\n" msg;
      2
  | exception Snapshot.Codec.Corrupt msg ->
      Printf.eprintf "policy_fuzz: corrupt checkpoint: %s\n" msg;
      2
  | exception Sys_error msg ->
      Printf.eprintf "policy_fuzz: %s\n" msg;
      2
  | report ->
      Format.printf "%a@." Difftest.Harness.pp_report report;
      let healthy = Difftest.Harness.healthy report in
      let clean = healthy && report.Difftest.Harness.injected_hits = 0 in
      if clean then Format.printf "all invariants hold.@."
      else if healthy then
        Format.printf
          "injected fault detected and shrunk (see reproducers above).@."
      else Format.printf "INVARIANT VIOLATIONS — see failures above.@.";
      if clean then 0 else 1

let programs_arg =
  Arg.(value & opt int 200 & info [ "programs"; "n" ] ~docv:"N" ~doc:"Programs to generate.")

let seed_arg =
  Arg.(value & opt int 0x5eed & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are reproducible).")

let size_arg =
  Arg.(value & opt int 30 & info [ "size" ] ~docv:"K" ~doc:"Blocks per program (roughly 3 instructions each).")

let no_shrink_arg =
  Arg.(value & flag & info [ "no-shrink" ] ~doc:"Do not minimise failing programs.")

let shrink_dir_arg =
  Arg.(value & opt (some dir) None & info [ "shrink-dir" ] ~docv:"DIR"
         ~doc:"Write shrunk reproducers as .s files into $(docv).")

let graph_dir_arg =
  Arg.(value & opt (some dir) None & info [ "graph-out" ] ~docv:"DIR"
         ~doc:"Write each reproducer's IFT provenance-graph store \
               (repro_*.iftg, from the tracked forensic replay) into \
               $(docv); query them with $(b,vp_run analyze --store) $(docv).")

let props_every_arg =
  Arg.(value & opt int 5 & info [ "props-every" ] ~docv:"N"
         ~doc:"Check taint-metamorphic properties every $(docv)th program (0 disables).")

(* Reject typos up front: an unknown opcode would never fire and the run
   would silently report success. *)
let opcode_conv =
  let parse s =
    if List.mem s Rv32.Insn.rv32im_opcodes then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf "unknown RV32IM opcode '%s' (try one of: %s)" s
              (String.concat " " Rv32.Insn.rv32im_opcodes)))
  in
  Arg.conv (parse, Format.pp_print_string)

let inject_arg =
  Arg.(value & opt (some opcode_conv) None & info [ "inject" ] ~docv:"OPCODE"
         ~doc:"Fault injection: flag any program executing $(docv) as failing, \
               then shrink it — validates the detect-shrink-report pipeline end to end.")

let cache_diff_arg =
  Arg.(value & flag & info [ "cache-diff" ]
         ~doc:"Also re-run every program on the single-step reference \
               (no block cache, no fast path) and require agreement with \
               the compiled runs, taint tags included (doubles oracle \
               cost).")

let snap_diff_arg =
  Arg.(value & flag & info [ "snap-diff" ]
         ~doc:"Also re-run every program chopped into checkpointed segments \
               (pause, snapshot, restore into a fresh SoC, continue) and \
               require agreement with an uninterrupted run (roughly triples \
               oracle cost).")

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains running campaign shards concurrently \
               (default: the runtime's recommended domain count). The \
               report is byte-identical for every value; $(b,--jobs 1) \
               takes the exact sequential code path.")

let shard_size_arg =
  Arg.(value & opt int Difftest.Harness.default.Difftest.Harness.shard_size
       & info [ "shard-size" ] ~docv:"N"
           ~doc:"Programs per campaign shard — the unit of parallel \
                 scheduling and of checkpointing. Changing it changes the \
                 per-shard seed derivation (and hence the generated \
                 stream), so it is part of a checkpoint's campaign \
                 fingerprint; the report at any given shard size is still \
                 byte-identical for every $(b,--jobs) value.")

let checkpoint_arg =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Checkpoint completed-shard results to $(docv) (atomically \
               rewritten after every shard). A killed campaign resumes \
               from it with $(b,--resume); combine both to keep \
               checkpointing after the resume.")

let resume_arg =
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE"
         ~doc:"Resume from a checkpoint written by $(b,--checkpoint): \
               shards recorded there are not re-run, and the final \
               report is byte-identical to an uninterrupted run's. The \
               campaign configuration must match the one that wrote the \
               checkpoint ($(b,--jobs) may differ).")

let cmd =
  let doc = "coverage-guided differential testing of the DIFT engine" in
  Cmd.v (Cmd.info "policy_fuzz" ~doc)
    Term.(const run $ programs_arg $ seed_arg $ size_arg $ no_shrink_arg
          $ shrink_dir_arg $ graph_dir_arg $ props_every_arg $ inject_arg
          $ cache_diff_arg $ snap_diff_arg $ jobs_arg
          $ shard_size_arg $ checkpoint_arg $ resume_arg)

let () = exit (Cmd.eval' cmd)
