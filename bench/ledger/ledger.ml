(* The performance ledger.

     ledger.exe --seed 1                 all four workloads, one child process each
     ledger.exe --seed 1 --trace         the same, traced: spans and per-layer metrics
     ledger.exe --workload W --seed 1    one workload; the last line of stdout is
                                         the one-line result
     ledger.exe compare BASE CHANGE      verdict per workload x end-to-end metric

   A --workload run measures in Bench.processes fresh child processes, one
   after another, each for its share of --seconds, and pools their passes.

   BENCHMARK.json's command is run as [--workload W --seed N --seconds S
   --trace 0|1], with S its run_seconds; that is why the run length is an
   option and [--trace] takes a value. A run of all workloads forwards both
   to each child.

   Scratch files, span files, per-workload results and the default
   ledger.json go to _build/ledger/, which dune's _build already keeps out
   of the source tree. *)

open Cmdliner
open Ledger_core

let work_dir = Filename.concat "_build" "ledger"

let write_file file text =
  Bench.mkdir_p (Filename.dirname file);
  Out_channel.with_open_bin file (fun oc -> output_string oc text)

(* Run this executable with [args] in a child process and wait for it;
   true if it exited 0. Only one process is busy at a time. *)
let spawn args =
  flush stdout;
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
  snd (Unix.waitpid [] pid) = Unix.WEXITED 0

let workload_args ~name ~seed ~seconds ~trace ~size =
  [
    "--workload"; name; "--seed"; string_of_int seed;
    "--seconds"; Printf.sprintf "%g" seconds;
    "--trace"; (if trace then "1" else "0");
    "--size"; Report.size_name size;
  ]

(* One part of a --workload run, measured in this process and written for
   the parent, which runs the same executable. *)
let run_part ~name ~seed ~seconds ~trace ~size file =
  let part = Bench.measure ~seconds ~trace ~size ~work_dir (Workload.make size ~seed name) in
  Out_channel.with_open_bin file (fun oc -> Marshal.to_channel oc (part : Bench.part) []);
  0

let run_one ~name ~seed ~seconds ~trace ~size ~out =
  let share = seconds /. float_of_int Bench.processes in
  let rec parts i acc =
    if i = Bench.processes then Some (List.rev acc)
    else begin
      let file = Filename.concat work_dir (Printf.sprintf "%s.part%d" name i) in
      if Sys.file_exists file then Sys.remove file;
      if not (spawn (workload_args ~name ~seed ~seconds:share ~trace ~size @ [ "--part"; file ]))
      then None
      else begin
        let part : Bench.part = In_channel.with_open_bin file Marshal.from_channel in
        Sys.remove file;
        parts (i + 1) (part :: acc)
      end
    end
  in
  match parts 0 [] with
  | None ->
      prerr_endline ("ledger: a measuring process of " ^ name ^ " failed");
      1
  | Some parts ->
      let r = Bench.combine ~trace ~size ~seed (Workload.make size ~seed name) parts in
      Report.print r;
      if trace then begin
        let file = Filename.concat work_dir (name ^ ".trace.json") in
        (match Spans.well_formed r.spans with
        | Ok () -> ()
        | Error e -> Printf.printf "  !! %s\n" e);
        write_file file (Jsonkit.Json.to_string (Spans.to_chrome r.spans) ^ "\n");
        Printf.printf "  spans: %s\n" file
      end;
      Option.iter
        (fun file ->
          write_file file (Jsonkit.Json.to_string (Report.document [ Report.to_json r ]) ^ "\n"))
        out;
      print_endline (Report.contract_line r);
      0

(* Each workload in a fresh child process, one after another, so a
   workload's heap and caches never reach the next one. *)
let run_all ~seed ~seconds ~trace ~size ~out =
  let results =
    List.map
      (fun name ->
        let result = Filename.concat work_dir (name ^ ".json") in
        if Sys.file_exists result then Sys.remove result;
        let ok = spawn (workload_args ~name ~seed ~seconds ~trace ~size @ [ "--out"; result ]) in
        print_newline ();
        if (not ok) || not (Sys.file_exists result) then None
        else
          match Jsonkit.Json.of_string (In_channel.with_open_bin result In_channel.input_all) with
          | Ok doc -> Option.bind (Jsonkit.Json.member "workloads" doc) Jsonkit.Json.to_list
          | Error _ -> None)
      Workload.names
  in
  let workloads = List.concat (List.filter_map Fun.id results) in
  write_file out (Jsonkit.Json.to_string (Report.document workloads) ^ "\n");
  Printf.printf "wrote %s\n" out;
  let failed =
    List.exists
      (fun w ->
        Option.bind (Jsonkit.Json.member "failed" w) Jsonkit.Json.to_int <> Some 0)
      workloads
  in
  if List.length workloads <> List.length Workload.names || failed then 1 else 0

let main workload seed seconds trace size out part =
  if seconds < 0. then `Error (true, "--seconds must not be negative")
  else
    match (workload, part) with
    | Some name, Some file -> `Ok (run_part ~name ~seed ~seconds ~trace ~size file)
    | Some name, None -> `Ok (run_one ~name ~seed ~seconds ~trace ~size ~out)
    | None, Some _ -> `Error (true, "--part needs --workload")
    | None, None ->
        `Ok
          (run_all ~seed ~seconds ~trace ~size
             ~out:(Option.value ~default:(Filename.concat work_dir "ledger.json") out))

let run_term =
  let workload =
    Arg.(
      value
      & opt (some (enum (List.map (fun n -> (n, n)) Workload.names))) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"Run only this workload.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Seed of the fuzz-campaign programs and the immobilizer challenges.")
  in
  let seconds =
    Arg.(value & opt float 12. & info [ "seconds" ] ~docv:"S"
           ~doc:"Time spent in timed passes per workload, shared by its measuring \
                 processes, each after warm-up passes for a fifth of its share (at \
                 least 3 timed passes per process).")
  in
  let trace =
    Arg.(value & opt ~vopt:true (enum [ ("0", false); ("1", true) ]) false
         & info [ "trace" ] ~docv:"0|1"
             ~doc:"Traced run: record spans and report the per-layer metrics. \
                   $(b,--trace) alone means $(b,--trace 1).")
  in
  let size =
    Arg.(value & opt (enum [ ("full", Workload.Full); ("smoke", Workload.Smoke) ]) Workload.Full
         & info [ "size" ] ~docv:"full|smoke"
             ~doc:"Workload size; smoke is the tier-1 test's seconds-long version.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the results as JSON (default _build/ledger/ledger.json when \
                 running all workloads).")
  in
  let part =
    Arg.(value & opt (some string) None & info [ "part" ] ~docv:"FILE"
           ~doc:"Measure one process's share of a $(b,--workload) run and write its \
                 raw samples to FILE; the run's parent process sets this.")
  in
  Term.(ret (const main $ workload $ seed $ seconds $ trace $ size $ out $ part))

let compare_cmd =
  let file n docv =
    Arg.(required & pos n (some file) None & info [] ~docv ~doc:"A ledger.json file.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare two ledger.json files, workload by workload.")
    Term.(const Report.compare_files $ file 0 "BASE" $ file 1 "CHANGE")

let () =
  let info = Cmd.info "ledger" ~doc:"End-to-end and per-layer performance ledger of the VP." in
  exit (Cmd.eval' (Cmd.group ~default:run_term info [ compare_cmd ]))
