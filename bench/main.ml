(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI) plus the ablation studies called out in
   DESIGN.md. Workload definitions, the timing routine and the
   machine-readable report live in Benchkit.Defs.

   Subcommands:
     fig1             - the three example IFPs of Fig. 1 (+ checks + DOT)
     table1           - Wilander-Kamkar suite results (Table I)
     table2           - performance overhead VP vs VP+ (Table II)
     loc              - DIFT-integration LoC share (the paper's 6.81% stat)
     ablate-dmi       - DMI fast path vs full TLM routing
     ablate-lub       - precomputed LUB table vs on-the-fly search
     ablate-quantum   - loosely-timed quantum sweep
     sweep-lattice    - VP+ overhead vs IFP size (beyond the paper)
     all (default)    - everything above

   An optional SCALE after the command (a positive number; 0.01 gives a
   seconds-long smoke run) multiplies every timed workload's iteration
   count. Every timed row is the median of Benchkit.Defs.reps runs, the
   configurations of one table alternating. Flags: --no-block-cache
   measures the core's single-step reference instead of the block
   compiler; --only=W1[,W2,...] restricts table2 to the named workloads,
   from the default set plus crc32, matmul, strings and aes-sw. A bad
   command, scale, flag or workload name is refused before anything
   runs. Each timed subcommand writes a BENCH_<name>.json report (schema
   in docs/perf.md). *)

let pf = Printf.printf

module D = Benchkit.Defs

(* ------------------------------------------------------------------ *)
(* Fig. 1                                                              *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  pf "=== Fig. 1: example information flow policies ===\n\n";
  let show name l =
    pf "%s:\n%s\n" name (Format.asprintf "%a" Dift.Lattice.pp l);
    pf "dot:\n%s\n" (Dift.Lattice.to_dot l)
  in
  let c = Dift.Lattice.confidentiality () in
  let i = Dift.Lattice.integrity () in
  let p = Dift.Lattice.ifp3 () in
  show "IFP-1 (confidentiality)" c;
  show "IFP-2 (integrity)" i;
  show "IFP-3 (product)" p;
  (* The properties quoted in Section IV-A. *)
  let t n = Dift.Lattice.tag_of_name p n in
  let lub = Dift.Lattice.name p (Dift.Lattice.lub p (t "LC,LI") (t "HC,HI")) in
  pf "check: LUB((LC,LI),(HC,HI)) = %s (paper: HC,LI) %s\n" lub
    (if lub = "HC,LI" then "[ok]" else "[MISMATCH]");
  let flow a b = Dift.Lattice.allowed_flow p (t a) (t b) in
  pf "check: (HC,*) cannot reach (LC,*) outputs: %s\n"
    (if (not (flow "HC,HI" "LC,LI")) && not (flow "HC,LI" "LC,LI") then "[ok]"
     else "[MISMATCH]");
  pf "check: (*,LI) cannot reach (*,HI) sinks: %s\n"
    (if (not (flow "LC,LI" "LC,HI")) && not (flow "HC,LI" "HC,HI")  then "[ok]"
     else "[MISMATCH]")

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

(* Each attack boots its own SoC, so the suite runs on a worker pool; the
   results come back in attack order, so the output is identical for
   every pool size. *)
let table1 () =
  pf "=== Table I: buffer-overflow test-suite results ===\n\n";
  pf "%-5s %-15s %-26s %-10s %-10s\n" "Atk#" "Location" "Target" "Technique"
    "Result";
  let outcomes =
    Parallelkit.Pool.map_list ~jobs:(Parallelkit.Pool.default_jobs ())
      (fun a -> Firmware.Wilander.run a.Firmware.Wilander.id)
      Firmware.Wilander.attacks
  in
  let ok = ref true in
  List.iter2
    (fun a outcome ->
      let result =
        match outcome with
        | Firmware.Wilander.Detected -> "Detected"
        | Firmware.Wilander.Missed c ->
            ok := false;
            Printf.sprintf "MISSED (exit %d)" c
        | Firmware.Wilander.Not_applicable -> "N/A"
      in
      pf "%-5d %-15s %-26s %-10s %-10s\n" a.Firmware.Wilander.id
        a.Firmware.Wilander.location a.Firmware.Wilander.target
        a.Firmware.Wilander.technique result)
    Firmware.Wilander.attacks outcomes;
  pf "\npaper: 10 Detected / 8 N/A -> %s\n"
    (if !ok then "reproduced" else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* Machine-readable reports                                            *)
(* ------------------------------------------------------------------ *)

let write_report ~file ~bench ~scale ~block_cache rows =
  let doc = D.doc ~bench ~scale ~block_cache rows in
  (match D.validate doc with
  | Ok () -> ()
  | Error e -> pf "!! report failed schema validation: %s\n" e);
  Snapshot.Io.write_file_atomic file (Jsonkit.Json.to_string doc ^ "\n");
  pf "\nwrote %s\n" file

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)
(* ------------------------------------------------------------------ *)

let print_table2 pairs =
  pf "%-15s %14s %8s %9s %9s %7s %7s %6s\n" "Benchmark" "#instr exec."
    "LoC ASM" "VP [s]" "VP+ [s]" "VP" "VP+" "Ov.";
  pf "%-15s %14s %8s %9s %9s %7s %7s %6s\n" "" "" "" "" "" "MIPS" "MIPS" "";
  let line name instr loc vp_s vpp_s vp_mips vpp_mips ov =
    pf "%-15s %14d %8d %9.3f %9.3f %7.1f %7.1f %5.1fx\n" name instr loc vp_s
      vpp_s vp_mips vpp_mips ov
  in
  List.iter
    (fun (vp, vpp) ->
      if not (vp.D.m_exit_ok && vpp.D.m_exit_ok) then
        pf "!! %s did not exit cleanly\n" vp.D.m_workload;
      line vp.D.m_workload vp.D.m_instructions vp.D.m_loc_asm vp.D.m_seconds
        vpp.D.m_seconds vp.D.m_mips vpp.D.m_mips vpp.D.m_overhead)
    pairs;
  let n = List.length pairs in
  let avg f = List.fold_left (fun a p -> a +. f p) 0. pairs /. float_of_int n in
  let sum f = List.fold_left (fun a p -> a + f p) 0 pairs in
  line "- average -"
    (sum (fun (vp, _) -> vp.D.m_instructions) / n)
    (sum (fun (vp, _) -> vp.D.m_loc_asm) / n)
    (avg (fun (vp, _) -> vp.D.m_seconds))
    (avg (fun (_, vpp) -> vpp.D.m_seconds))
    (avg (fun (vp, _) -> vp.D.m_mips))
    (avg (fun (_, vpp) -> vpp.D.m_mips))
    (avg (fun (_, vpp) -> vpp.D.m_overhead))

let table2 ~scale ~block_cache ~only () =
  pf "=== Table II: performance overhead of VP-based DIFT (scale %g) ===\n\n"
    scale;
  pf "(workloads scaled down vs the paper's multi-billion-instruction runs;\n";
  pf " the target is the overhead SHAPE: VP+ roughly 1.2x-3x, average ~2x;\n";
  pf " each row is the median of %d runs, VP and VP+ alternating)\n\n" D.reps;
  let defs =
    match only with
    | [] -> D.table2 ~scale
    | names ->
        List.filter
          (fun d -> List.mem d.D.d_name names)
          (D.table2 ~scale @ D.extended ~scale)
  in
  let rows = List.concat_map (D.measure_def ~block_cache) defs in
  let rec pairs = function
    | vp :: vpp :: rest -> (vp, vpp) :: pairs rest
    | _ -> []
  in
  print_table2 (pairs rows);
  pf "\n";
  write_report ~file:"BENCH_table2.json" ~bench:"table2" ~scale ~block_cache
    rows

(* ------------------------------------------------------------------ *)
(* LoC statistic (Section V-B1's 6.81%)                                *)
(* ------------------------------------------------------------------ *)

let count_lines path =
  try
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  with Sys_error _ -> 0

let rec ml_files dir =
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then ml_files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
             then [ p ]
             else [])
  | exception Sys_error _ -> []

let loc_report () =
  pf "=== DIFT-integration LoC share (cf. the paper's 6.81%%) ===\n\n";
  let total = List.fold_left (fun a f -> a + count_lines f) 0 (ml_files "lib") in
  let dift = List.fold_left (fun a f -> a + count_lines f) 0 (ml_files "lib/core") in
  if total = 0 then
    pf "(run from the repository root to measure the source tree)\n"
  else
    pf
      "DIFT engine (lib/core): %d lines of %d platform lines total = %.2f%%\n\
       (the paper reports 6.81%% of the original VP touched, 58.7%% of which\n\
       were plain type conversions; our engine is a separate library, so the\n\
       share counts its whole implementation)\n"
      dift total
      (100. *. float_of_int dift /. float_of_int total)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* The qsort workload under several configurations [(mode, run)], sampled
   together; overheads are relative to the first. *)
let qsort_cases ~scale cases =
  let def = List.find (fun d -> d.D.d_name = "qsort") (D.table2 ~scale) in
  let img = def.D.make_image () in
  D.measure ~workload:"qsort" ~loc_asm:img.Rv32_asm.Image.insn_count
    (List.map (fun (mode, run) -> (mode, fun () -> run def img)) cases)

let print_cases rows =
  List.iter
    (fun m ->
      pf "%-28s %10d instr  %8.3f s  %7.1f MIPS  (%.2fx)\n" m.D.m_mode
        m.D.m_instructions m.D.m_seconds m.D.m_mips m.D.m_overhead)
    rows

let ablate_dmi ~scale ~block_cache () =
  pf "=== Ablation: DMI fast path vs full TLM routing (qsort) ===\n\n";
  let case (mode, dmi, tracking) =
    (mode, fun def img -> D.run ~block_cache ~dmi ~tracking def img)
  in
  let rows =
    qsort_cases ~scale
      (List.map case
         [ ("vp+dmi", true, false); ("vp+tlm-only", false, false);
           ("vp++dmi", true, true); ("vp++tlm-only", false, true) ])
  in
  print_cases rows;
  write_report ~file:"BENCH_ablate_dmi.json" ~bench:"ablate-dmi" ~scale
    ~block_cache rows

let ablate_quantum ~scale ~block_cache () =
  pf "=== Ablation: loosely-timed quantum sweep (qsort, VP+) ===\n\n";
  let case quantum =
    ( Printf.sprintf "quantum-%d" quantum,
      fun def img -> D.run ~block_cache ~quantum ~tracking:true def img )
  in
  let rows = qsort_cases ~scale (List.map case [ 1; 10; 100; 1000; 10000 ]) in
  print_cases rows;
  write_report ~file:"BENCH_ablate_quantum.json" ~bench:"ablate-quantum"
    ~scale ~block_cache rows

let ablate_lub ~scale ~block_cache () =
  pf "=== Ablation: precomputed LUB table vs on-the-fly search ===\n\n";
  let lats =
    [ ("ifp2", "IFP-2 (2 classes)", Dift.Lattice.integrity ());
      ("ifp3", "IFP-3 (4 classes)", Dift.Lattice.ifp3 ());
      ("per-byte-19", "per-byte (19 classes)", Dift.Lattice.per_byte_key ~n:16) ]
  in
  let iters = D.scaled scale 5_000_000 in
  let rows =
    List.concat_map
      (fun (key, name, lat) ->
        let n = Dift.Lattice.size lat in
        let bench f () =
          D.timed ~instructions:iters (fun () ->
              let acc = ref 0 in
              for i = 0 to iters - 1 do
                acc := !acc + f lat (i mod n) ((i * 7) mod n)
              done;
              ignore !acc)
        in
        let rows =
          D.measure ~workload:key ~loc_asm:0
            [ ("lub-table", bench Dift.Lattice.lub);
              ("lub-search", bench Dift.Lattice.lub_uncached) ]
        in
        let ns m = m.D.m_seconds /. float_of_int iters *. 1e9 in
        (match rows with
        | [ table; search ] ->
            pf "%-24s table: %6.1f ns/op   search: %6.1f ns/op   (%.1fx)\n"
              name (ns table) (ns search) search.D.m_overhead
        | _ -> ());
        rows)
      lats
  in
  write_report ~file:"BENCH_ablate_lub.json" ~bench:"ablate-lub" ~scale
    ~block_cache rows

(* Overhead vs lattice size: the LUB table should keep the per-class cost
   flat (an experiment beyond the paper). *)
let sweep_lattice ~scale ~block_cache () =
  pf "=== Sweep: VP+ overhead vs IFP size (qsort) ===\n\n";
  let case (mode, lat) =
    let bot = Option.get (Dift.Lattice.bottom lat) in
    let policy img =
      Dift.Policy.make ~lattice:lat ~default_tag:bot
        ~classification:
          [ Dift.Policy.region ~name:"program" ~lo:img.Rv32_asm.Image.org
              ~hi:(Rv32_asm.Image.limit img - 1) ~tag:bot ]
        ~exec_fetch:(Option.get (Dift.Lattice.top lat))
        ()
    in
    ( mode,
      fun def img ->
        D.run ~block_cache ~policy:(policy img) ~tracking:true def img )
  in
  let rows =
    qsort_cases ~scale
      (( "vp-baseline",
         fun def img -> D.run ~block_cache ~tracking:false def img )
      :: List.map case
           [ ("ifp2-2", Dift.Lattice.integrity ());
             ("ifp3-4", Dift.Lattice.ifp3 ());
             ("per-byte-19", Dift.Lattice.per_byte_key ~n:16);
             ("per-byte-67", Dift.Lattice.per_byte_key ~n:64) ])
  in
  print_cases rows;
  write_report ~file:"BENCH_sweep_lattice.json" ~bench:"sweep-lattice"
    ~scale ~block_cache rows

(* ------------------------------------------------------------------ *)

let benches ~scale ~block_cache ~only =
  [ ("fig1", fig1);
    ("table1", table1);
    ("table2", table2 ~scale ~block_cache ~only);
    ("loc", loc_report);
    ("ablate-dmi", ablate_dmi ~scale ~block_cache);
    ("ablate-lub", ablate_lub ~scale ~block_cache);
    ("ablate-quantum", ablate_quantum ~scale ~block_cache);
    ("sweep-lattice", sweep_lattice ~scale ~block_cache) ]

let run command scale no_block_cache only =
  let benches = benches ~scale ~block_cache:(not no_block_cache) ~only in
  match List.assoc_opt command benches with
  | Some bench -> bench ()
  | None ->
      List.iteri
        (fun i (_, bench) ->
          if i > 0 then pf "\n";
          bench ())
        benches

(* Reject a bad scale or workload name at parse time, before any
   measurement starts: a typo must not silently fall back to a full-size
   run. *)
let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0. -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_float)

let one_of names = Cmdliner.Arg.enum (List.map (fun n -> (n, n)) names)

let cmd =
  let open Cmdliner in
  let commands =
    List.map fst (benches ~scale:1. ~block_cache:true ~only:[]) @ [ "all" ]
  in
  let command =
    Arg.(value
         & pos 0 (one_of commands) "all"
         & info [] ~docv:"COMMAND"
             ~doc:
               (Printf.sprintf "What to measure: %s. $(b,all) runs everything."
                  (Arg.doc_alts commands)))
  in
  let scale =
    Arg.(value & pos 1 positive_float 1.
         & info [] ~docv:"SCALE"
             ~doc:"Workload scale for every timed command: a positive \
                   number multiplying each workload's iteration count.")
  in
  let no_block_cache =
    Arg.(value & flag & info [ "no-block-cache" ]
           ~doc:"Measure the core's single-step reference instead of the \
                 block compiler.")
  in
  let only =
    let names =
      List.map (fun d -> d.D.d_name) (D.table2 ~scale:1. @ D.extended ~scale:1.)
    in
    Arg.(value & opt (list (one_of names)) [] & info [ "only" ]
           ~docv:"W1,W2,..."
           ~doc:
             (Printf.sprintf
                "Restrict $(b,table2) to the named workloads, each %s (default: \
                 all but the last four)."
                (Arg.doc_alts names)))
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"regenerate the paper's evaluation tables")
    Term.(const run $ command $ scale $ no_block_cache $ only)

let () = exit (Cmdliner.Cmd.eval cmd)
