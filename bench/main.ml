(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI) plus the ablation studies called out in
   DESIGN.md. Timing uses the monotonic clock (Benchkit.Clock); workload
   definitions and the machine-readable report live in Benchkit.Defs.

   Subcommands:
     fig1             - the three example IFPs of Fig. 1 (+ checks + DOT)
     table1           - Wilander-Kamkar suite results (Table I)
     table2 [scale]   - performance overhead VP vs VP+ (Table II)
     loc              - DIFT-integration LoC share (the paper's 6.81% stat)
     ablate-dmi       - DMI fast path vs full TLM routing
     ablate-policy    - cost decomposition: tags only vs tags+checks
     ablate-lub       - precomputed LUB table vs on-the-fly search
     ablate-quantum   - loosely-timed quantum sweep
     sweep-lattice    - VP+ overhead vs IFP size (beyond the paper)
     snapshot         - full-platform save/restore cost (checkpointing)
     parallel         - domain-parallel campaign engine: wall vs cpu scaling
     graph            - IFT graph store: ingest + backward-query cost
     table2-extended [scale] - additional workloads (crc32, matmul, ...)
     all (default)    - everything above

   [scale] is a positive number (0.01 gives a seconds-long smoke run);
   anything else is refused before any measurement runs. Flags (run with
   --help for the full list): --no-block-cache measures the core's
   single-step reference instead of the superblock compiler; --trace adds
   a third vp+trace row per workload (VP+ with the tracing subsystem
   attached) to table2 / table2-extended so reports record the tracing
   overhead; --jobs=N sets the worker-domain count for table1 and
   parallel (default: the runtime's recommended domain count); --reps=N
   repeats each parallel row N times; --no-warm-start cold-boots campaign
   SoCs instead of restoring the shared boot snapshot (see
   docs/parallel.md); --only=W1[,W2,...] restricts table2 /
   table2-extended to the named workloads. Each timed subcommand also
   writes a BENCH_<name>.json report (schema in docs/perf.md). *)

let pf = Printf.printf
let now_s = Benchkit.Clock.now_s

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

(* Each attack boots its own SoC, so the suite is a natural task list:
   run the attacks on a worker pool, then print the results in attack
   order — the output is identical for every [jobs]. *)
let run_table1 ~jobs =
  Parallelkit.Pool.map_list ~jobs
    (fun a -> Firmware.Wilander.run a.Firmware.Wilander.id)
    Firmware.Wilander.attacks

let table1 ~jobs () =
  pf "=== Table I: buffer-overflow test-suite results ===\n\n";
  pf "%-5s %-15s %-26s %-10s %-10s\n" "Atk#" "Location" "Target" "Technique"
    "Result";
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
    Firmware.Wilander.attacks (run_table1 ~jobs);
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

(* Each group is a workload's measurement rows: [vp; vpp] or, with
   --trace, [vp; vpp; vp+trace]. *)
let print_table2 groups =
  let traced = List.exists (fun g -> List.length g > 2) groups in
  pf "%-15s %14s %8s %9s %9s %7s %7s %6s%s\n" "Benchmark" "#instr exec."
    "LoC ASM" "VP [s]" "VP+ [s]" "VP" "VP+" "Ov."
    (if traced then " +trace" else "");
  pf "%-15s %14s %8s %9s %9s %7s %7s %6s%s\n" "" "" "" "" "" "MIPS" "MIPS" ""
    (if traced then "    Ov." else "");
  List.iter
    (function
      | vp :: vpp :: rest ->
          if not (vp.D.m_exit_ok && vpp.D.m_exit_ok) then
            pf "!! %s did not exit cleanly\n" vp.D.m_workload;
          pf "%-15s %14d %8d %9.3f %9.3f %7.1f %7.1f %5.1fx" vp.D.m_workload
            vp.D.m_instructions vp.D.m_loc_asm vp.D.m_seconds vpp.D.m_seconds
            vp.D.m_mips vpp.D.m_mips vpp.D.m_overhead;
          (match rest with
          | vpt :: _ -> pf " %5.1fx" vpt.D.m_overhead
          | [] -> ());
          pf "\n"
      | _ -> ())
    groups;
  let vp_of g = List.nth g 0 and vpp_of g = List.nth g 1 in
  let n = float_of_int (List.length groups) in
  let avg f = List.fold_left (fun a g -> a +. f g) 0. groups /. n in
  let sum f = List.fold_left (fun a g -> a + f g) 0 groups in
  pf "%-15s %14d %8d %9.3f %9.3f %7.1f %7.1f %5.1fx" "- average -"
    (sum (fun g -> (vp_of g).D.m_instructions) / List.length groups)
    (sum (fun g -> (vp_of g).D.m_loc_asm) / List.length groups)
    (avg (fun g -> (vp_of g).D.m_seconds))
    (avg (fun g -> (vpp_of g).D.m_seconds))
    (avg (fun g -> (vp_of g).D.m_mips))
    (avg (fun g -> (vpp_of g).D.m_mips))
    (avg (fun g -> (vpp_of g).D.m_overhead));
  if traced then
    pf " %5.1fx"
      (avg (fun g ->
           match g with _ :: _ :: vpt :: _ -> vpt.D.m_overhead | _ -> 1.));
  pf "\n"

let measure_defs ~block_cache ~trace defs =
  let groups = List.map (D.measure ~block_cache ~trace) defs in
  print_table2 groups;
  pf "\n";
  List.concat groups

let filter_defs ~only defs =
  match only with
  | None -> defs
  | Some names ->
      List.iter
        (fun name ->
          if not (List.exists (fun d -> d.D.d_name = name) defs) then begin
            pf "no workload named %S (known: %s)\n" name
              (String.concat " " (List.map (fun d -> d.D.d_name) defs));
            exit 1
          end)
        names;
      List.filter (fun d -> List.mem d.D.d_name names) defs

let table2 ~scale ~block_cache ~trace ~only () =
  pf "=== Table II: performance overhead of VP-based DIFT (scale %g) ===\n\n"
    scale;
  pf "(workloads scaled down vs the paper's multi-billion-instruction runs;\n";
  pf " the target is the overhead SHAPE: VP+ roughly 1.2x-3x, average ~2x)\n\n";
  let defs = filter_defs ~only (D.table2 ~scale) in
  let rows = measure_defs ~block_cache ~trace defs in
  write_report ~file:"BENCH_table2.json" ~bench:"table2" ~scale ~block_cache
    rows

let table2_extended ~scale ~block_cache ~trace ~only () =
  pf "=== Extended workloads (beyond the paper's Table II set) ===\n\n";
  let defs = filter_defs ~only (D.extended ~scale) in
  let rows = measure_defs ~block_cache ~trace defs in
  write_report ~file:"BENCH_table2_extended.json" ~bench:"table2-extended"
    ~scale ~block_cache rows

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

(* One qsort run under explicit platform knobs, as a report row. *)
let qsort_case ~mode ~tracking ~dmi ~quantum ~block_cache ~policy_of =
  let img = Firmware.Qsort_fw.image ~n:1000 ~rounds:4 () in
  let policy = policy_of img in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking ~dmi ~quantum ~block_cache ()
  in
  Vp.Soc.load_image soc img;
  soc.Vp.Soc.cpu.Vp.Soc.cpu_set_max 500_000_000;
  Vp.Soc.start soc;
  let t0 = now_s () in
  Vp.Soc.run soc;
  let dt = now_s () -. t0 in
  let instr = soc.Vp.Soc.cpu.Vp.Soc.cpu_instret () in
  {
    D.m_workload = "qsort";
    m_mode = mode;
    m_instructions = instr;
    m_seconds = dt;
    m_mips = D.mips instr dt;
    m_overhead = 1.;
    m_fast_retired = soc.Vp.Soc.cpu.Vp.Soc.cpu_fast_retired ();
    m_blocks_built = soc.Vp.Soc.cpu.Vp.Soc.cpu_blocks_built ();
    m_superblocks = Some (soc.Vp.Soc.cpu.Vp.Soc.cpu_superblocks_built ());
    m_chain_hits = Some (soc.Vp.Soc.cpu.Vp.Soc.cpu_chain_hits ());
    m_ic_hits = Some (soc.Vp.Soc.cpu.Vp.Soc.cpu_ic_hits ());
    m_ic_misses = Some (soc.Vp.Soc.cpu.Vp.Soc.cpu_ic_misses ());
    m_loc_asm = img.Rv32_asm.Image.insn_count;
    m_trace = false;
    m_exit_ok =
      (match soc.Vp.Soc.cpu.Vp.Soc.cpu_exit () with
      | Rv32.Core.Exited 0 -> true
      | _ -> false);
    m_jobs = None;
    m_wall_ns = None;
    m_cpu_ns = None;
    m_worker_throughput = None;
    m_store_bytes = None;
    m_ingest_ns = None;
    m_query_ns = None;
    m_nodes = None;
    m_edges = None;
  }

(* Overheads relative to the first row. *)
let relativize = function
  | [] -> []
  | first :: _ as rows ->
      List.map
        (fun m ->
          {
            m with
            D.m_overhead =
              (if first.D.m_seconds > 0. then
                 m.D.m_seconds /. first.D.m_seconds
               else 1.);
          })
        rows

let print_cases rows =
  List.iter
    (fun m ->
      pf "%-28s %10d instr  %8.3f s  %7.1f MIPS  (%.2fx)\n" m.D.m_mode
        m.D.m_instructions m.D.m_seconds m.D.m_mips m.D.m_overhead)
    rows

let unrestricted_policy img =
  ignore img;
  let lat = Dift.Lattice.integrity () in
  Dift.Policy.unrestricted lat ~default_tag:(Dift.Lattice.tag_of_name lat "HI")

let ablate_dmi ~block_cache () =
  pf "=== Ablation: DMI fast path vs full TLM routing (qsort) ===\n\n";
  let rows =
    relativize
      (List.map
         (fun (mode, dmi, tracking) ->
           qsort_case ~mode ~tracking ~dmi ~quantum:1000 ~block_cache
             ~policy_of:D.integrity_policy)
         [ ("vp+dmi", true, false); ("vp+tlm-only", false, false);
           ("vp++dmi", true, true); ("vp++tlm-only", false, true) ])
  in
  print_cases rows;
  write_report ~file:"BENCH_ablate_dmi.json" ~bench:"ablate-dmi" ~scale:1.
    ~block_cache rows

let ablate_policy ~block_cache () =
  pf "=== Ablation: cost decomposition of the DIFT engine (qsort) ===\n\n";
  let rows =
    relativize
      (List.map
         (fun (mode, tracking, policy_of) ->
           qsort_case ~mode ~tracking ~dmi:true ~quantum:1000 ~block_cache
             ~policy_of)
         [ ("vp-no-tags", false, D.integrity_policy);
           ("vp+tags-only", true, unrestricted_policy);
           ("vp+tags+fetch-check", true, D.integrity_policy) ])
  in
  print_cases rows;
  write_report ~file:"BENCH_ablate_policy.json" ~bench:"ablate-policy"
    ~scale:1. ~block_cache rows

let ablate_quantum ~block_cache () =
  pf "=== Ablation: loosely-timed quantum sweep (qsort, VP+) ===\n\n";
  let rows =
    relativize
      (List.map
         (fun quantum ->
           qsort_case
             ~mode:(Printf.sprintf "quantum-%d" quantum)
             ~tracking:true ~dmi:true ~quantum ~block_cache
             ~policy_of:D.integrity_policy)
         [ 1; 10; 100; 1000; 10000 ])
  in
  print_cases rows;
  write_report ~file:"BENCH_ablate_quantum.json" ~bench:"ablate-quantum"
    ~scale:1. ~block_cache rows

let ablate_lub ~block_cache () =
  pf "=== Ablation: precomputed LUB table vs on-the-fly search ===\n\n";
  let lats =
    [ ("ifp2", "IFP-2 (2 classes)", Dift.Lattice.integrity ());
      ("ifp3", "IFP-3 (4 classes)", Dift.Lattice.ifp3 ());
      ("per-byte-19", "per-byte (19 classes)", Dift.Lattice.per_byte_key ~n:16) ]
  in
  let iters = 5_000_000 in
  let rows =
    List.concat_map
      (fun (key, name, lat) ->
        let n = Dift.Lattice.size lat in
        let bench f =
          let t0 = now_s () in
          let acc = ref 0 in
          for i = 0 to iters - 1 do
            acc := !acc + f lat (i mod n) ((i * 7) mod n)
          done;
          ignore !acc;
          now_s () -. t0
        in
        let t_table = bench Dift.Lattice.lub in
        let t_search = bench Dift.Lattice.lub_uncached in
        pf "%-24s table: %6.1f ns/op   search: %6.1f ns/op   (%.1fx)\n" name
          (t_table /. float_of_int iters *. 1e9)
          (t_search /. float_of_int iters *. 1e9)
          (t_search /. t_table);
        let mk mode t overhead =
          {
            D.m_workload = key;
            m_mode = mode;
            m_instructions = iters;
            m_seconds = t;
            m_mips = D.mips iters t;
            m_overhead = overhead;
            m_fast_retired = 0;
            m_blocks_built = 0;
            m_superblocks = None;
            m_chain_hits = None;
            m_ic_hits = None;
            m_ic_misses = None;
            m_loc_asm = 0;
            m_trace = false;
            m_exit_ok = true;
            m_jobs = None;
            m_wall_ns = None;
            m_cpu_ns = None;
            m_worker_throughput = None;
            m_store_bytes = None;
            m_ingest_ns = None;
            m_query_ns = None;
            m_nodes = None;
            m_edges = None;
          }
        in
        [ mk "lub-table" t_table 1.;
          mk "lub-search" t_search
            (if t_table > 0. then t_search /. t_table else 1.) ])
      lats
  in
  write_report ~file:"BENCH_ablate_lub.json" ~bench:"ablate-lub" ~scale:1.
    ~block_cache rows

(* Overhead vs lattice size: the LUB table should keep the per-class cost
   flat (an experiment beyond the paper). *)
let sweep_lattice ~block_cache () =
  pf "=== Sweep: VP+ overhead vs IFP size (qsort) ===\n\n";
  let lattices =
    [ ("ifp2-2", Dift.Lattice.integrity ());
      ("ifp3-4", Dift.Lattice.ifp3 ());
      ("per-byte-19", Dift.Lattice.per_byte_key ~n:16);
      ("per-byte-67", Dift.Lattice.per_byte_key ~n:64) ]
  in
  let baseline =
    qsort_case ~mode:"vp-baseline" ~tracking:false ~dmi:true ~quantum:1000
      ~block_cache ~policy_of:D.integrity_policy
  in
  let img = Firmware.Qsort_fw.image ~n:1000 ~rounds:4 () in
  let tracked =
    List.map
      (fun (mode, lat) ->
        let bot = Option.get (Dift.Lattice.bottom lat) in
        let policy_of _ =
          Dift.Policy.make ~lattice:lat ~default_tag:bot
            ~classification:
              [ Dift.Policy.region ~name:"program" ~lo:img.Rv32_asm.Image.org
                  ~hi:(Rv32_asm.Image.limit img - 1) ~tag:bot ]
            ~exec_fetch:(Option.get (Dift.Lattice.top lat))
            ()
        in
        qsort_case ~mode ~tracking:true ~dmi:true ~quantum:1000 ~block_cache
          ~policy_of)
      lattices
  in
  let rows = relativize (baseline :: tracked) in
  print_cases rows;
  write_report ~file:"BENCH_sweep_lattice.json" ~bench:"sweep-lattice"
    ~scale:1. ~block_cache rows

(* ------------------------------------------------------------------ *)
(* Snapshot cost                                                       *)
(* ------------------------------------------------------------------ *)

(* qsort under periodic full-platform checkpointing: the overhead columns
   put a price on Soc.save alone and on the full save + restore-into-a-
   fresh-SoC cycle, relative to the uninterrupted run; per-snapshot
   latency and encoded size are printed alongside. *)
let bench_snapshot ~block_cache () =
  pf "=== Snapshot: full-platform save/restore cost (qsort, VP+) ===\n\n";
  let img = Firmware.Qsort_fw.image ~n:1000 ~rounds:4 () in
  let stride = 100_000 in
  let make () =
    let policy = D.integrity_policy img in
    let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
    let soc =
      Vp.Soc.create ~policy ~monitor ~tracking:true ~quantum:1000 ~block_cache
        ()
    in
    Vp.Soc.load_image soc img;
    soc.Vp.Soc.cpu.Vp.Soc.cpu_set_max 500_000_000;
    Vp.Soc.start soc;
    soc
  in
  let row mode soc dt =
    let instr = soc.Vp.Soc.cpu.Vp.Soc.cpu_instret () in
    {
      D.m_workload = "qsort";
      m_mode = mode;
      m_instructions = instr;
      m_seconds = dt;
      m_mips = D.mips instr dt;
      m_overhead = 1.;
      m_fast_retired = soc.Vp.Soc.cpu.Vp.Soc.cpu_fast_retired ();
      m_blocks_built = soc.Vp.Soc.cpu.Vp.Soc.cpu_blocks_built ();
      m_superblocks = Some (soc.Vp.Soc.cpu.Vp.Soc.cpu_superblocks_built ());
      m_chain_hits = Some (soc.Vp.Soc.cpu.Vp.Soc.cpu_chain_hits ());
      m_ic_hits = Some (soc.Vp.Soc.cpu.Vp.Soc.cpu_ic_hits ());
      m_ic_misses = Some (soc.Vp.Soc.cpu.Vp.Soc.cpu_ic_misses ());
      m_loc_asm = img.Rv32_asm.Image.insn_count;
      m_trace = false;
      m_exit_ok =
        (match soc.Vp.Soc.cpu.Vp.Soc.cpu_exit () with
        | Rv32.Core.Exited 0 -> true
        | _ -> false);
      m_jobs = None;
      m_wall_ns = None;
      m_cpu_ns = None;
      m_worker_throughput = None;
      m_store_bytes = None;
      m_ingest_ns = None;
      m_query_ns = None;
      m_nodes = None;
      m_edges = None;
    }
  in
  (* Uninterrupted reference. *)
  let soc = make () in
  let t0 = now_s () in
  Vp.Soc.run soc;
  let straight = row "vp++straight" soc (now_s () -. t0) in
  (* Checkpoint every [stride] instructions, Soc.save only. *)
  let snaps = ref 0 and snap_bytes = ref 0 and save_s = ref 0. in
  let soc = make () in
  let t0 = now_s () in
  let rec save_loop soc =
    Vp.Soc.pause_at soc (soc.Vp.Soc.cpu.Vp.Soc.cpu_instret () + stride);
    Vp.Soc.run soc;
    if Vp.Soc.paused soc then begin
      let s0 = now_s () in
      let snap = Vp.Soc.save soc in
      save_s := !save_s +. (now_s () -. s0);
      incr snaps;
      snap_bytes := !snap_bytes + String.length snap;
      soc.Vp.Soc.cpu.Vp.Soc.cpu_clear_paused ();
      save_loop soc
    end
    else soc
  in
  let soc = save_loop soc in
  let save_only = row "vp++save" soc (now_s () -. t0) in
  (* Checkpoint, save, restore into a fresh SoC, continue there. *)
  let restore_s = ref 0. in
  let soc = make () in
  let t0 = now_s () in
  let rec cycle_loop soc =
    Vp.Soc.pause_at soc (soc.Vp.Soc.cpu.Vp.Soc.cpu_instret () + stride);
    Vp.Soc.run soc;
    if Vp.Soc.paused soc then begin
      let snap = Vp.Soc.save soc in
      let r0 = now_s () in
      let soc' = make () in
      Vp.Soc.restore soc' snap;
      restore_s := !restore_s +. (now_s () -. r0);
      soc'.Vp.Soc.cpu.Vp.Soc.cpu_clear_paused ();
      cycle_loop soc'
    end
    else soc
  in
  let soc = cycle_loop soc in
  let cycle = row "vp++save+restore" soc (now_s () -. t0) in
  let rows = relativize [ straight; save_only; cycle ] in
  print_cases rows;
  if !snaps > 0 then
    pf
      "\n\
       %d snapshots of %d bytes each; save %.2f ms, restore (into a fresh \
       SoC) %.2f ms per checkpoint\n"
      !snaps
      (!snap_bytes / !snaps)
      (1000. *. !save_s /. float_of_int !snaps)
      (1000. *. !restore_s /. float_of_int (max 1 !snaps));
  write_report ~file:"BENCH_snapshot.json" ~bench:"snapshot" ~scale:1.
    ~block_cache rows

(* ------------------------------------------------------------------ *)
(* Parallel campaign engine                                            *)
(* ------------------------------------------------------------------ *)

(* The domain-parallel campaign engine measured end to end: the difftest
   campaign and the Table I attack suite, each at jobs=1 and jobs=N, on
   both clocks. Wall vs cpu is the honest scaling picture — cpu/wall is
   the parallelism actually realised on this host, and a single-core
   runner shows wall ~ cpu at every jobs value (the committed
   BENCH_parallel.json records which kind of host produced it via
   host_domains). Reports from the jobs=1 and jobs=N campaigns are
   compared for byte equality and the verdict lands in the rows'
   exit_ok, so a determinism regression poisons the artifact loudly. *)
let bench_parallel ~jobs ~warm ~reps ~block_cache () =
  pf "=== Parallel campaign engine: wall vs cpu scaling ===\n\n";
  let host = Parallelkit.Pool.default_jobs () in
  pf "host: %d recommended domain(s); rows at jobs=1 and jobs=%d, %d rep(s) per row, warm-start %s\n\n"
    host jobs reps (if warm then "on" else "off");
  let time f =
    let w0 = Benchkit.Clock.now_ns () and c0 = Benchkit.Clock.cpu_ns () in
    let last = ref (f ()) in
    for _ = 2 to reps do last := f () done;
    (!last, Benchkit.Clock.now_ns () - w0, Benchkit.Clock.cpu_ns () - c0)
  in
  let programs = 120 in
  let campaign jobs warm_start () =
    Difftest.Harness.run
      ~config:
        {
          Difftest.Harness.default with
          seed = 0x9a7a11e1;
          programs;
          shrink = false;
          jobs;
          warm_start;
        }
      ()
  in
  (* Fine-grained shards (shard_size=10 -> 12 shards for 120 programs)
     exercise the work-stealing scheduler: more shards than workers, so
     an idle worker finds something to steal. Shard size changes the
     stream, so these rows form their own byte-identity pair. *)
  let campaign_ws jobs () =
    Difftest.Harness.run
      ~config:
        {
          Difftest.Harness.default with
          seed = 0x9a7a11e1;
          programs;
          shrink = false;
          jobs;
          warm_start = warm;
          shard_size = 10;
        }
      ()
  in
  let render r = Format.asprintf "%a" Difftest.Harness.pp_report r in
  let r1, dw1, dc1 = time (campaign 1 warm) in
  let rn, dwn, dcn = time (campaign jobs warm) in
  let rcold, dwc, dcc = time (campaign 1 false) in
  let identical = String.equal (render r1) (render rn) in
  let cold_same = String.equal (render r1) (render rcold) in
  let w1, ww1, wc1 = time (campaign_ws 1) in
  let wn, wwn, wcn = time (campaign_ws jobs) in
  let ws_same = String.equal (render w1) (render wn) in
  let s1, tw1, tc1 = time (fun () -> run_table1 ~jobs:1) in
  let sn, twn, tcn = time (fun () -> run_table1 ~jobs) in
  let suite_same = s1 = sn in
  let n_attacks = List.length Firmware.Wilander.attacks in
  (* One instrumented pass over the attack suite to show the scheduler
     at work: per-worker task counts and how many tasks were stolen. *)
  let _, steal_stats =
    Parallelkit.Pool.map_stats ~jobs
      (fun a -> Firmware.Wilander.run a.Firmware.Wilander.id)
      (Array.of_list Firmware.Wilander.attacks)
  in
  let prow ~workload ~mode ~jobs ~tasks ~wall ~cpu ~base ~ok =
    D.parallel_row ~exit_ok:ok ~workload ~mode ~jobs ~tasks ~instructions:0
      ~wall_ns:wall ~cpu_ns:cpu
      ~overhead:(if base > 0 then float_of_int wall /. float_of_int base else 1.)
      ()
  in
  let rows =
    [
      prow ~workload:"difftest" ~mode:"jobs-1" ~jobs:1 ~tasks:(programs * reps)
        ~wall:dw1 ~cpu:dc1 ~base:dw1 ~ok:identical;
      prow ~workload:"difftest"
        ~mode:(Printf.sprintf "jobs-%d" jobs)
        ~jobs ~tasks:(programs * reps) ~wall:dwn ~cpu:dcn ~base:dw1
        ~ok:identical;
      prow ~workload:"difftest" ~mode:"jobs-1-cold" ~jobs:1
        ~tasks:(programs * reps) ~wall:dwc ~cpu:dcc ~base:dw1 ~ok:cold_same;
      prow ~workload:"difftest" ~mode:"jobs-1-ws10" ~jobs:1
        ~tasks:(programs * reps) ~wall:ww1 ~cpu:wc1 ~base:ww1 ~ok:ws_same;
      prow ~workload:"difftest"
        ~mode:(Printf.sprintf "jobs-%d-ws10" jobs)
        ~jobs ~tasks:(programs * reps) ~wall:wwn ~cpu:wcn ~base:ww1
        ~ok:ws_same;
      prow ~workload:"table1" ~mode:"jobs-1" ~jobs:1 ~tasks:(n_attacks * reps)
        ~wall:tw1 ~cpu:tc1 ~base:tw1 ~ok:suite_same;
      prow ~workload:"table1"
        ~mode:(Printf.sprintf "jobs-%d" jobs)
        ~jobs ~tasks:(n_attacks * reps) ~wall:twn ~cpu:tcn ~base:tw1
        ~ok:suite_same;
    ]
  in
  pf "%-10s %-10s %9s %9s %9s %8s %12s\n" "Workload" "Mode" "wall [s]"
    "cpu [s]" "cpu/wall" "speedup" "tasks/s/wkr";
  List.iter
    (fun m ->
      let wall = float_of_int (Option.get m.D.m_wall_ns) /. 1e9 in
      let cpu = float_of_int (Option.get m.D.m_cpu_ns) /. 1e9 in
      pf "%-10s %-10s %9.3f %9.3f %9.2f %7.2fx %12.1f\n" m.D.m_workload
        m.D.m_mode wall cpu
        (if wall > 0. then cpu /. wall else 0.)
        (if m.D.m_overhead > 0. then 1. /. m.D.m_overhead else 0.)
        (Option.get m.D.m_worker_throughput))
    rows;
  pf "\njobs=1 vs jobs=%d difftest reports byte-identical: %s\n" jobs
    (if identical then "yes" else "NO -- DETERMINISM REGRESSION");
  pf "warm-start vs cold-boot reports byte-identical: %s\n"
    (if cold_same then "yes" else "NO");
  pf "jobs=1 vs jobs=%d fine-grain (shard_size=10) reports byte-identical: %s\n"
    jobs (if ws_same then "yes" else "NO -- DETERMINISM REGRESSION");
  pf "jobs=1 vs jobs=%d Table I results identical: %s\n" jobs
    (if suite_same then "yes" else "NO");
  pf "work stealing (table1, jobs=%d): %d worker(s), %d steal(s), tasks/worker [%s]\n"
    jobs steal_stats.Parallelkit.Pool.workers
    steal_stats.Parallelkit.Pool.steals
    (String.concat "; "
       (Array.to_list
          (Array.map string_of_int
             steal_stats.Parallelkit.Pool.tasks_per_worker)));
  let doc =
    D.doc
      ~extra:
        [
          ("host_domains", Jsonkit.Json.num_of_int host);
          ("jobs", Jsonkit.Json.num_of_int jobs);
          ("reps", Jsonkit.Json.num_of_int reps);
          ("warm_start", Jsonkit.Json.Bool warm);
          ("reports_identical", Jsonkit.Json.Bool identical);
          ("ws_reports_identical", Jsonkit.Json.Bool ws_same);
          ("steals", Jsonkit.Json.num_of_int steal_stats.Parallelkit.Pool.steals);
        ]
      ~bench:"parallel" ~scale:1. ~block_cache rows
  in
  (match D.validate doc with
  | Ok () -> ()
  | Error e -> pf "!! report failed schema validation: %s\n" e);
  Snapshot.Io.write_file_atomic "BENCH_parallel.json"
    (Jsonkit.Json.to_string doc ^ "\n");
  pf "\nwrote BENCH_parallel.json\n"

(* ------------------------------------------------------------------ *)
(* Graph-store analysis                                                 *)
(* ------------------------------------------------------------------ *)

(* The iftgraph subsystem measured end to end: run the mtvec-hijack trap
   scenario on VP+ with a graph sink attached, persist the .iftg store,
   then time Analyze ingestion (decode + index build), the first (cold)
   backward source-finding query and the memoized repeat. The warm row's
   query_ns is the memo-table hit the near-O(answer) claim rests on
   (docs/ift_graph.md); exit_ok on both rows asserts the whole chain —
   attack detected, cold query reaching a seed, repeat answered without
   another store read. *)
let bench_graph ~block_cache () =
  pf "=== Graph store: ingest + backward-query cost (mtvec hijack) ===\n\n";
  let scenario = Firmware.Trap_attacks.Mtvec_hijack in
  let img = Firmware.Trap_attacks.image scenario in
  let policy = Firmware.Trap_attacks.policy scenario img in
  let tracer = Trace.Tracer.create policy.Dift.Policy.lattice in
  let sink = Trace.Graph.attach ~context:"bench graph mtvec-hijack" tracer in
  let outcome = Firmware.Trap_attacks.run ~tracer scenario in
  let detected = outcome = Firmware.Trap_attacks.Detected in
  let store = Trace.Graph.finish sink in
  Trace.Graph.detach sink;
  let bytes = String.length (Iftgraph.Store.to_string store) in
  let nodes = Array.length store.Iftgraph.Store.nodes in
  let edges = Array.length store.Iftgraph.Store.edges in
  let dir = Filename.temp_dir "bench_graph" "" in
  let path = Filename.concat dir "trap_hijack.iftg" in
  Iftgraph.Store.write_file store path;
  let time f =
    let t0 = Benchkit.Clock.now_ns () in
    let v = f () in
    (v, Benchkit.Clock.now_ns () - t0)
  in
  let a = Iftgraph.Analyze.load_dir dir in
  let _, ingest_ns = time (fun () -> Iftgraph.Analyze.stores a) in
  let pred = Iftgraph.Query.P_violation 0 in
  let cold, cold_ns = time (fun () -> Iftgraph.Analyze.sources_of a pred) in
  let _, warm_ns = time (fun () -> Iftgraph.Analyze.sources_of a pred) in
  Sys.remove path;
  Unix.rmdir dir;
  let sources =
    List.fold_left
      (fun acc (_, b) -> acc + List.length b.Iftgraph.Query.bk_sources)
      0 cold
  in
  let memoized =
    Iftgraph.Analyze.memo_hits a >= 1
    && Iftgraph.Analyze.store_reads a = Iftgraph.Analyze.run_count a
  in
  let ok = detected && sources > 0 && memoized in
  pf "store: %d bytes, %d nodes, %d edges; attack %s\n" bytes nodes edges
    (if detected then "detected" else "MISSED");
  pf "ingest %.1f us; sources-of violation:0 -> %d source(s)\n"
    (float_of_int ingest_ns /. 1e3)
    sources;
  pf "query cold %.1f us, memoized %.1f us (%d store read(s) total)\n"
    (float_of_int cold_ns /. 1e3)
    (float_of_int warm_ns /. 1e3)
    (Iftgraph.Analyze.store_reads a);
  if not memoized then pf "!! repeat query was not served from the memo table\n";
  let row mode query_ns =
    D.graph_row ~exit_ok:ok ~workload:"trap-hijack" ~mode ~store_bytes:bytes
      ~ingest_ns ~query_ns ~nodes ~edges ()
  in
  let rows = [ row "analyze-cold" cold_ns; row "analyze-warm" warm_ns ] in
  write_report ~file:"BENCH_graph.json" ~bench:"graph" ~scale:1. ~block_cache
    rows

(* ------------------------------------------------------------------ *)

(* Reject a bad scale, count or workload list at parse time, before any
   measurement starts: a typo must not silently fall back to a full-size
   run. *)
let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0. -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_float)

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

let commands =
  [ "fig1"; "table1"; "table2"; "loc"; "ablate-dmi"; "ablate-policy";
    "ablate-lub"; "ablate-quantum"; "sweep-lattice"; "snapshot"; "parallel";
    "graph"; "table2-extended"; "all" ]

let run command scale no_block_cache trace no_warm_start jobs reps only =
  let block_cache = not no_block_cache in
  let warm = not no_warm_start in
  let jobs =
    match jobs with Some j -> j | None -> Parallelkit.Pool.default_jobs ()
  in
  match command with
  | "fig1" -> fig1 ()
  | "table1" -> table1 ~jobs ()
  | "table2" -> table2 ~scale ~block_cache ~trace ~only ()
  | "loc" -> loc_report ()
  | "ablate-dmi" -> ablate_dmi ~block_cache ()
  | "ablate-policy" -> ablate_policy ~block_cache ()
  | "ablate-lub" -> ablate_lub ~block_cache ()
  | "ablate-quantum" -> ablate_quantum ~block_cache ()
  | "sweep-lattice" -> sweep_lattice ~block_cache ()
  | "snapshot" -> bench_snapshot ~block_cache ()
  | "parallel" -> bench_parallel ~jobs ~warm ~reps ~block_cache ()
  | "graph" -> bench_graph ~block_cache ()
  | "table2-extended" -> table2_extended ~scale ~block_cache ~trace ~only ()
  | _ ->
      fig1 ();
      pf "\n";
      table1 ~jobs ();
      pf "\n";
      table2 ~scale:1. ~block_cache ~trace ~only ();
      pf "\n";
      loc_report ();
      pf "\n";
      ablate_dmi ~block_cache ();
      pf "\n";
      ablate_policy ~block_cache ();
      pf "\n";
      ablate_lub ~block_cache ();
      pf "\n";
      ablate_quantum ~block_cache ();
      pf "\n";
      sweep_lattice ~block_cache ();
      pf "\n";
      bench_snapshot ~block_cache ();
      pf "\n";
      bench_parallel ~jobs ~warm ~reps ~block_cache ();
      pf "\n";
      bench_graph ~block_cache ();
      pf "\n";
      table2_extended ~scale:1. ~block_cache ~trace ~only ()

let cmd =
  let open Cmdliner in
  let command =
    Arg.(value
         & pos 0 (enum (List.map (fun c -> (c, c)) commands)) "all"
         & info [] ~docv:"COMMAND"
             ~doc:
               (Printf.sprintf "What to measure: %s. $(b,all) runs everything."
                  (Arg.doc_alts commands)))
  in
  let scale =
    Arg.(value & pos 1 positive_float 1.
         & info [] ~docv:"SCALE"
             ~doc:"Workload scale for $(b,table2) / $(b,table2-extended): \
                   a positive number multiplying each workload's \
                   iteration count.")
  in
  let no_block_cache =
    Arg.(value & flag & info [ "no-block-cache" ]
           ~doc:"Measure the core's single-step reference instead of the \
                 superblock compiler.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Add a vp+trace row per workload (VP+ with the tracing \
                 subsystem attached) to $(b,table2) / $(b,table2-extended).")
  in
  let no_warm_start =
    Arg.(value & flag & info [ "no-warm-start" ]
           ~doc:"Cold-boot campaign SoCs instead of restoring the shared \
                 boot snapshot ($(b,parallel)).")
  in
  let jobs =
    Arg.(value & opt (some positive_int) None & info [ "jobs" ] ~docv:"N"
           ~doc:"Worker domains for $(b,table1) and $(b,parallel) \
                 (default: the runtime's recommended domain count).")
  in
  let reps =
    Arg.(value & opt positive_int 1 & info [ "reps" ] ~docv:"N"
           ~doc:"Repeat each $(b,parallel) row $(docv) times.")
  in
  let only =
    Arg.(value & opt (some (list string)) None & info [ "only" ]
           ~docv:"W1,W2,..."
           ~doc:"Restrict $(b,table2) / $(b,table2-extended) to the named \
                 workloads.")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"regenerate the paper's evaluation tables")
    Term.(const run $ command $ scale $ no_block_cache $ trace $ no_warm_start
          $ jobs $ reps $ only)

let () = exit (Cmdliner.Cmd.eval cmd)
