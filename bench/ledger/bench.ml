(* One workload measured in this process: set-up samples, one discarded
   warm-up pass, then timed passes until the requested time is spent.

   A pass runs every program of the workload on each leg: plain VP, VP+
   and VP+ with a tracer and graph sink. The traced run adds the
   vp+tags leg (same classification, no clearances), so the legs form a
   ladder whose steps are the cost of tags, of checks and of tracing. It
   alternates untraced passes, for the tracing overhead, with traced ones,
   which record spans and read the per-layer counters. *)

module W = Workload

type leg = Vp | Tags | Vpp | Trace

let leg_name = function
  | Vp -> "vp"
  | Tags -> "vp+tags"
  | Vpp -> "vp+"
  | Trace -> "vp+trace"

let budget = 500_000_000

(* The last slot counts every other routed target (RAM behind the DMA). *)
let tx_slot = function
  | "uart" -> 0
  | "sensor" -> 1
  | "can" -> 2
  | "aes" -> 3
  | "dma" -> 4
  | "plic" -> 5
  | "clint" -> 6
  | "gpio" -> 7
  | "wdt" -> 8
  | _ -> 9

(* What one leg observed. *)
type obs = {
  leg : leg;
  exit : int option;  (** [None]: violation, trap or budget exhausted. *)
  host_ok : bool;
  instret : int;
  sim_ns : float;
  deltas : int;
  uart : string;
  can : string list;
  violations : int;
  declassifications : int;
  checks : int;
  fast : int;
  blocks : int;
  superblocks : int;
  chain_hits : int;
  ic_hits : int;
  ic_misses : int;
  create_s : float;
  load_s : float;
  run_s : float;
  minor_words : float;
  major_collections : int;
  tx : int array;  (** Per {!tx_slot}; counted only when observed. *)
  events : int;
  store : Iftgraph.Store.t option;
  finish_s : float;
}

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** The first few, newest first. *)
}

let check c what ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if c.failed <= 10 then c.failures <- what :: c.failures
  end

type prepared = {
  prog : W.program;
  image : Rv32_asm.Image.t;
  policy : Dift.Policy.t;
  tags_policy : Dift.Policy.t;
}

let prepare (prog : W.program) =
  let image = prog.build () in
  let policy = prog.policy image in
  let tags_policy =
    Dift.Policy.make ~lattice:policy.Dift.Policy.lattice
      ~default_tag:policy.Dift.Policy.default_tag
      ~classification:policy.Dift.Policy.classification ()
  in
  { prog; image; policy; tags_policy }

let create p leg ?tracer monitor =
  let policy = if leg = Tags then p.tags_policy else p.policy in
  let aes_out_tag, aes_in_clearance =
    match p.prog.aes with
    | Some f ->
        let o, c = f policy in
        (Some o, Some c)
    | None -> (None, None)
  in
  Vp.Soc.create ~policy ~monitor ~tracking:(leg <> Vp)
    ?sensor_period:p.prog.sensor_period ?aes_out_tag ?aes_in_clearance ?tracer ()

let boot sp p leg ?tracer () =
  let monitor = Dift.Monitor.create p.policy.Dift.Policy.lattice in
  let soc, create_s =
    Spans.span sp "vp.create" (fun () -> create p leg ?tracer monitor)
  in
  let (), load_s =
    Spans.span sp "vp.load_image" (fun () -> Vp.Soc.load_image soc p.image)
  in
  (soc, monitor, create_s, load_s)

let run_leg sp ~observe p leg =
  fst @@ Spans.span sp ("leg." ^ leg_name leg)
  @@ fun () ->
  let tracer =
    if leg = Trace then Some (Trace.Tracer.create p.policy.Dift.Policy.lattice)
    else None
  in
  let sink = Option.map (Trace.Graph.attach ~context:p.prog.name) tracer in
  let soc, monitor, create_s, load_s = boot sp p leg ?tracer () in
  let host_ok =
    match p.prog.host with Some attach -> attach soc | None -> fun () -> true
  in
  let tx = Array.make (List.length Metric.tx_targets + 1) 0 in
  (* The tracer owns the router observer on its own leg. *)
  if observe && leg <> Trace then
    Tlm.Router.set_observer soc.Vp.Soc.router
      (Some
         (fun _ target ->
           let i = tx_slot target in
           tx.(i) <- tx.(i) + 1));
  let cpu = soc.Vp.Soc.cpu in
  cpu.Vp.Soc.cpu_set_max budget;
  Vp.Soc.start soc;
  (* No Gc.full_major before the timed run: on OCaml 5.1, explicit
     collections between platform runs leave the major GC's pacing behind
     the next burst of 1 MiB RAM allocations, and a 100-program campaign
     then peaks at 300-900 MB of RSS instead of about 70 MB. Every pass
     allocates the same, so the collector's share of a timed run is the
     same in every pass. *)
  let g0 = Gc.quick_stat () in
  let violated, run_s =
    Spans.span sp "vp.run" (fun () ->
        match Vp.Soc.run soc with
        | () -> false
        | exception Dift.Violation.Violation _ -> true)
  in
  let g1 = Gc.quick_stat () in
  let store, finish_s =
    match sink with
    | None -> (None, 0.)
    | Some s ->
        let store, d = Spans.span sp "trace.finish" (fun () -> Trace.Graph.finish s) in
        Trace.Graph.detach s;
        (Some store, d)
  in
  {
    leg;
    exit =
      (match cpu.Vp.Soc.cpu_exit () with
      | Rv32.Core.Exited c when not violated -> Some c
      | _ -> None);
    host_ok = host_ok ();
    instret = cpu.Vp.Soc.cpu_instret ();
    sim_ns = Sysc.Time.to_ns (Sysc.Kernel.now soc.Vp.Soc.kernel);
    deltas = Sysc.Kernel.delta_count soc.Vp.Soc.kernel;
    uart = Vp.Uart.tx_string soc.Vp.Soc.uart;
    can = Vp.Can.tx_frames soc.Vp.Soc.can;
    violations = Dift.Monitor.violation_count monitor;
    declassifications = Dift.Monitor.declassification_count monitor;
    checks = Dift.Monitor.check_count monitor;
    fast = cpu.Vp.Soc.cpu_fast_retired ();
    blocks = cpu.Vp.Soc.cpu_blocks_built ();
    superblocks = cpu.Vp.Soc.cpu_superblocks_built ();
    chain_hits = cpu.Vp.Soc.cpu_chain_hits ();
    ic_hits = cpu.Vp.Soc.cpu_ic_hits ();
    ic_misses = cpu.Vp.Soc.cpu_ic_misses ();
    create_s;
    load_s;
    run_s;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    tx;
    events = Option.fold ~none:0 ~some:Trace.Tracer.events_recorded tracer;
    store;
    finish_s;
  }

(* Set-up time: what a user waits for before the first instruction. For
   the firmware workloads that is building every image and creating and
   loading its VP+ platform; for the campaign it is the shared warm-boot
   snapshot. *)
let setup_sample sp (w : W.t) =
  snd
  @@ Spans.span sp "setup"
  @@ fun () ->
  match w.campaign with
  | Some _ ->
      ignore (Spans.span sp "snapshot.warm_boot" Difftest.Oracle.warm_boot)
  | None ->
      List.iter
        (fun prog ->
          let p, _ = Spans.span sp "firmware.build" (fun () -> prepare prog) in
          ignore (boot sp p Vpp ()))
        w.programs

type ctx = {
  w : W.t;
  sp : Spans.t;
  prepared : prepared list;
  chk : checks;
  tmp : string;  (** Scratch directory for graph stores. *)
  mutable report : string option;  (** The first pass's campaign report. *)
  mutable digest : string option;
}

(* Table I plus the two trap attacks, each with a graph sink: 10 + 2
   detected and 8 N/A, and every detected store walks its first violation
   back to at least one source. *)
let attack_suite ctx sp b =
  let chk = ctx.chk in
  let traced name policy run =
    let tracer = Trace.Tracer.create policy.Dift.Policy.lattice in
    let sink = Trace.Graph.attach ~context:name tracer in
    let detected = run tracer in
    let store = Trace.Graph.finish sink in
    Trace.Graph.detach sink;
    Printf.bprintf b "%s %b\n" name detected;
    if detected then begin
      let file = Filename.concat ctx.tmp (name ^ Iftgraph.Analyze.store_ext) in
      Iftgraph.Store.write_file store file;
      Some file
    end
    else None
  in
  let wilander =
    List.filter_map
      (fun a ->
        let id = a.Firmware.Wilander.id in
        let name = Printf.sprintf "wilander-%02d" id in
        fst @@ Spans.span sp "attack.run"
        @@ fun () ->
        match Firmware.Wilander.image_for id with
        | None ->
            let na = Firmware.Wilander.run id = Firmware.Wilander.Not_applicable in
            Printf.bprintf b "%s n/a\n" name;
            check chk (name ^ " N/A") na;
            None
        | Some img ->
            let file =
              traced name (Firmware.Wilander.policy img) (fun tracer ->
                  Firmware.Wilander.run ~tracer id = Firmware.Wilander.Detected)
            in
            check chk (name ^ " detected") (file <> None);
            file)
      Firmware.Wilander.attacks
  in
  let traps =
    List.filter_map
      (fun s ->
        let name = Firmware.Trap_attacks.name s in
        fst @@ Spans.span sp "attack.run"
        @@ fun () ->
        let img = Firmware.Trap_attacks.image s in
        let file =
          traced name (Firmware.Trap_attacks.policy s img) (fun tracer ->
              Firmware.Trap_attacks.run ~tracer s = Firmware.Trap_attacks.Detected)
        in
        check chk (name ^ " detected") (file <> None);
        file)
      Firmware.Trap_attacks.scenarios
  in
  let files = wilander @ traps in
  check chk "10 + 2 attacks detected"
    (List.length wilander = 10 && List.length traps = 2);
  let sources, _ =
    Spans.span sp "attack.analyze" (fun () ->
        Iftgraph.Analyze.sources_of (Iftgraph.Analyze.create files)
          (Iftgraph.Query.P_violation 0))
  in
  List.iter
    (fun file ->
      let base = Filename.basename file in
      check chk (base ^ " has a source")
        (match List.assoc_opt base sources with
        | Some back -> back.Iftgraph.Query.bk_sources <> []
        | None -> false);
      Sys.remove file)
    files

let find_leg leg obs = List.find (fun o -> o.leg = leg) obs
let sum f l = List.fold_left (fun a o -> a +. f o) 0. l
let sumi f l = float_of_int (List.fold_left (fun a o -> a + f o) 0 l)
let ratio a b = if b = 0. then 0. else a /. b
let run_s l = sum (fun o -> o.run_s) l
let mips l = ratio (sumi (fun o -> o.instret) l) (run_s l) /. 1e6

(* One leg's observations across the pass's programs. *)
let legs_of leg runs = List.map (fun (_, obs) -> find_leg leg obs) runs

(* The difftest replica: the seed's first programs, each call of the
   campaign's inner loop timed on its own. *)
let replica ctx sp (config : Difftest.Harness.config) =
  let rng = Difftest.Rng.create ~seed:config.seed in
  let cov = Difftest.Coverage.create () in
  let warm = Difftest.Oracle.warm_boot () in
  let t = Array.make 5 0. and insns = ref 0 in
  let timed i name f =
    let v, d = Spans.span sp ("difftest." ^ name) f in
    t.(i) <- t.(i) +. d;
    v
  in
  for _ = 1 to ctx.w.replica do
    let prog =
      timed 0 "gen" (fun () -> Difftest.Gen.program rng cov ~size:config.size)
    in
    let img = timed 1 "assemble" (fun () -> Difftest.Prog.assemble prog) in
    let g = timed 2 "golden" (fun () -> Difftest.Oracle.run_golden img) in
    let v, _ =
      timed 3 "vp" (fun () -> Difftest.Oracle.run_vp ~tracking:false ~warm img)
    in
    let vv, _ = timed 4 "vpp" (fun () -> Difftest.Oracle.run_vp ~tracking:true img) in
    check ctx.chk "replica models agree"
      (Difftest.Oracle.agree g v && Difftest.Oracle.agree v vv);
    insns := !insns + g.Difftest.Oracle.instret
  done;
  let n = float_of_int ctx.w.replica in
  List.mapi
    (fun i name -> ("difftest." ^ name ^ "_s", t.(i)))
    [ "gen"; "assemble"; "golden"; "vp"; "vpp" ]
  @ [ ("difftest.insns_per_program", float_of_int !insns /. n) ]

(* Per-layer numbers of one traced pass. *)
let layers ctx sp runs =
  let chk = ctx.chk in
  let (), build_s =
    Spans.span sp "firmware.build" (fun () ->
        List.iter
          (fun p ->
            check chk (p.prog.name ^ " rebuilds identically")
              (Bytes.equal (p.prog.build ()).Rv32_asm.Image.code
                 p.image.Rv32_asm.Image.code))
          ctx.prepared)
  in
  let vp = legs_of Vp runs and tags = legs_of Tags runs in
  let vpp = legs_of Vpp runs and tr = legs_of Trace runs in
  let all = vp @ tags @ vpp @ tr in
  let instret = sumi (fun o -> o.instret) vp in
  let minsn = instret /. 1e6 and kinsn = instret /. 1e3 in
  let per_call f = sum f all /. float_of_int (List.length all) in
  let stores = List.filter_map (fun o -> o.store) tr in
  let store_sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stores) in
  let encoded, encode_s =
    Spans.span sp "iftgraph.encode" (fun () ->
        List.map Iftgraph.Store.to_string stores)
  in
  let files =
    List.mapi
      (fun i data ->
        let file =
          Filename.concat ctx.tmp
            (Printf.sprintf "ladder-%02d%s" i Iftgraph.Analyze.store_ext)
        in
        Out_channel.with_open_bin file (fun oc -> output_string oc data);
        file)
      encoded
  in
  let analyzer = Iftgraph.Analyze.create files in
  let _, ingest_s =
    Spans.span sp "iftgraph.ingest" (fun () -> Iftgraph.Analyze.stores analyzer)
  in
  (* Where did data of the highest class come from? Asked twice: the
     repeat must be served from the memo table. *)
  let tops =
    List.sort_uniq compare
      (List.filter_map
         (fun p ->
           let lat = p.policy.Dift.Policy.lattice in
           Option.map (Dift.Lattice.name lat) (Dift.Lattice.top lat))
         ctx.prepared)
  in
  let query () =
    List.iter
      (fun top ->
        ignore (Iftgraph.Analyze.sources_of analyzer (Iftgraph.Query.P_tag top)))
      tops
  in
  let (), query_s = Spans.span sp "iftgraph.query" query in
  query ();
  List.iter Sys.remove files;
  (* The call fuzz-campaign's setup_s times. The blob's type is abstract,
     so its size is read as the heap bytes it occupies. *)
  let blob, warm_boot_s =
    Spans.span sp "snapshot.warm_boot" Difftest.Oracle.warm_boot
  in
  let tx i = sumi (fun o -> o.tx.(i)) vp in
  [
    ("firmware.build_s", build_s);
    ("vp.create_s", per_call (fun o -> o.create_s));
    ("vp.load_image_s", per_call (fun o -> o.load_s));
    ("vp.run_s.vp", run_s vp);
    ("vp.run_s.vpp", run_s vpp);
    ("vp.run_s.trace", run_s tr);
    ("rv32.instret", instret);
    ( "rv32.fast_share",
      ratio (sumi (fun o -> o.fast) vpp) (sumi (fun o -> o.instret) vpp) );
    ("rv32.blocks_built", sumi (fun o -> o.blocks) vp);
    ("rv32.superblocks_built", sumi (fun o -> o.superblocks) vp);
    ("rv32.insns_per_block_built", ratio instret (sumi (fun o -> o.blocks) vp));
    ("rv32.chain_hits_per_kinsn", ratio (sumi (fun o -> o.chain_hits) vp) kinsn);
    ( "rv32.ic_hit_ratio",
      ratio
        (sumi (fun o -> o.ic_hits) vp)
        (sumi (fun o -> o.ic_hits + o.ic_misses) vp) );
    ("rv32.base_s_per_minsn", run_s vp /. minsn);
    ("dift.tags_s_per_minsn", (run_s tags -. run_s vp) /. minsn);
    ("dift.checks_s_per_minsn", (run_s vpp -. run_s tags) /. minsn);
    ("dift.checks_per_insn", ratio (sumi (fun o -> o.checks) vpp) instret);
    ("dift.violations", sumi (fun o -> o.violations) vpp);
    ("dift.declassifications", sumi (fun o -> o.declassifications) vpp);
    ("sysc.sim_ns", sum (fun o -> o.sim_ns) vp);
    ("sysc.deltas_per_kinsn", ratio (sumi (fun o -> o.deltas) vp) kinsn);
    ("sysc.rtf", ratio (sum (fun o -> o.sim_ns) vp /. 1e9) (run_s vp));
    ( "tlm.tx_per_kinsn",
      ratio (sumi (fun o -> Array.fold_left ( + ) 0 o.tx) vp) kinsn );
  ]
  @ List.mapi (fun i t -> ("tlm.tx." ^ t, tx i)) Metric.tx_targets
  @ [
      ("trace.s_per_minsn", (run_s tr -. run_s vpp) /. minsn);
      ("trace.events_per_insn", ratio (sumi (fun o -> o.events) tr) instret);
      ("trace.graph_nodes", store_sum (fun s -> Array.length s.Iftgraph.Store.nodes));
      ("trace.graph_edges", store_sum (fun s -> Array.length s.Iftgraph.Store.edges));
      ( "trace.dropped",
        store_sum (fun s ->
            s.Iftgraph.Store.meta.dropped_edges
            + s.Iftgraph.Store.meta.dropped_sources) );
      ("trace.finish_s", sum (fun o -> o.finish_s) tr);
      ( "iftgraph.store_bytes",
        float_of_int (List.fold_left (fun a s -> a + String.length s) 0 encoded) );
      ("iftgraph.encode_s", encode_s);
      ("iftgraph.ingest_s", ingest_s);
      ("iftgraph.query_s", query_s);
      ("iftgraph.memo_hits", float_of_int (Iftgraph.Analyze.memo_hits analyzer));
      ("snapshot.warm_boot_s", warm_boot_s);
      ( "snapshot.blob_bytes",
        float_of_int (Obj.reachable_words (Obj.repr blob) * (Sys.word_size / 8)) );
      ("host.minor_words_per_insn", ratio (sum (fun o -> o.minor_words) vpp) instret);
      ("host.major_collections", sumi (fun o -> o.major_collections) all);
      ("ladder.vp_mips", mips vp);
      ("ladder.tags_mips", mips tags);
      ("ladder.vpp_mips", mips vpp);
      ("ladder.trace_mips", mips tr);
    ]
  @ match ctx.w.campaign with Some c -> replica ctx sp c | None -> []

type pass = {
  e2e : (string * float) list;  (** Every end-to-end metric but set-up and RSS. *)
  layer : (string * float) list;  (** Traced passes only. *)
}

let run_pass ctx ~index ~traced =
  let sp = if traced then ctx.sp else Spans.create ~enabled:false in
  Spans.set_run sp index;
  fst @@ Spans.span sp "pass"
  @@ fun () ->
  let chk = ctx.chk in
  (* Odd passes run programs and legs in reverse, so neither order's
     warm caches favour one leg. *)
  let order l = if index land 1 = 1 then List.rev l else l in
  let legs = if traced then [ Vp; Tags; Vpp; Trace ] else [ Vp; Vpp; Trace ] in
  let runs =
    order
      (List.map
         (fun p ->
           let obs, _ =
             Spans.span sp ("program." ^ p.prog.name) (fun () ->
                 List.map (run_leg sp ~observe:traced p) (order legs))
           in
           (p, order obs))
         (order ctx.prepared))
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (p, obs) ->
      let name = p.prog.name in
      List.iter
        (fun o ->
          let what = name ^ " " ^ leg_name o.leg in
          check chk (what ^ " exits as expected")
            (match p.prog.expect_exit with
            | Some c -> o.exit = Some c
            | None -> o.exit <> None);
          if o.leg <> Vp then check chk (what ^ " records no violation") (o.violations = 0);
          if p.prog.host <> None then check chk (what ^ " host outputs") o.host_ok)
        obs;
      let v = find_leg Vp obs and vv = find_leg Vpp obs in
      check chk (name ^ " legs agree")
        (List.for_all
           (fun o ->
             o.exit = v.exit && o.instret = v.instret && o.sim_ns = v.sim_ns
             && o.uart = v.uart && o.can = v.can)
           obs);
      Printf.bprintf b "%s exit=%s instret=%d sim_ns=%.0f violations=%d declass=%d\n%s\n%s\n"
        name
        (Option.fold ~none:"-" ~some:string_of_int v.exit)
        v.instret v.sim_ns vv.violations vv.declassifications v.uart
        (String.concat "|" v.can))
    runs;
  let programs_per_s =
    match ctx.w.campaign with
    | Some config ->
        let report, s =
          Spans.span sp "difftest.harness" (fun () -> Difftest.Harness.run ~config ())
        in
        let text = Format.asprintf "%a" Difftest.Harness.pp_report report in
        check chk "campaign healthy" (Difftest.Harness.healthy report);
        check chk "campaign completed"
          (report.Difftest.Harness.completed = config.programs);
        (match ctx.report with
        | None -> ctx.report <- Some text
        | Some first -> check chk "campaign report identical across passes" (first = text));
        Buffer.add_string b text;
        float_of_int config.programs /. s
    | None ->
        let l = legs_of Vp runs @ legs_of Vpp runs in
        float_of_int (List.length l)
        /. sum (fun o -> o.create_s +. o.load_s +. o.run_s) l
  in
  if ctx.w.attacks then attack_suite ctx sp b;
  let digest = Digest.to_hex (Digest.string (Buffer.contents b)) in
  (match ctx.digest with
  | None -> ctx.digest <- Some digest
  | Some first -> check chk "sim_digest identical across passes" (first = digest));
  let vp = legs_of Vp runs and vpp = legs_of Vpp runs in
  let e2e =
    [
      ("vp_mips", mips vp);
      ("vpp_mips", mips vpp);
      ("dift_overhead", ratio (run_s vpp) (run_s vp));
      ("trace_mips", mips (legs_of Trace runs));
      ("programs_per_s", programs_per_s);
    ]
  in
  { e2e; layer = (if traced then layers ctx sp runs else []) }

(* Peak resident set of this process: VmHWM, which only Linux reports. *)
let max_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM line in /proc/self/status"
        | Some line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> scan ())
      in
      scan ())

(* What one process measured. A run pools {!processes} parts, each
   measured in a process of its own and handed to the parent with
   [Marshal] (both run the same executable). *)
type part = {
  warm : int;  (** Discarded warm-up passes. *)
  untraced : pass list;  (** In measurement order. *)
  with_trace : pass list;
  setup : float list;
  rss_mb : float;
  chk : checks;
  sim_digest : string;
  recorded : Spans.span list;
}

(* Each process lays out code and heap at its own random addresses, and
   the layout alone moves the VP's speed by about 10 %. Pooling the passes
   of several processes averages over layouts: on clean-compute, on a
   shared 2-vCPU host in a quiet hour, this took the quartile spread of
   vp_mips over ten runs from 15 % to 1.4 %. *)
let processes = 4

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Timed passes alternate with set-up samples, so both see the same
   phases of a shared host. Discarded warm-up passes run first, for a fifth
   of the measured time (at most 3 s, at least one pass): the first passes
   of a process run slower while its heap and the allocator settle. *)
let measure ~seconds ~trace ~size ~work_dir (w : W.t) =
  let sp = Spans.create ~enabled:trace in
  let chk = { attempted = 0; failed = 0; failures = [] } in
  mkdir_p work_dir;
  let tmp = Filename.temp_dir ~temp_dir:work_dir ("tmp-" ^ w.name) "" in
  let ctx =
    { w; sp; prepared = List.map prepare w.programs; chk; tmp; report = None; digest = None }
  in
  let run_id = ref 0 in
  let next_run () =
    incr run_id;
    Spans.set_run sp !run_id;
    !run_id
  in
  let min_passes = W.pick size 3 1 in
  let setup_per_pass = W.pick size 10 3 in
  let t0 = Spans.now () in
  let warm = Float.min 3. (seconds /. 5.) and warmup = ref 0 in
  while
    ignore (run_pass ctx ~index:(next_run ()) ~traced:false);
    incr warmup;
    Spans.now () -. t0 < warm
  do
    ()
  done;
  let untraced = ref [] and traced = ref [] and setup = ref [] in
  let t0 = Spans.now () in
  while Spans.now () -. t0 < seconds || List.length !untraced < min_passes do
    untraced := run_pass ctx ~index:(next_run ()) ~traced:false :: !untraced;
    if trace then traced := run_pass ctx ~index:(next_run ()) ~traced:true :: !traced;
    for _ = 1 to setup_per_pass do
      ignore (next_run ());
      setup := setup_sample sp w :: !setup
    done
  done;
  Sys.rmdir tmp;
  {
    warm = !warmup;
    untraced = List.rev !untraced;
    with_trace = List.rev !traced;
    setup = List.rev !setup;
    rss_mb = max_rss_mb ();
    chk;
    sim_digest = Option.value ~default:"" ctx.digest;
    recorded = Spans.spans sp;
  }

type result = {
  workload : string;
  seed : int;
  size : W.size;
  traced : bool;
  processes : int;
  warmup : int;  (** Discarded warm-up passes, over all processes. *)
  passes : int;  (** Timed untraced passes. *)
  traced_passes : int;
  metrics : (Metric.spec * Metric.summary) list;
      (** The end-to-end metrics, then fail_rate. *)
  layers : (Metric.spec * Metric.summary) list;  (** Traced run only. *)
  attempted : int;
  failed : int;
  failures : string list;
  digest : string;
  spans : Spans.span list;
}

(* One result from the parts of a run. Timings are summarized over the
   passes of every part, max_rss_mb over the parts' peaks; the parts must
   agree on sim_digest. *)
let combine ~trace ~size ~seed (w : W.t) parts =
  let chk =
    List.fold_left
      (fun (acc : checks) p ->
        {
          attempted = acc.attempted + p.chk.attempted;
          failed = acc.failed + p.chk.failed;
          failures = p.chk.failures @ acc.failures;
        })
      { attempted = 0; failed = 0; failures = [] }
      parts
  in
  let digest = (List.hd parts).sim_digest in
  List.iter
    (fun p -> check chk "sim_digest identical across processes" (p.sim_digest = digest))
    (List.tl parts);
  let untraced = List.concat_map (fun p -> p.untraced) parts in
  let traced = List.concat_map (fun p -> p.with_trace) parts in
  let summarize passes field name =
    Metric.summarize (List.map (fun p -> List.assoc name (field p)) passes)
  in
  let e2e = List.map fst (List.hd untraced).e2e in
  let metrics =
    List.map (fun name -> (Metric.find name, summarize untraced (fun p -> p.e2e) name)) e2e
    @ [
        (Metric.find "setup_s", Metric.summarize (List.concat_map (fun p -> p.setup) parts));
        (Metric.find "max_rss_mb", Metric.summarize (List.map (fun p -> p.rss_mb) parts));
        ( Metric.fail_rate,
          Metric.summarize
            [ float_of_int chk.failed /. float_of_int (max 1 chk.attempted) ] );
      ]
  in
  let layers =
    match traced with
    | [] -> []
    | p :: _ ->
        List.map
          (fun (name, _) -> (Metric.find name, summarize traced (fun p -> p.layer) name))
          p.layer
  in
  {
    workload = w.name;
    seed;
    size;
    traced = trace;
    processes = List.length parts;
    warmup = List.fold_left (fun a p -> a + p.warm) 0 parts;
    passes = List.length untraced;
    traced_passes = List.length traced;
    metrics;
    layers;
    attempted = chk.attempted;
    failed = chk.failed;
    failures = List.rev chk.failures;
    digest;
    spans = Spans.concat (List.map (fun p -> p.recorded) parts);
  }
