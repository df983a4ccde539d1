module Json = Jsonkit.Json

type def = {
  d_name : string;
  make_image : unit -> Rv32_asm.Image.t;
  make_policy : Rv32_asm.Image.t -> Dift.Policy.t;
  setup : Vp.Soc.t -> unit;
  sensor_period : Sysc.Time.t option;
  aes : Rv32_asm.Image.t -> (Dift.Lattice.tag * Dift.Lattice.tag) option;
}

let scaled scale base =
  max 1 (int_of_float ((float_of_int base *. scale) +. 0.5))

(* The default benchmark policy: the code-injection setup of Section VI-B
   (program HI, fetch clearance HI) — a representative always-on check. *)
let integrity_policy img =
  let lat = Dift.Lattice.integrity () in
  let hi = Dift.Lattice.tag_of_name lat "HI" in
  let li = Dift.Lattice.tag_of_name lat "LI" in
  Dift.Policy.make ~lattice:lat ~default_tag:li
    ~classification:
      [
        Dift.Policy.region ~name:"program" ~lo:img.Rv32_asm.Image.org
          ~hi:(Rv32_asm.Image.limit img - 1) ~tag:hi;
      ]
    ~exec_fetch:hi ()

let plain name ~make_image =
  {
    d_name = name;
    make_image;
    make_policy = integrity_policy;
    setup = (fun _ -> ());
    sensor_period = None;
    aes = (fun _ -> None);
  }

(* Host side of the immobilizer: keep feeding challenges. *)
let auto_engine ~challenges soc =
  let sent = ref 1 and frames = ref 0 in
  Vp.Can.set_tx_callback soc.Vp.Soc.can (fun _ ->
      incr frames;
      if !frames mod 2 = 0 && !sent < challenges then begin
        incr sent;
        Vp.Can.push_rx_frame soc.Vp.Soc.can (Printf.sprintf "CH%06d" !sent)
      end);
  Vp.Can.push_rx_frame soc.Vp.Soc.can "CH000000"

let table2 ~scale =
  let s = scaled scale in
  [
    plain "hello" ~make_image:(fun () ->
        Firmware.Extra_fw.hello_image ~rounds:(s 5000) ());
    plain "dispatch" ~make_image:(fun () ->
        Firmware.Extra_fw.dispatch_image ~rounds:(s 120000) ());
    plain "qsort" ~make_image:(fun () ->
        Firmware.Qsort_fw.image ~n:1000 ~rounds:(s 4) ());
    plain "dhrystone" ~make_image:(fun () ->
        Firmware.Dhrystone_fw.image ~iterations:(s 8000) ());
    plain "primes" ~make_image:(fun () -> Firmware.Primes_fw.image ~n:(s 4000) ());
    plain "sha512" ~make_image:(fun () ->
        Firmware.Sha_fw.image ~message_len:(s 16384) ());
    {
      (plain "simple-sensor" ~make_image:(fun () ->
           Firmware.Sensor_fw.image ~frames:(s 600) ()))
      with
      sensor_period = Some (Sysc.Time.us 20);
    };
    plain "freertos-tasks" ~make_image:(fun () ->
        Firmware.Rtos_fw.image ~switches:(s 400) ~slice_ticks:20 ());
    {
      d_name = "immo-fixed";
      make_image =
        (fun () ->
          Firmware.Immo_fw.image
            ~variant:(Firmware.Immo_fw.Normal { fixed_dump = true })
            ~challenges:(s 300) ());
      make_policy = Firmware.Immo_fw.base_policy;
      setup = (fun soc -> auto_engine ~challenges:(s 300) soc);
      sensor_period = None;
      aes =
        (fun img ->
          Some (Firmware.Immo_fw.aes_args (Firmware.Immo_fw.base_policy img)));
    };
  ]

let extended ~scale =
  let s = scaled scale in
  [
    plain "crc32" ~make_image:(fun () ->
        Firmware.Extra_fw.crc32_image ~len:(s 8192) ());
    plain "matmul" ~make_image:(fun () ->
        Firmware.Extra_fw.matmul_image ~n:(s 24) ());
    plain "strings" ~make_image:(fun () ->
        Firmware.Extra_fw.strings_image ~count:(s 512) ());
    plain "aes-sw" ~make_image:(fun () -> Firmware.Aes_sw_fw.image ());
  ]

(* --- Measurement ----------------------------------------------------- *)

type raw = {
  raw_instructions : int;
  raw_seconds : float;
  raw_fast : int;
  raw_blocks : int;
  raw_superblocks : int;
  raw_chain : int;
  raw_ic_hits : int;
  raw_ic_misses : int;
  raw_exit_ok : bool;
}

let run_def ?(block_cache = true) ?(trace = false) ~tracking def =
  let img = def.make_image () in
  let policy = def.make_policy img in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let aes_out_tag, aes_in_clearance =
    match def.aes img with
    | Some (o, c) -> (Some o, Some c)
    | None -> (None, None)
  in
  let tracer =
    if trace then Some (Trace.Tracer.create policy.Dift.Policy.lattice)
    else None
  in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking ~block_cache
      ?sensor_period:def.sensor_period ?aes_out_tag ?aes_in_clearance ?tracer ()
  in
  Vp.Soc.load_image soc img;
  def.setup soc;
  soc.Vp.Soc.cpu.Vp.Soc.cpu_set_max 500_000_000;
  Vp.Soc.start soc;
  let t0 = Clock.now_s () in
  Vp.Soc.run soc;
  let dt = Clock.now_s () -. t0 in
  let exit_ok =
    match soc.Vp.Soc.cpu.Vp.Soc.cpu_exit () with
    | Rv32.Core.Exited 0 -> true
    | _ -> false
  in
  {
    raw_instructions = soc.Vp.Soc.cpu.Vp.Soc.cpu_instret ();
    raw_seconds = dt;
    raw_fast = soc.Vp.Soc.cpu.Vp.Soc.cpu_fast_retired ();
    raw_blocks = soc.Vp.Soc.cpu.Vp.Soc.cpu_blocks_built ();
    raw_superblocks = soc.Vp.Soc.cpu.Vp.Soc.cpu_superblocks_built ();
    raw_chain = soc.Vp.Soc.cpu.Vp.Soc.cpu_chain_hits ();
    raw_ic_hits = soc.Vp.Soc.cpu.Vp.Soc.cpu_ic_hits ();
    raw_ic_misses = soc.Vp.Soc.cpu.Vp.Soc.cpu_ic_misses ();
    raw_exit_ok = exit_ok;
  }

type measurement = {
  m_workload : string;
  m_mode : string;
  m_instructions : int;
  m_seconds : float;
  m_mips : float;
  m_overhead : float;
  m_fast_retired : int;
  m_blocks_built : int;
  m_superblocks : int option;
  m_chain_hits : int option;
  m_ic_hits : int option;
  m_ic_misses : int option;
  m_loc_asm : int;
  m_exit_ok : bool;
  m_trace : bool;
  m_jobs : int option;
  m_wall_ns : int option;
  m_cpu_ns : int option;
  m_worker_throughput : float option;
  m_store_bytes : int option;
  m_ingest_ns : int option;
  m_query_ns : int option;
  m_nodes : int option;
  m_edges : int option;
}

let mips instructions seconds =
  if seconds > 0. then float_of_int instructions /. seconds /. 1e6 else 0.

let measurement_of_raw ?(trace = false) ~workload ~mode ~overhead ~loc_asm r =
  {
    m_workload = workload;
    m_mode = mode;
    m_instructions = r.raw_instructions;
    m_seconds = r.raw_seconds;
    m_mips = mips r.raw_instructions r.raw_seconds;
    m_overhead = overhead;
    m_fast_retired = r.raw_fast;
    m_blocks_built = r.raw_blocks;
    m_superblocks = Some r.raw_superblocks;
    m_chain_hits = Some r.raw_chain;
    m_ic_hits = Some r.raw_ic_hits;
    m_ic_misses = Some r.raw_ic_misses;
    m_loc_asm = loc_asm;
    m_exit_ok = r.raw_exit_ok;
    m_trace = trace;
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

let parallel_row ?(exit_ok = true) ~workload ~mode ~jobs ~tasks ~instructions
    ~wall_ns ~cpu_ns ~overhead () =
  let secs = float_of_int wall_ns /. 1e9 in
  {
    m_workload = workload;
    m_mode = mode;
    m_instructions = instructions;
    m_seconds = secs;
    m_mips = mips instructions secs;
    m_overhead = overhead;
    m_fast_retired = 0;
    m_blocks_built = 0;
    m_superblocks = None;
    m_chain_hits = None;
    m_ic_hits = None;
    m_ic_misses = None;
    m_loc_asm = 0;
    m_exit_ok = exit_ok;
    m_trace = false;
    m_jobs = Some jobs;
    m_wall_ns = Some wall_ns;
    m_cpu_ns = Some cpu_ns;
    m_worker_throughput =
      Some
        (if secs > 0. && jobs > 0 then
           float_of_int tasks /. secs /. float_of_int jobs
         else 0.);
    m_store_bytes = None;
    m_ingest_ns = None;
    m_query_ns = None;
    m_nodes = None;
    m_edges = None;
  }

let graph_row ?(exit_ok = true) ~workload ~mode ~store_bytes ~ingest_ns
    ~query_ns ~nodes ~edges () =
  let secs = float_of_int (ingest_ns + query_ns) /. 1e9 in
  {
    m_workload = workload;
    m_mode = mode;
    m_instructions = 0;
    m_seconds = secs;
    m_mips = 0.;
    m_overhead = 1.;
    m_fast_retired = 0;
    m_blocks_built = 0;
    m_superblocks = None;
    m_chain_hits = None;
    m_ic_hits = None;
    m_ic_misses = None;
    m_loc_asm = 0;
    m_exit_ok = exit_ok;
    m_trace = false;
    m_jobs = None;
    m_wall_ns = None;
    m_cpu_ns = None;
    m_worker_throughput = None;
    m_store_bytes = Some store_bytes;
    m_ingest_ns = Some ingest_ns;
    m_query_ns = Some query_ns;
    m_nodes = Some nodes;
    m_edges = Some edges;
  }

let measure ?(block_cache = true) ?(trace = false) def =
  let vp = run_def ~block_cache ~tracking:false def in
  let vpp = run_def ~block_cache ~tracking:true def in
  let loc_asm = (def.make_image ()).Rv32_asm.Image.insn_count in
  let rel r = if vp.raw_seconds > 0. then r.raw_seconds /. vp.raw_seconds else 1. in
  let base =
    [
      measurement_of_raw ~workload:def.d_name ~mode:"vp" ~overhead:1. ~loc_asm
        vp;
      measurement_of_raw ~workload:def.d_name ~mode:"vp+" ~overhead:(rel vpp)
        ~loc_asm vpp;
    ]
  in
  if not trace then base
  else
    let vpt = run_def ~block_cache ~trace:true ~tracking:true def in
    base
    @ [
        measurement_of_raw ~trace:true ~workload:def.d_name ~mode:"vp+trace"
          ~overhead:(rel vpt) ~loc_asm vpt;
      ]

(* --- Report document -------------------------------------------------- *)

let row m =
  let opt name v f = match v with None -> [] | Some x -> [ (name, f x) ] in
  Json.Obj
    ([
       ("workload", Json.Str m.m_workload);
       ("mode", Json.Str m.m_mode);
       ("instructions", Json.num_of_int m.m_instructions);
       ("seconds", Json.Num m.m_seconds);
       ("mips", Json.Num m.m_mips);
       ("overhead", Json.Num m.m_overhead);
       ("fast_retired", Json.num_of_int m.m_fast_retired);
       ("blocks_built", Json.num_of_int m.m_blocks_built);
       ("loc_asm", Json.num_of_int m.m_loc_asm);
       ("exit_ok", Json.Bool m.m_exit_ok);
       ("trace", Json.Bool m.m_trace);
     ]
    @ opt "superblocks_built" m.m_superblocks Json.num_of_int
    @ opt "chain_hits" m.m_chain_hits Json.num_of_int
    @ opt "ic_hits" m.m_ic_hits Json.num_of_int
    @ opt "ic_misses" m.m_ic_misses Json.num_of_int
    @ opt "jobs" m.m_jobs Json.num_of_int
    @ opt "wall_ns" m.m_wall_ns Json.num_of_int
    @ opt "cpu_ns" m.m_cpu_ns Json.num_of_int
    @ opt "worker_throughput" m.m_worker_throughput (fun x -> Json.Num x)
    @ opt "store_bytes" m.m_store_bytes Json.num_of_int
    @ opt "ingest_ns" m.m_ingest_ns Json.num_of_int
    @ opt "query_ns" m.m_query_ns Json.num_of_int
    @ opt "nodes" m.m_nodes Json.num_of_int
    @ opt "edges" m.m_edges Json.num_of_int)

let doc ?(extra = []) ~bench ~scale ~block_cache rows =
  Json.Obj
    ([
       ("bench", Json.Str bench);
       ("scale", Json.Num scale);
       ("block_cache", Json.Bool block_cache);
     ]
    @ extra
    @ [ ("rows", Json.List (List.map row rows)) ])

(* Schema check for consumers (CI trend scripts): fail loudly on malformed
   reports rather than silently charting garbage. *)
let validate j =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let field name conv v =
    match Option.bind (Json.member name v) conv with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let* bench = field "bench" Json.to_str j in
  let* () = if bench <> "" then Ok () else Error "empty \"bench\"" in
  let* scale = field "scale" Json.to_num j in
  let* () = if scale > 0. then Ok () else Error "\"scale\" must be > 0" in
  let* (_ : bool) = field "block_cache" Json.to_bool j in
  let* rows = field "rows" Json.to_list j in
  let* () = if rows <> [] then Ok () else Error "\"rows\" must be non-empty" in
  List.fold_left
    (fun acc r ->
      let* () = acc in
      let ctx e =
        Error (Printf.sprintf "row %s: %s" (Json.to_string r) e)
      in
      let rfield name conv =
        match Option.bind (Json.member name r) conv with
        | Some x -> Ok x
        | None -> ctx (Printf.sprintf "missing or ill-typed field %S" name)
      in
      let* workload = rfield "workload" Json.to_str in
      let* () = if workload <> "" then Ok () else ctx "empty \"workload\"" in
      let* (_ : string) = rfield "mode" Json.to_str in
      let* instructions = rfield "instructions" Json.to_int in
      let* () =
        if instructions >= 0 then Ok () else ctx "negative \"instructions\""
      in
      let* seconds = rfield "seconds" Json.to_num in
      let* () = if seconds >= 0. then Ok () else ctx "negative \"seconds\"" in
      let* m = rfield "mips" Json.to_num in
      let* () = if m >= 0. then Ok () else ctx "negative \"mips\"" in
      let* overhead = rfield "overhead" Json.to_num in
      let* () =
        if overhead > 0. then Ok () else ctx "\"overhead\" must be > 0"
      in
      (* Optional: rows from trace-enabled runs carry a boolean marker. *)
      let* () =
        match Json.member "trace" r with
        | None -> Ok ()
        | Some v -> (
            match Json.to_bool v with
            | Some (_ : bool) -> Ok ()
            | None -> ctx "ill-typed optional field \"trace\"")
      in
      (* Optional parallel-campaign fields: all four travel together (a
         row either is a parallel measurement or is not). *)
      let opt name conv check =
        match Json.member name r with
        | None -> Ok None
        | Some v -> (
            match conv v with
            | Some x when check x -> Ok (Some x)
            | Some _ -> ctx (Printf.sprintf "out-of-range field %S" name)
            | None ->
                ctx (Printf.sprintf "ill-typed optional field %S" name))
      in
      (* Optional block-cache fields: all four travel together (a row
         from a single-SoC measurement carries the whole group; older
         reports omit them all). *)
      let* sblocks = opt "superblocks_built" Json.to_int (fun n -> n >= 0) in
      let* chain = opt "chain_hits" Json.to_int (fun n -> n >= 0) in
      let* ic_h = opt "ic_hits" Json.to_int (fun n -> n >= 0) in
      let* ic_m = opt "ic_misses" Json.to_int (fun n -> n >= 0) in
      let* () =
        match (sblocks, chain, ic_h, ic_m) with
        | Some _, Some _, Some _, Some _ | None, None, None, None -> Ok ()
        | _ ->
            ctx
              "block-cache fields \"superblocks_built\", \"chain_hits\", \
               \"ic_hits\" and \"ic_misses\" must appear together"
      in
      let* jobs = opt "jobs" Json.to_int (fun j -> j >= 1) in
      let* wall = opt "wall_ns" Json.to_int (fun n -> n >= 0) in
      let* cpu = opt "cpu_ns" Json.to_int (fun n -> n >= 0) in
      let* tput = opt "worker_throughput" Json.to_num (fun t -> t >= 0.) in
      let* () =
        match (jobs, wall, cpu, tput) with
        | Some _, Some _, Some _, Some _ | None, None, None, None -> Ok ()
        | _ ->
            ctx
              "parallel fields \"jobs\", \"wall_ns\", \"cpu_ns\" and \
               \"worker_throughput\" must appear together"
      in
      (* Optional graph-store fields: all five travel together (a row
         either is an analyze measurement or is not). *)
      let* store_bytes = opt "store_bytes" Json.to_int (fun n -> n >= 0) in
      let* ingest = opt "ingest_ns" Json.to_int (fun n -> n >= 0) in
      let* query = opt "query_ns" Json.to_int (fun n -> n >= 0) in
      let* nodes = opt "nodes" Json.to_int (fun n -> n >= 0) in
      let* edges = opt "edges" Json.to_int (fun n -> n >= 0) in
      match (store_bytes, ingest, query, nodes, edges) with
      | Some _, Some _, Some _, Some _, Some _ | None, None, None, None, None
        ->
          Ok ()
      | _ ->
          ctx
            "graph fields \"store_bytes\", \"ingest_ns\", \"query_ns\", \
             \"nodes\" and \"edges\" must appear together")
    (Ok ()) rows
