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

type sample = {
  s_instructions : int;
  s_seconds : float;
  s_fast_retired : int;
  s_blocks_built : int;
  s_superblocks : int;
  s_chain_hits : int;
  s_ic_hits : int;
  s_ic_misses : int;
  s_exit_ok : bool;
}

let run ?block_cache ?dmi ?quantum ?policy ~tracking def img =
  let policy =
    match policy with Some p -> p | None -> def.make_policy img
  in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let aes_out_tag, aes_in_clearance =
    match def.aes img with
    | Some (o, c) -> (Some o, Some c)
    | None -> (None, None)
  in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking ?block_cache ?dmi ?quantum
      ?sensor_period:def.sensor_period ?aes_out_tag ?aes_in_clearance ()
  in
  Vp.Soc.load_image soc img;
  def.setup soc;
  let core = soc.Vp.Soc.core in
  Rv32.Core.set_max_instructions core 500_000_000;
  Vp.Soc.start soc;
  let t0 = Clock.now_s () in
  Vp.Soc.run soc;
  let dt = Clock.now_s () -. t0 in
  {
    s_instructions = Rv32.Core.instret core;
    s_seconds = dt;
    s_fast_retired = Rv32.Core.fast_retired core;
    s_blocks_built = Rv32.Core.blocks_built core;
    s_superblocks = Rv32.Core.superblocks_built core;
    s_chain_hits = Rv32.Core.chain_hits core;
    s_ic_hits = Rv32.Core.ic_hits core;
    s_ic_misses = Rv32.Core.ic_misses core;
    s_exit_ok = Rv32.Core.exit_reason core = Rv32.Core.Exited 0;
  }

let timed ~instructions f =
  let t0 = Clock.now_s () in
  f ();
  {
    s_instructions = instructions;
    s_seconds = Clock.now_s () -. t0;
    s_fast_retired = 0;
    s_blocks_built = 0;
    s_superblocks = 0;
    s_chain_hits = 0;
    s_ic_hits = 0;
    s_ic_misses = 0;
    s_exit_ok = true;
  }

(* Odd, so the median is a sample; every timed row is cheap enough. *)
let reps = 11

type measurement = {
  m_workload : string;
  m_mode : string;
  m_instructions : int;
  m_seconds : float;
  m_seconds_p25 : float;
  m_seconds_p75 : float;
  m_mips : float;
  m_overhead : float;
  m_fast_retired : int;
  m_blocks_built : int;
  m_superblocks : int;
  m_chain_hits : int;
  m_ic_hits : int;
  m_ic_misses : int;
  m_loc_asm : int;
  m_exit_ok : bool;
}

let mips instructions seconds =
  if seconds > 0. then float_of_int instructions /. seconds /. 1e6 else 0.

(* Linear interpolation between the closest ranks. *)
let quantile q xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let h = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float h in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let measure ~workload ~loc_asm configs =
  let runs = Array.of_list (List.map snd configs) in
  (* rounds.(r).(i): configuration i in round r. *)
  let rounds = Array.init reps (fun _ -> Array.map (fun run -> run ()) runs) in
  let base r = rounds.(r).(0).s_seconds in
  List.mapi
    (fun i (mode, _) ->
      let samples = Array.map (fun round -> round.(i)) rounds in
      let seconds = Array.map (fun s -> s.s_seconds) samples in
      let ratios =
        Array.mapi (fun r t -> if base r > 0. then t /. base r else 1.) seconds
      in
      let first = samples.(0) in
      let median = quantile 0.5 seconds in
      {
        m_workload = workload;
        m_mode = mode;
        m_instructions = first.s_instructions;
        m_seconds = median;
        m_seconds_p25 = quantile 0.25 seconds;
        m_seconds_p75 = quantile 0.75 seconds;
        m_mips = mips first.s_instructions median;
        m_overhead = quantile 0.5 ratios;
        m_fast_retired = first.s_fast_retired;
        m_blocks_built = first.s_blocks_built;
        m_superblocks = first.s_superblocks;
        m_chain_hits = first.s_chain_hits;
        m_ic_hits = first.s_ic_hits;
        m_ic_misses = first.s_ic_misses;
        m_loc_asm = loc_asm;
        m_exit_ok =
          Array.for_all
            (fun s -> s.s_exit_ok && s.s_instructions = first.s_instructions)
            samples;
      })
    configs

let measure_def ?block_cache def =
  let img = def.make_image () in
  measure ~workload:def.d_name ~loc_asm:img.Rv32_asm.Image.insn_count
    [
      ("vp", fun () -> run ?block_cache ~tracking:false def img);
      ("vp+", fun () -> run ?block_cache ~tracking:true def img);
    ]

(* --- Report document -------------------------------------------------- *)

let row m =
  Json.Obj
    [
      ("workload", Json.Str m.m_workload);
      ("mode", Json.Str m.m_mode);
      ("instructions", Json.num_of_int m.m_instructions);
      ("seconds", Json.Num m.m_seconds);
      ("seconds_p25", Json.Num m.m_seconds_p25);
      ("seconds_p75", Json.Num m.m_seconds_p75);
      ("mips", Json.Num m.m_mips);
      ("overhead", Json.Num m.m_overhead);
      ("fast_retired", Json.num_of_int m.m_fast_retired);
      ("blocks_built", Json.num_of_int m.m_blocks_built);
      ("superblocks_built", Json.num_of_int m.m_superblocks);
      ("chain_hits", Json.num_of_int m.m_chain_hits);
      ("ic_hits", Json.num_of_int m.m_ic_hits);
      ("ic_misses", Json.num_of_int m.m_ic_misses);
      ("loc_asm", Json.num_of_int m.m_loc_asm);
      ("exit_ok", Json.Bool m.m_exit_ok);
    ]

let doc ~bench ~scale ~block_cache rows =
  Json.Obj
    [
      ("bench", Json.Str bench);
      ("scale", Json.Num scale);
      ("block_cache", Json.Bool block_cache);
      ("rows", Json.List (List.map row rows));
    ]

(* Schema check for consumers (CI trend scripts): fail loudly on malformed
   reports rather than silently charting garbage. *)
let validate j =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let check ok e = if ok then Ok () else Error e in
  let field v name conv =
    match Option.bind (Json.member name v) conv with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let* bench = field j "bench" Json.to_str in
  let* () = check (bench <> "") "empty \"bench\"" in
  let* scale = field j "scale" Json.to_num in
  let* () = check (scale > 0.) "\"scale\" must be > 0" in
  let* (_ : bool) = field j "block_cache" Json.to_bool in
  let* rows = field j "rows" Json.to_list in
  let* () = check (rows <> []) "\"rows\" must be non-empty" in
  let check_row r =
    let* workload = field r "workload" Json.to_str in
    let* () = check (workload <> "") "empty \"workload\"" in
    let* (_ : string) = field r "mode" Json.to_str in
    let* p25 = field r "seconds_p25" Json.to_num in
    let* median = field r "seconds" Json.to_num in
    let* p75 = field r "seconds_p75" Json.to_num in
    let* () =
      check
        (0. <= p25 && p25 <= median && median <= p75)
        "need 0 <= \"seconds_p25\" <= \"seconds\" <= \"seconds_p75\""
    in
    let* m = field r "mips" Json.to_num in
    let* () = check (m >= 0.) "negative \"mips\"" in
    let* overhead = field r "overhead" Json.to_num in
    let* () = check (overhead > 0.) "\"overhead\" must be > 0" in
    List.fold_left
      (fun acc name ->
        let* () = acc in
        let* n = field r name Json.to_int in
        check (n >= 0) (Printf.sprintf "negative %S" name))
      (Ok ())
      [ "instructions"; "superblocks_built"; "chain_hits"; "ic_hits";
        "ic_misses" ]
  in
  List.fold_left
    (fun acc r ->
      let* () = acc in
      match check_row r with
      | Ok () -> Ok ()
      | Error e -> Error (Printf.sprintf "row %s: %s" (Json.to_string r) e))
    (Ok ()) rows
