(* The four ledger workloads. Every builder parameter lives here, so the
   numbers in README.md can be checked against one place. Only the
   fuzz-campaign seed and the immobilizer challenge bytes come from
   [--seed]; every other input is fixed. *)

type size = Full | Smoke

type program = {
  name : string;
  build : unit -> Rv32_asm.Image.t;
  policy : Rv32_asm.Image.t -> Dift.Policy.t;
  sensor_period : Sysc.Time.t option;
  aes : (Dift.Policy.t -> Dift.Lattice.tag * Dift.Lattice.tag) option;
  host : (Vp.Soc.t -> unit -> bool) option;
      (** Attach a host-side model before the run; the returned closure
          says whether the model saw correct outputs. *)
  expect_exit : int option;
      (** [None]: any exit code, as long as every leg agrees on it. *)
}

type t = {
  name : string;
  programs : program list;
  attacks : bool;  (** Run the traced attack suite once per pass. *)
  campaign : Difftest.Harness.config option;  (** Run once per pass. *)
  replica : int;
      (** Programs of the difftest replica loop in a traced pass (0: none). *)
}

let pick size full smoke = match size with Full -> full | Smoke -> smoke

(* Section VI-B: program HI, everything else LI, fetch clearance HI. *)
let integrity img =
  let lat = Dift.Lattice.integrity () in
  let hi = Dift.Lattice.tag_of_name lat "HI" in
  Dift.Policy.make ~lattice:lat
    ~default_tag:(Dift.Lattice.tag_of_name lat "LI")
    ~classification:
      [
        Dift.Policy.region ~name:"program" ~lo:img.Rv32_asm.Image.org
          ~hi:(Rv32_asm.Image.limit img - 1) ~tag:hi;
      ]
    ~exec_fetch:hi ()

(* The integrity policy with the data behind [label] (which runs to the end
   of the image) classified LI: every instruction that touches it
   propagates a real tag, so VP+ stays on the full-DIFT variant. *)
let tainted label img =
  let lat = Dift.Lattice.integrity () in
  let limit = Rv32_asm.Image.limit img - 1 in
  let li = Dift.Lattice.tag_of_name lat "LI" in
  let hi = Dift.Lattice.tag_of_name lat "HI" in
  Dift.Policy.make ~lattice:lat ~default_tag:li
    ~classification:
      [
        Dift.Policy.region ~name:label ~lo:(Rv32_asm.Image.symbol img label)
          ~hi:limit ~tag:li;
        Dift.Policy.region ~name:"program" ~lo:img.Rv32_asm.Image.org ~hi:limit
          ~tag:hi;
      ]
    ~exec_fetch:hi ()

let fw name build =
  {
    name;
    build;
    policy = integrity;
    sensor_period = None;
    aes = None;
    host = None;
    expect_exit = Some 0;
  }

(* The engine ECU: answer every response with a fresh challenge drawn from
   the seed, until [challenges] have been served, and check each
   two-frame response against the host AES reference. *)
let engine ~seed ~challenges soc =
  let rng = Random.State.make [| seed |] in
  let draw () = String.init 8 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let challenge = ref (draw ()) and served = ref 0 and valid = ref true in
  let frames = ref [] in
  Vp.Can.set_tx_callback soc.Vp.Soc.can (fun frame ->
      frames := frame :: !frames;
      match !frames with
      | [ second; first ] ->
          frames := [];
          incr served;
          if first ^ second <> Firmware.Immo_fw.Engine.expected ~challenge:!challenge
          then valid := false;
          if !served < challenges then begin
            challenge := draw ();
            Vp.Can.push_rx_frame soc.Vp.Soc.can !challenge
          end
      | _ -> ());
  Vp.Can.push_rx_frame soc.Vp.Soc.can !challenge;
  fun () -> !valid && !served = challenges && !frames = []

let clean_compute size =
  let p = pick size in
  {
    name = "clean-compute";
    programs =
      [
        fw "hello" (fun () ->
            Firmware.Extra_fw.hello_image ~rounds:(p 600 4) ());
        fw "dispatch" (fun () ->
            Firmware.Extra_fw.dispatch_image ~rounds:(p 80_000 64) ());
        fw "qsort" (fun () -> Firmware.Qsort_fw.image ~n:(p 1000 32) ~rounds:(p 8 1) ());
        fw "dhrystone" (fun () ->
            Firmware.Dhrystone_fw.image ~iterations:(p 2400 4) ());
        fw "primes" (fun () -> Firmware.Primes_fw.image ~n:(p 12_000 64) ());
        fw "sha512" (fun () -> Firmware.Sha_fw.image ~message_len:(p 16_384 64) ());
        fw "crc32" (fun () -> Firmware.Extra_fw.crc32_image ~len:(p 24_576 64) ());
        fw "strings" (fun () ->
            Firmware.Extra_fw.strings_image ~count:(p 4096 8) ());
        fw "matmul" (fun () -> Firmware.Extra_fw.matmul_image ~n:(p 42 4) ());
      ];
    attacks = false;
    campaign = None;
    replica = 0;
  }

let tainted_compute size =
  let p = pick size in
  {
    name = "tainted-compute";
    programs =
      [
        {
          (fw "sha512" (fun () ->
               Firmware.Sha_fw.image ~message_len:(p 49_152 64) ()))
          with
          policy = tainted "msg";
        };
        {
          (fw "crc32" (fun () ->
               Firmware.Extra_fw.crc32_image ~len:(p 73_728 64) ()))
          with
          policy = tainted "data";
        };
      ];
    attacks = false;
    campaign = None;
    replica = 0;
  }

let io_interrupts size ~seed =
  let p = pick size in
  let challenges = p 700 2 in
  {
    name = "io-interrupts";
    programs =
      [
        {
          (fw "simple-sensor" (fun () ->
               Firmware.Sensor_fw.image ~frames:(p 1500 4) ()))
          with
          sensor_period = Some (Sysc.Time.us 20);
        };
        {
          (fw "immo-fixed" (fun () ->
               Firmware.Immo_fw.image
                 ~variant:(Firmware.Immo_fw.Normal { fixed_dump = true })
                 ~challenges ()))
          with
          policy = Firmware.Immo_fw.base_policy;
          aes = Some Firmware.Immo_fw.aes_args;
          host = Some (engine ~seed ~challenges);
        };
        fw "freertos-tasks" (fun () ->
            Firmware.Rtos_fw.image ~switches:(p 2000 4) ~slice_ticks:20 ());
      ];
    attacks = true;
    campaign = None;
    replica = 0;
  }

(* The ladder runs the first few programs of the seed's generator stream
   on the same legs as the firmware workloads; their exit code is a seed
   constant, so only agreement between legs is checked. *)
let fuzz_campaign size ~seed =
  let rng = Difftest.Rng.create ~seed in
  let cov = Difftest.Coverage.create () in
  let blocks = Difftest.Harness.default.Difftest.Harness.size in
  let programs =
    List.init (pick size 50 3) (fun i ->
        let prog = Difftest.Gen.program rng cov ~size:blocks in
        {
          (fw (Printf.sprintf "gen-%02d" i) (fun () -> Difftest.Prog.assemble prog))
          with
          expect_exit = None;
        })
  in
  {
    name = "fuzz-campaign";
    programs;
    attacks = false;
    campaign =
      Some
        {
          Difftest.Harness.default with
          seed;
          programs = pick size 100 6;
          shrink = false;
          jobs = 1;
        };
    replica = pick size 50 3;
  }

let names = [ "clean-compute"; "tainted-compute"; "io-interrupts"; "fuzz-campaign" ]

let make size ~seed = function
  | "clean-compute" -> clean_compute size
  | "tainted-compute" -> tainted_compute size
  | "io-interrupts" -> io_interrupts size ~seed
  | "fuzz-campaign" -> fuzz_campaign size ~seed
  | name -> invalid_arg ("Workload.make: " ^ name)
