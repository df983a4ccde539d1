let ram_base = 0x8000_0000
let clint_base = 0x0200_0000
let plic_base = 0x0c00_0000
let uart_base = 0x1000_0000
let gpio_base = 0x4000_0000
let sensor_base = 0x5000_0000
let can_base = 0x5100_0000
let aes_base = 0x6000_0000
let dma_base = 0x7000_0000
let wdt_base = 0x7100_0000
let ram_size = 1 lsl 20
let irq_uart = 1
let irq_sensor = 2
let irq_can = 3
let irq_dma = 4
let irq_aes = 5
let irq_gpio = 6

(* The core's counters, as closures: the benchmark ledger reads them. *)
type cpu = {
  cpu_set_max : int -> unit;
  cpu_instret : unit -> int;
  cpu_exit : unit -> Rv32.Core.exit_reason;
  cpu_blocks_built : unit -> int;
  cpu_superblocks_built : unit -> int;
  cpu_chain_hits : unit -> int;
  cpu_ic_hits : unit -> int;
  cpu_ic_misses : unit -> int;
  cpu_fast_retired : unit -> int;
}

type t = {
  env : Env.t;
  kernel : Sysc.Kernel.t;
  router : Tlm.Router.t;
  memory : Memory.t;
  uart : Uart.t;
  gpio : Gpio.t;
  sensor : Sensor.t;
  dma : Dma.t;
  aes : Aes_periph.t;
  can : Can.t;
  clint : Clint.t;
  plic : Plic.t;
  watchdog : Watchdog.t;
  core : Rv32.Core.t;
  cpu : cpu;
}

let cpu_of core =
  let module C = Rv32.Core in
  {
    cpu_set_max = (fun n -> C.set_max_instructions core n);
    cpu_instret = (fun () -> C.instret core);
    cpu_exit = (fun () -> C.exit_reason core);
    cpu_blocks_built = (fun () -> C.blocks_built core);
    cpu_superblocks_built = (fun () -> C.superblocks_built core);
    cpu_chain_hits = (fun () -> C.chain_hits core);
    cpu_ic_hits = (fun () -> C.ic_hits core);
    cpu_ic_misses = (fun () -> C.ic_misses core);
    cpu_fast_retired = (fun () -> C.fast_retired core);
  }

(* The tracer's per-instruction recorder factory (see
   {!Rv32.Core.set_trace}): one [Insn] event per retired instruction,
   tagged with the join of its source registers' tags. The word is fixed
   once per recorder, as fetched; outside RAM it reads 0. *)
let insn_recorder soc tr =
  let pub = soc.env.Env.pub and kernel = soc.kernel in
  let mem_size = Memory.size soc.memory in
  fun pc word _insn ->
    let off = pc - ram_base in
    let word = if off >= 0 && off + 3 < mem_size then word else 0 in
    fun tag ->
      Trace.Tracer.record_insn tr ~time:(Sysc.Kernel.now kernel) ~pc ~word
        ~tag ~tainted:(tag <> pub)

(* Trap entries and mrets enter the event stream (the forensic window then
   shows "trap" lines around a violation raised inside a handler). *)
let trap_recorder soc tr ev =
  let time = Sysc.Kernel.now soc.kernel in
  match ev with
  | Rv32.Core.Trap_enter { cause; epc; tval = _; handler } ->
      Trace.Tracer.record_trap tr ~time ~addr:epc ~code:cause
        ~text:
          (Printf.sprintf "enter %s -> 0x%08x" (Rv32.Csr.cause_name cause)
             handler)
  | Rv32.Core.Trap_return { target; to_priv } ->
      Trace.Tracer.record_trap tr ~time ~addr:target ~code:to_priv
        ~text:
          (Printf.sprintf "mret -> 0x%08x (priv %s)" target
             (if to_priv = Rv32.Csr.priv_m then "M" else "U"))

(* A caller's hook as a recorder factory: it ignores the word and the
   operand tag. *)
let hook_recorder f pc _word insn =
  let record _tag = f pc insn in
  record

let set_trace soc fn =
  Rv32.Core.set_trace soc.core
    (match (soc.env.Env.tracer, fn) with
    | None, fn -> Option.map hook_recorder fn
    | Some tr, None -> Some (insn_recorder soc tr)
    | Some tr, Some f ->
        let recorder = insn_recorder soc tr in
        Some
          (fun pc word insn ->
            let record = recorder pc word insn in
            fun tag ->
              record tag;
              f pc insn))

let set_trap_hook soc fn =
  Rv32.Core.set_trap_hook soc.core
    (match (soc.env.Env.tracer, fn) with
    | None, fn -> fn
    | Some tr, None -> Some (trap_recorder soc tr)
    | Some tr, Some f ->
        Some
          (fun ev ->
            trap_recorder soc tr ev;
            f ev))

let create ~policy ~monitor ?(tracking = true) ?(dmi = true) ?(quantum = 1000)
    ?(block_cache = true) ?(strict_align = false) ?sensor_period ?aes_out_tag
    ?aes_in_clearance ?tracer () =
  let kernel = Sysc.Kernel.create () in
  let env = Env.create ?tracer kernel policy monitor in
  let router = Tlm.Router.create ~name:"bus" () in
  let memory = Memory.create env ~name:"ram" ~size:ram_size in
  let uart = Uart.create env ~name:"uart" ~port:"uart" in
  let gpio = Gpio.create env ~name:"gpio" ~port:"gpio" in
  let sensor = Sensor.create env ~name:"sensor" ?period:sensor_period () in
  let dma = Dma.create env ~name:"dma" in
  let aes_out_tag = match aes_out_tag with Some t -> t | None -> env.Env.pub in
  let aes =
    Aes_periph.create env ~name:"aes" ~out_tag:aes_out_tag
      ?in_clearance:aes_in_clearance ()
  in
  let can = Can.create env ~name:"can" ~port:"can" in
  let clint = Clint.create env ~name:"clint" () in
  let plic = Plic.create env ~name:"plic" in
  let watchdog = Watchdog.create env ~name:"wdt" () in
  Tlm.Router.map router ~lo:clint_base ~hi:(clint_base + 0xffff) (Clint.socket clint);
  Tlm.Router.map router ~lo:plic_base ~hi:(plic_base + 0xfff) (Plic.socket plic);
  Tlm.Router.map router ~lo:uart_base ~hi:(uart_base + 0xff) (Uart.socket uart);
  Tlm.Router.map router ~lo:gpio_base ~hi:(gpio_base + 0xff) (Gpio.socket gpio);
  Tlm.Router.map router ~lo:sensor_base ~hi:(sensor_base + 0xff)
    (Sensor.socket sensor);
  Tlm.Router.map router ~lo:can_base ~hi:(can_base + 0xff) (Can.socket can);
  Tlm.Router.map router ~lo:aes_base ~hi:(aes_base + 0xff) (Aes_periph.socket aes);
  Tlm.Router.map router ~lo:dma_base ~hi:(dma_base + 0xff) (Dma.socket dma);
  Tlm.Router.map router ~lo:wdt_base ~hi:(wdt_base + 0xff) (Watchdog.socket watchdog);
  Tlm.Router.map router ~lo:ram_base ~hi:(ram_base + ram_size - 1)
    (Memory.socket memory);
  let bus =
    Rv32.Bus_if.create ~lattice:env.Env.lat
      ~default_tag:policy.Dift.Policy.default_tag ~tracking ~name:"cpu.bus"
  in
  Tlm.Socket.bind (Rv32.Bus_if.socket bus) (Tlm.Router.target_socket router);
  if dmi then
    Rv32.Bus_if.set_dmi bus ~base:ram_base ~data:(Memory.data memory)
      ~tags:(Memory.tags memory);
  Tlm.Socket.bind (Dma.initiator dma) (Tlm.Router.target_socket router);
  let core =
    Rv32.Core.create ~kernel ~bus ~policy ~monitor ~quantum ~block_cache
      ~strict_align ~pc:ram_base ()
  in
  (* Writes landing in RAM behind the CPU's back (DMA over TLM, the loader,
     direct test pokes, reclassification) invalidate decoded blocks. *)
  Memory.set_write_hook memory (fun off len ->
      Rv32.Core.flush_code core ~addr:(ram_base + off) ~len);
  Clint.set_timer_irq_callback clint (fun on ->
      Rv32.Core.set_irq core ~bit:Rv32.Csr.bit_mti on);
  Clint.set_soft_irq_callback clint (fun on ->
      Rv32.Core.set_irq core ~bit:Rv32.Csr.bit_msi on);
  Plic.set_ext_irq_callback plic (fun on ->
      Rv32.Core.set_irq core ~bit:Rv32.Csr.bit_mei on);
  (* The UART's rx interrupt is a level: it stays asserted while data sits
     unread in the fifo, so an ISR that claims but never drains (or never
     claims at all) keeps the source live through the PLIC's
     complete-repend path. *)
  Uart.set_irq_callback uart (fun on -> Plic.set_level plic irq_uart on);
  Gpio.set_irq_callback gpio (fun () -> Plic.trigger plic irq_gpio);
  Sensor.set_irq_callback sensor (fun () -> Plic.trigger plic irq_sensor);
  Can.set_irq_callback can (fun () -> Plic.trigger plic irq_can);
  Dma.set_irq_callback dma (fun () -> Plic.trigger plic irq_dma);
  Aes_periph.set_irq_callback aes (fun () -> Plic.trigger plic irq_aes);
  Clint.start clint;
  Sensor.start sensor;
  Watchdog.start watchdog;
  Dma.start dma;
  Aes_periph.start aes;
  let soc =
    {
      env;
      kernel;
      router;
      memory;
      uart;
      gpio;
      sensor;
      dma;
      aes;
      can;
      clint;
      plic;
      watchdog;
      core;
      cpu = cpu_of core;
    }
  in
  (match tracer with
  | None -> ()
  | Some tr ->
      Trace.Tracer.set_disasm tr Rv32.Disasm.word;
      let lat = env.Env.lat in
      let now () = Sysc.Kernel.now kernel in
      (* Taint propagation: every genuine LUB join the core or the bus
         computes becomes a merge edge in the tracer's graph. *)
      let on_merge a b r = Trace.Tracer.record_merge tr ~a ~b ~result:r in
      Rv32.Core.set_merge_hook core (Some on_merge);
      Rv32.Bus_if.set_merge_hook bus (Some on_merge);
      (* Bus traffic: one event per routed transaction (CPU MMIO and DMA
         alike), tagged with the LUB of the payload's byte tags. *)
      Tlm.Router.set_observer router
        (Some
           (fun p target ->
             Trace.Tracer.record_tlm tr ~time:(now ())
               ~write:(p.Tlm.Payload.cmd = Tlm.Payload.Write)
               ~addr:p.Tlm.Payload.addr ~len:(Tlm.Payload.length p)
               ~tag:(Tlm.Payload.lub_tag lat p) ~target));
      (* Monitor events: violations and declassifications enter the event
         stream in order, and the tracer's graph. *)
      Dift.Monitor.set_on_event monitor
        (Some
           (fun ev ->
             let time = now () in
             match ev with
             | Dift.Monitor.Violated v ->
                 Trace.Tracer.record_violation tr ~time
                   ~pc:(Option.value v.Dift.Violation.pc ~default:(-1))
                   ~tag:v.Dift.Violation.data_tag
                   ~what:
                     (Dift.Violation.kind_name v.Dift.Violation.kind
                     ^
                     match v.Dift.Violation.detail with
                     | "" -> ""
                     | d -> ": " ^ d)
             | Dift.Monitor.Declassified { where; from_tag; to_tag } ->
                 Trace.Tracer.record_declass tr ~time ~from_tag ~to_tag ~where
             | Dift.Monitor.Note s -> Trace.Tracer.record_note tr ~time s));
      set_trace soc None;
      set_trap_hook soc None);
  soc

let load_image soc img =
  let org = img.Rv32_asm.Image.org in
  let len = Bytes.length img.Rv32_asm.Image.code in
  if org < ram_base || org + len > ram_base + Memory.size soc.memory then
    invalid_arg "Soc.load_image: image does not fit in RAM";
  Memory.load soc.memory ~off:(org - ram_base) img.Rv32_asm.Image.code;
  (* Classification: assign initial security classes per policy region.
     Regions are applied in reverse declaration order so that, as in
     {!Dift.Policy.classify_at}, the first (most specific) matching region
     wins. *)
  let policy = soc.env.Env.policy in
  List.iter
    (fun r ->
      let lo = max r.Dift.Policy.lo ram_base in
      let hi = min r.Dift.Policy.hi (ram_base + Memory.size soc.memory - 1) in
      if lo <= hi then
        Memory.fill_tags soc.memory ~off:(lo - ram_base) ~len:(hi - lo + 1)
          r.Dift.Policy.r_tag)
    (List.rev policy.Dift.Policy.classification);
  (* Each classified region is a taint introduction in its own right (the
     PIN region of the immobilizer case study, say): register it so a
     violating tag can be walked back to the policy that seeded it. *)
  List.iter
    (fun r ->
      if r.Dift.Policy.r_tag <> soc.env.Env.pub then
        Env.taint_source soc.env
          ~origin:("policy-region:" ^ r.Dift.Policy.r_name)
          ~addr:r.Dift.Policy.lo r.Dift.Policy.r_tag)
    policy.Dift.Policy.classification;
  let entry =
    match Rv32_asm.Image.symbol_opt img "_start" with
    | Some a -> a
    | None -> org
  in
  Rv32.Core.set_pc soc.core entry

let seed_taint soc ~origin ~addr ~len tag =
  if addr < ram_base || addr + len > ram_base + Memory.size soc.memory then
    invalid_arg "Soc.seed_taint: range outside RAM";
  Memory.fill_tags soc.memory ~off:(addr - ram_base) ~len tag;
  Env.taint_source soc.env ~origin ~addr tag

let start soc = Rv32.Core.spawn_thread soc.core

let run ?until soc = Sysc.Kernel.run ?until soc.kernel

let run_for_instructions soc n =
  Rv32.Core.set_max_instructions soc.core n;
  start soc;
  run soc;
  Rv32.Core.exit_reason soc.core

let release soc = Sysc.Kernel.release soc.kernel

(* --- Checkpoint / restore ---------------------------------------------- *)

let pause_at soc n = Rv32.Core.set_pause_at soc.core n
let paused soc = Rv32.Core.paused soc.core

let resume ?until soc =
  Rv32.Core.clear_paused soc.core;
  run ?until soc

(* Section order is fixed: identical state must yield identical bytes. *)
let save soc =
  let open Snapshot.Codec in
  if not (paused soc || Rv32.Core.halted soc.core) then
    invalid_arg "Soc.save: CPU is neither paused nor halted";
  (* Drain the current instant: the pause stopped the scheduler mid-phase,
     so processes runnable at this time (peripheral engines, delta
     notifications) still have to settle before the kernel state reduces
     to (now, delta count, pending timed notifications). *)
  Sysc.Kernel.run ~until:(Sysc.Kernel.now soc.kernel) soc.kernel;
  if not (Sysc.Kernel.quiescent soc.kernel) then
    invalid_arg "Soc.save: kernel not quiescent after draining the instant";
  let section name f =
    let w = writer () in
    f w;
    (name, contents w)
  in
  Container.encode
    [
      section "kernel" (fun w ->
          put_i64 w (Sysc.Kernel.now soc.kernel);
          put_i64 w (Sysc.Kernel.delta_count soc.kernel);
          put_list w
            (fun w (name, at) ->
              put_string w name;
              put_i64 w at)
            (Sysc.Kernel.pending_timed soc.kernel));
      section "cpu" (Rv32.Core.save soc.core);
      section "mem" (Memory.save soc.memory);
      section "uart" (Uart.save soc.uart);
      section "gpio" (Gpio.save soc.gpio);
      section "sensor" (Sensor.save soc.sensor);
      section "dma" (Dma.save soc.dma);
      section "aes" (Aes_periph.save soc.aes);
      section "can" (Can.save soc.can);
      section "clint" (Clint.save soc.clint);
      section "plic" (Plic.save soc.plic);
      section "wdt" (Watchdog.save soc.watchdog);
    ]

(* --- Warm start --------------------------------------------------------

   The campaign engine's per-task setup shortcut (docs/parallel.md): the
   parent builds one SoC, brings it to the post-reset settlement point
   without retiring a single instruction (instruction budget 0: the CPU
   thread halts with Insn_limit at instret 0 before its first fetch, then
   the save below drains the instant so every peripheral's time-0 work is
   folded into the serialised state), and hands the resulting blob to the
   workers. Each worker restores the blob into a freshly created SoC of
   the same configuration *before* loading its task's firmware image —
   replacing the construction-time settlement with a codec decode. *)

let boot_snapshot soc =
  if Rv32.Core.instret soc.core <> 0 then
    invalid_arg "Soc.boot_snapshot: SoC has already executed instructions";
  Rv32.Core.set_max_instructions soc.core 0;
  start soc;
  run soc;
  save soc

let restore soc data =
  let open Snapshot.Codec in
  let version, sections = Container.decode_versioned data in
  let rd name =
    match List.assoc_opt name sections with
    | Some payload ->
        let r = reader payload in
        (* Stamp the container version so per-section loaders can default
           fields that older snapshots predate. *)
        set_reader_version r version;
        r
    | None -> raise (Corrupt (Printf.sprintf "missing section %S" name))
  in
  let sec name loadfn =
    let r = rd name in
    loadfn r;
    expect_end r
  in
  (* The kernel goes first: it cancels the initial notifications armed
     during construction and re-arms the saved pending set, so the
     peripheral loads below see the clock already at the snapshot time. *)
  sec "kernel" (fun r ->
      let now = get_i64 r in
      let deltas = get_i64 r in
      let notifications =
        get_list r (fun r ->
            let name = get_string r in
            let at = get_i64 r in
            (name, at))
      in
      (* A name this platform has no event for (a flipped byte) is a
         corrupt snapshot like any other. *)
      try Sysc.Kernel.restore soc.kernel ~now ~deltas ~notifications
      with Invalid_argument msg -> raise (Corrupt msg));
  sec "cpu" (Rv32.Core.load soc.core);
  sec "mem"
    (Memory.restore soc.memory ~ntags:(Dift.Lattice.size soc.env.Env.lat));
  sec "uart" (Uart.load soc.uart);
  sec "gpio" (Gpio.load soc.gpio);
  sec "sensor" (Sensor.load soc.sensor);
  sec "dma" (Dma.load soc.dma);
  sec "aes" (Aes_periph.load soc.aes);
  sec "can" (Can.load soc.can);
  sec "clint" (Clint.load soc.clint);
  sec "plic" (Plic.load soc.plic);
  sec "wdt" (Watchdog.load soc.watchdog)

let warm_start soc data =
  restore soc data;
  (* The blob was taken halted-at-0 (Insn_limit); the worker's core must
     run for real. [restore] also marked the core paused iff it was parked
     on a sync (it was not — no instruction retired, no sync pending), so
     only the halt needs clearing. *)
  Rv32.Core.unhalt soc.core;
  Rv32.Core.clear_paused soc.core
