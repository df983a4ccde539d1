type stop = Exited of int | Out_of_budget | Trapped

type outcome = {
  stop : stop;
  regs : int array;
  mem : string;
  instret : int;
  tags : (int array * int array) option;
}

type result3 = {
  golden : outcome;
  vp : outcome;
  vpp : outcome;
  violations : int;
  checks : int;
  declassifications : int;
}

let max_insns = 50_000

(* Taint state is compared only when both sides observed it (tracked
   runs); a tracked-vs-untracked comparison stays purely architectural. *)
let tags_agree a b =
  match (a.tags, b.tags) with
  | Some (ra, ma), Some (rb, mb) -> ra = rb && ma = mb
  | _ -> true

let agree a b =
  match (a.stop, b.stop) with
  | Trapped, Trapped -> true
  | sa, sb ->
      sa = sb && a.regs = b.regs
      && String.equal a.mem b.mem
      && a.instret = b.instret && tags_agree a b

let explain a b =
  if agree a b then None
  else if a.stop <> b.stop then
    let name = function
      | Exited c -> Printf.sprintf "exited(%d)" c
      | Out_of_budget -> "out-of-budget"
      | Trapped -> "trapped"
    in
    Some (Printf.sprintf "stop reason: %s vs %s" (name a.stop) (name b.stop))
  else
    let reg_diff = ref None in
    for i = 31 downto 1 do
      if a.regs.(i) <> b.regs.(i) then reg_diff := Some i
    done;
    match !reg_diff with
    | Some i ->
        Some
          (Printf.sprintf "%s: 0x%08x vs 0x%08x" (Rv32.Reg.name i) a.regs.(i)
             b.regs.(i))
    | None ->
        if not (String.equal a.mem b.mem) then
          let j = ref 0 in
          while Char.equal a.mem.[!j] b.mem.[!j] do incr j done;
          Some
            (Printf.sprintf "scratch[%d]: 0x%02x vs 0x%02x" !j
               (Char.code a.mem.[!j]) (Char.code b.mem.[!j]))
        else if a.instret <> b.instret then
          Some (Printf.sprintf "instret: %d vs %d" a.instret b.instret)
        else
          match (a.tags, b.tags) with
          | Some (ra, mb1), Some (rb, mb2) ->
              let reg_diff = ref None in
              for i = 31 downto 1 do
                if ra.(i) <> rb.(i) then reg_diff := Some i
              done;
              (match !reg_diff with
              | Some i ->
                  Some
                    (Printf.sprintf "tag of %s: %d vs %d" (Rv32.Reg.name i)
                       ra.(i) rb.(i))
              | None ->
                  let j = ref 0 in
                  while !j < Array.length mb1 && mb1.(!j) = mb2.(!j) do
                    incr j
                  done;
                  if !j < Array.length mb1 then
                    Some
                      (Printf.sprintf "tag of scratch[%d]: %d vs %d" !j
                         mb1.(!j) mb2.(!j))
                  else None)
          | _ -> None

let buf_window img =
  let buf = Rv32_asm.Image.symbol img "buf" in
  (buf, Prog.buf_size)

let run_golden img =
  let g = Rv32.Golden.create ~mem_base:Vp.Soc.ram_base ~mem_size:Vp.Soc.ram_size in
  Rv32.Golden.load g ~addr:img.Rv32_asm.Image.org
    (Bytes.to_string img.Rv32_asm.Image.code);
  Rv32.Golden.set_pc g
    (match Rv32_asm.Image.symbol_opt img "_start" with
    | Some a -> a
    | None -> img.Rv32_asm.Image.org);
  let stop_raw, n = Rv32.Golden.run g ~max_insns in
  let stop =
    match stop_raw with
    | Rv32.Golden.Exited c -> Exited c
    | Rv32.Golden.Limit -> Out_of_budget
    | Rv32.Golden.Trap _ -> Trapped
  in
  let regs = Array.init 32 (fun i -> if i = 0 then 0 else Rv32.Golden.reg g i) in
  let buf, len = buf_window img in
  let mem = String.init len (fun i -> Char.chr (Rv32.Golden.mem_byte g (buf + i))) in
  { stop; regs; mem; instret = n; tags = None }

let unrestricted_policy () =
  let lat = Dift.Lattice.make_exn ~classes:[ "ANY" ] ~flows:[] in
  Dift.Policy.unrestricted lat ~default_tag:0

(* Kept only for the benchmark ledger, which calls both: every platform
   boots cold, so a [warm] value carries nothing and [run_vp] ignores it. *)
type warm = unit

let warm_boot () = ()

let stop_of = function
  | Rv32.Core.Exited c -> Exited c
  | Rv32.Core.Insn_limit -> Out_of_budget
  | Rv32.Core.Breakpoint | Rv32.Core.Running -> Trapped

(* The final state of a VP run, read off the SoC. *)
let observe ~tracking img soc stop =
  let core = soc.Vp.Soc.core and memory = soc.Vp.Soc.memory in
  let buf, len = buf_window img in
  let base = buf - Vp.Soc.ram_base in
  let per_reg f = Array.init 32 (fun i -> if i = 0 then 0 else f core i) in
  {
    stop;
    regs = per_reg Rv32.Core.get_reg;
    mem =
      String.init len (fun i ->
          Char.chr (Vp.Memory.read_byte memory (base + i)));
    instret = Rv32.Core.instret core;
    tags =
      (if tracking then
         Some
           ( per_reg Rv32.Core.get_reg_tag,
             Array.init len (fun i -> Vp.Memory.read_tag memory (base + i)) )
       else None);
  }

let monitor_counts m =
  ( Dift.Monitor.violation_count m,
    Dift.Monitor.check_count m,
    Dift.Monitor.declassification_count m )

let run_vp ~tracking ?(block_cache = true) ?policy ?trace ?tracer ?quantum
    ?warm:_ img =
  let policy =
    match policy with Some p -> p | None -> unrestricted_policy ()
  in
  let monitor =
    Dift.Monitor.create ~mode:Dift.Monitor.Record policy.Dift.Policy.lattice
  in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking ~block_cache ?tracer ?quantum ()
  in
  Vp.Soc.load_image soc img;
  Vp.Soc.set_trace soc trace;
  let stop =
    try stop_of (Vp.Soc.run_for_instructions soc max_insns)
    with _ -> Trapped
  in
  let outcome = observe ~tracking img soc stop in
  Vp.Soc.release soc;
  (outcome, monitor_counts monitor)

(* Snapshot-vs-straight differential: the checkpointed run pauses every
   200 instructions, serialises the whole platform, restores the
   snapshot into a brand-new SoC and continues there — so every segment
   boundary exercises the full save/restore cycle. Both this and the
   straight run it is compared against must use the same (small) quantum:
   pauses land on time-sync boundaries, and the quantum fixes where those
   are. *)
let snap_quantum = 64

let run_vp_snapshot ?policy img =
  let stride = 200 in
  let policy =
    match policy with Some p -> p | None -> unrestricted_policy ()
  in
  let fresh () =
    let monitor =
      Dift.Monitor.create ~mode:Dift.Monitor.Record policy.Dift.Policy.lattice
    in
    let soc =
      Vp.Soc.create ~policy ~monitor ~tracking:true ~quantum:snap_quantum ()
    in
    Vp.Soc.load_image soc img;
    (soc, monitor)
  in
  let totals = ref (0, 0, 0) in
  let add m =
    let v, c, d = !totals and v', c', d' = monitor_counts m in
    totals := (v + v', c + c', d + d')
  in
  let rec cycle (soc, mon) =
    Vp.Soc.pause_at soc (Rv32.Core.instret soc.Vp.Soc.core + stride);
    Vp.Soc.run soc;
    if Vp.Soc.paused soc then begin
      let snap = Vp.Soc.save soc in
      Vp.Soc.release soc;
      add mon;
      let soc', mon' = fresh () in
      Vp.Soc.restore soc' snap;
      Rv32.Core.set_max_instructions soc'.Vp.Soc.core max_insns;
      Vp.Soc.start soc';
      Rv32.Core.clear_paused soc'.Vp.Soc.core;
      cycle (soc', mon')
    end
    else begin
      add mon;
      soc
    end
  in
  let first = fresh () in
  Rv32.Core.set_max_instructions (fst first).Vp.Soc.core max_insns;
  Vp.Soc.start (fst first);
  match cycle first with
  | exception _ ->
      ( { stop = Trapped; regs = Array.make 32 0; mem = ""; instret = 0;
          tags = None },
        !totals )
  | soc ->
      let stop = stop_of (Rv32.Core.exit_reason soc.Vp.Soc.core) in
      let outcome = observe ~tracking:true img soc stop in
      Vp.Soc.release soc;
      (outcome, !totals)

let run ?policy ?trace img =
  let golden = run_golden img in
  let vp, _ = run_vp ~tracking:false img in
  let vpp, (violations, checks, declassifications) =
    run_vp ~tracking:true ?policy ?trace img
  in
  { golden; vp; vpp; violations; checks; declassifications }
