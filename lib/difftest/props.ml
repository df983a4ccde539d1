let lc_hc () =
  let lat = Dift.Lattice.confidentiality () in
  ( lat,
    Dift.Lattice.tag_of_name lat "LC",
    Dift.Lattice.tag_of_name lat "HC" )

let run_tagged img policy =
  let monitor =
    Dift.Monitor.create ~mode:Dift.Monitor.Record policy.Dift.Policy.lattice
  in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking:true () in
  Vp.Soc.load_image soc img;
  ignore (Vp.Soc.run_for_instructions soc Oracle.max_insns);
  Vp.Soc.release soc;
  (soc, monitor)

let reg_tags soc =
  Array.init 32 (fun i ->
      if i = 0 then 0 else Rv32.Core.get_reg_tag soc.Vp.Soc.core i)

let buf_tags soc img =
  let base = Rv32_asm.Image.symbol img "buf" - Vp.Soc.ram_base in
  Array.init Prog.buf_size (fun i -> Vp.Memory.read_tag soc.Vp.Soc.memory (base + i))

let purity img =
  let lat, lc, _ = lc_hc () in
  let policy = Dift.Policy.unrestricted lat ~default_tag:lc in
  let soc, monitor = run_tagged img policy in
  let bad_reg = ref None in
  Array.iteri
    (fun i t -> if i > 0 && t <> lc && !bad_reg = None then bad_reg := Some i)
    (reg_tags soc);
  match !bad_reg with
  | Some i -> Some (Printf.sprintf "register %s became tainted" (Rv32.Reg.name i))
  | None -> (
      match Vp.Memory.tainted_regions soc.Vp.Soc.memory ~baseline:lc with
      | (lo, hi, _) :: _ ->
          Some (Printf.sprintf "RAM bytes [0x%x..0x%x] became tainted" lo hi)
      | [] ->
          if Dift.Monitor.violation_count monitor <> 0 then
            Some "check-free policy recorded violations"
          else if Dift.Monitor.declassification_count monitor <> 0 then
            Some "check-free policy recorded declassifications"
          else None)

(* Tainted-output footprint: which registers / scratch bytes carry HC. *)
let footprint soc img hc =
  let regs = reg_tags soc in
  let bufs = buf_tags soc img in
  let tainted_regs = ref [] and tainted_bytes = ref [] in
  Array.iteri (fun i t -> if i > 0 && t = hc then tainted_regs := i :: !tainted_regs) regs;
  Array.iteri (fun i t -> if t = hc then tainted_bytes := i :: !tainted_bytes) bufs;
  (!tainted_regs, !tainted_bytes)

type ranges = (int * int) * (int * int)

let draw_ranges rng =
  let range () =
    let lo = Rng.int rng Prog.buf_size in
    (lo, min (Prog.buf_size - 1) (lo + Rng.int rng 64))
  in
  let a = range () in
  (a, range ())

let monotonic ((lo_a, hi_a), (lo_b, hi_b)) img =
  let lat, lc, hc = lc_hc () in
  let buf = Rv32_asm.Image.symbol img "buf" in
  let region name lo hi =
    Dift.Policy.region ~name ~lo:(buf + lo) ~hi:(buf + hi) ~tag:hc
  in
  let mk classification =
    Dift.Policy.make ~lattice:lat ~default_tag:lc ~classification ()
  in
  let soc_a, _ = run_tagged img (mk [ region "a" lo_a hi_a ]) in
  let soc_b, _ = run_tagged img (mk [ region "a" lo_a hi_a; region "b" lo_b hi_b ]) in
  let regs_a, bytes_a = footprint soc_a img hc in
  let regs_b, bytes_b = footprint soc_b img hc in
  let subset xs ys = List.for_all (fun x -> List.mem x ys) xs in
  if not (subset regs_a regs_b) then
    Some "a register tainted under A is clean under A∪B"
  else if not (subset bytes_a bytes_b) then
    Some "a scratch byte tainted under A is clean under A∪B"
  else None

(* Trap delivery must not be a taint channel: mepc/mcause/mtval are
   written by the trap-entry microarchitecture with control-plane (pub)
   tags, even when the trapping instruction was processing tainted data —
   e.g. an ecall with every argument register carrying HC, or a tainted
   ebreak skipped by the handler. A tainted trap CSR would let a handler
   launder secrets into "hardware" state. The generated scaffold only
   ever writes pub values into mtvec/mepc, so any HC on these CSRs after
   a run came from trap entry itself. *)
let trap_entry_pub img =
  let lat, lc, hc = lc_hc () in
  let buf = Rv32_asm.Image.symbol img "buf" in
  let policy =
    Dift.Policy.make ~lattice:lat ~default_tag:lc
      ~classification:
        [
          Dift.Policy.region ~name:"buf" ~lo:buf
            ~hi:(buf + Prog.buf_size - 1)
            ~tag:hc;
        ]
      ()
  in
  let soc, _ = run_tagged img policy in
  let c = Rv32.Core.csr soc.Vp.Soc.core in
  let checks =
    [
      ("mepc", c.Rv32.Csr.t_mepc);
      ("mcause", c.Rv32.Csr.t_mcause);
      ("mtval", c.Rv32.Csr.t_mtval);
      ("mtvec", c.Rv32.Csr.t_mtvec);
    ]
  in
  match
    List.find_opt (fun (_, t) -> not (Dift.Lattice.allowed_flow lat t lc)) checks
  with
  | Some (name, t) ->
      Some
        (Printf.sprintf "trap CSR %s carries tag %s after trap entry" name
           (Dift.Lattice.name lat t))
  | None -> None

let declass_free (r : Oracle.result3) =
  if r.Oracle.declassifications = 0 then None
  else
    Some
      (Printf.sprintf "%d declassification(s) with no declassifying peripheral in play"
         r.Oracle.declassifications)
