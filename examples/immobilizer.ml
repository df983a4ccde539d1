(* The car-engine-immobilizer case study of Section VI-A, end to end:

   1. the challenge-response protocol under the IFP-3 policy;
   2. the debug-dump vulnerability the policy catches;
   3. the fixed firmware passing cleanly;
   4. the entropy-reduction attack that slips past the base policy;
   5. the per-byte-class policy that catches it.

     dune exec examples/immobilizer.exe

   With --trace the vulnerable run of section 2 additionally records an
   execution trace and taint provenance (lib/trace, see docs/tracing.md)
   and writes immobilizer.trace.jsonl, immobilizer.forensics.txt and the
   persistent provenance-graph store immobilizer.iftg (docs/ift_graph.md,
   query it with vp_run analyze) — CI runs this as the tracing smoke test
   and diffs the store's analyze summary against a committed golden. *)

module Immo = Firmware.Immo_fw

let with_trace = Array.exists (String.equal "--trace") Sys.argv

let section title = Format.printf "@.== %s ==@." title

let make_soc ?(per_byte = false) ?(trace = false) img =
  let policy =
    if per_byte then Immo.per_byte_policy img else Immo.base_policy img
  in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let aes_out_tag, aes_in_clearance = Immo.aes_args policy in
  let tracer =
    if trace then Some (Trace.Tracer.create policy.Dift.Policy.lattice)
    else None
  in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking:true ~aes_out_tag
      ~aes_in_clearance ?tracer ()
  in
  let graph =
    Option.map
      (Trace.Graph.attach ~context:"immobilizer --trace smoke run")
      tracer
  in
  Vp.Soc.load_image soc img;
  (soc, policy, monitor, graph)

let hexdump s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
                      (List.init (String.length s) (String.get s)))

let () =
  section "1. challenge-response authentication (fixed firmware, IFP-3)";
  let img = Immo.image ~variant:(Immo.Normal { fixed_dump = true }) () in
  let soc, policy, monitor, _ = make_soc img in
  Format.printf "%a@." Dift.Policy.pp policy;
  let engine = Immo.Engine.attach soc ~challenge:"R4ND0MCH" in
  (match Vp.Soc.run_for_instructions soc 1_000_000 with
  | Rv32.Core.Exited 0 -> Format.printf "firmware completed.@."
  | _ -> Format.printf "unexpected exit@.");
  (match Immo.Engine.response engine with
  | Some r ->
      Format.printf "engine received response %s@." (hexdump r);
      Format.printf "response valid: %b   (AES-128(PIN, challenge))@."
        (Immo.Engine.response_valid engine)
  | None -> Format.printf "no response frames?!@.");
  Format.printf "declassifications by the AES peripheral: %d@."
    (Dift.Monitor.declassification_count monitor);

  section "2. the debug-dump vulnerability (shipped firmware)";
  let img_vuln = Immo.image ~variant:(Immo.Normal { fixed_dump = false }) () in
  let soc, policy_vuln, _, graph = make_soc ~trace:with_trace img_vuln in
  let _ = Immo.Engine.attach soc ~challenge:"R4ND0MCH" in
  Vp.Uart.push_rx soc.Vp.Soc.uart "D" (* attacker asks for a memory dump *);
  (match Vp.Soc.run_for_instructions soc 1_000_000 with
  | exception Dift.Violation.Violation v -> (
      Format.printf "DIFT stops the dump: %a@."
        (Dift.Violation.pp policy_vuln.Dift.Policy.lattice)
        v;
      match soc.Vp.Soc.env.Vp.Env.tracer with
      | Some tr ->
          let report =
            Trace.Forensics.make ~violation:v
              ~context:"immobilizer --trace smoke run" tr ()
          in
          Format.printf "%a@." Trace.Forensics.pp report;
          let oc = open_out "immobilizer.forensics.txt" in
          output_string oc (Trace.Forensics.to_string report);
          output_char oc '\n';
          close_out oc;
          Trace.Sink.write_file tr ~format:`Jsonl "immobilizer.trace.jsonl";
          Format.printf
            "wrote immobilizer.trace.jsonl (%d events) and immobilizer.forensics.txt@."
            (Trace.Tracer.events_recorded tr)
      | None -> ())
  | _ -> Format.printf "BUG: dump not detected@.");
  (match graph with
  | Some g ->
      Trace.Graph.write_file g "immobilizer.iftg";
      let b = Trace.Graph.builder g in
      Format.printf "wrote immobilizer.iftg (%d nodes, %d edges)@."
        (Iftgraph.Build.node_count b)
        (Iftgraph.Build.edge_count b)
  | None -> ());

  section "3. the fixed dump excludes the PIN region";
  let soc, _, _, _ = make_soc img in
  let _ = Immo.Engine.attach soc ~challenge:"R4ND0MCH" in
  Vp.Uart.push_rx soc.Vp.Soc.uart "D";
  (match Vp.Soc.run_for_instructions soc 1_000_000 with
  | Rv32.Core.Exited 0 ->
      Format.printf "dump served (%d bytes), no violation.@."
        (String.length (Vp.Uart.tx_string soc.Vp.Soc.uart))
  | _ -> Format.printf "unexpected exit@.");

  section "4. the entropy-reduction attack passes the base policy";
  let img_ent = Immo.image ~variant:Immo.Entropy_attack () in
  let soc, _, _, _ = make_soc img_ent in
  (match Vp.Soc.run_for_instructions soc 1_000_000 with
  | Rv32.Core.Exited 0 ->
      let pin = Rv32_asm.Image.symbol img_ent "pin" - Vp.Soc.ram_base in
      let bytes =
        List.init 16 (fun i -> Vp.Memory.read_byte soc.Vp.Soc.memory (pin + i))
      in
      Format.printf
        "attack ran to completion: PIN is now %s — one byte of entropy,@."
        (String.concat "" (List.map (Printf.sprintf "%02x") bytes));
      Format.printf
        "brute-forcible in 256 attempts. The policy never fired: PIN bytes@.";
      Format.printf "are (HC,HI) and so is the overwriting data.@."
  | _ -> Format.printf "unexpected exit@.");

  section "4b. ...and the exploit is real: brute-forcing the degraded key";
  let img_exploit = Immo.image ~variant:Immo.Entropy_then_serve () in
  let soc, _, _, _ = make_soc img_exploit in
  let engine = Immo.Engine.attach soc ~challenge:"R4ND0MCH" in
  (match Vp.Soc.run_for_instructions soc 1_000_000 with
  | Rv32.Core.Exited 0 -> (
      match Immo.Engine.response engine with
      | Some response -> (
          match
            Immo.Engine.brute_force_uniform ~challenge:"R4ND0MCH" ~response
          with
          | Some key ->
              Format.printf
                "from ONE sniffed response, 256 trial encryptions recover the degraded key:@.";
              Format.printf "  %s (16 copies of 0x%02x)@." (hexdump key)
                (Char.code key.[0])
          | None -> Format.printf "brute force failed?!@.")
      | None -> Format.printf "no response?!@.")
  | _ -> Format.printf "unexpected exit@.");

  section "5. one security class per PIN byte defeats it";
  let soc, policy, _, _ = make_soc ~per_byte:true img_ent in
  (match Vp.Soc.run_for_instructions soc 1_000_000 with
  | exception Dift.Violation.Violation v ->
      Format.printf "caught: %a@."
        (Dift.Violation.pp policy.Dift.Policy.lattice)
        v
  | _ -> Format.printf "BUG: not detected@.");

  section "6. and the protocol still works under the per-byte policy";
  let soc, _, _, _ = make_soc ~per_byte:true img in
  let engine = Immo.Engine.attach soc ~challenge:"R4ND0MCH" in
  (match Vp.Soc.run_for_instructions soc 1_000_000 with
  | Rv32.Core.Exited 0 ->
      Format.printf "response valid: %b@." (Immo.Engine.response_valid engine)
  | _ -> Format.printf "unexpected exit@.")
