(* Tier-1 tests for lib/iftgraph: the varint codec primitive, the query
   predicate language, canonical store encoding, and the acceptance path
   of the persistent graph store — the mtvec-hijack run's store
   re-encodes to the bytes on disk after ingestion, its backward
   source-finding query returns exactly the live forensic chain
   walk-back's source set, and a repeated query is answered from the
   memo table without touching the store files again. *)

open Helpers
module S = Iftgraph.Store
module B = Iftgraph.Build
module Q = Iftgraph.Query
module An = Iftgraph.Analyze
module Rp = Iftgraph.Report
module C = Snapshot.Codec
module T = Trace

(* --- Varint primitive ------------------------------------------------- *)

let test_varint () =
  let vals =
    [ 0; 1; 127; 128; 255; 300; 16383; 16384; (1 lsl 31) - 1; 1 lsl 31;
      max_int ]
  in
  let w = C.writer () in
  List.iter (C.put_varint w) vals;
  let r = C.reader (C.contents w) in
  List.iter (fun v -> check_int (string_of_int v) v (C.get_varint r)) vals;
  C.expect_end r;
  (* Minimal encodings: one byte up to 127, two up to 16383. *)
  let len v =
    let w = C.writer () in
    C.put_varint w v;
    String.length (C.contents w)
  in
  check_int "127 is one byte" 1 (len 127);
  check_int "128 is two bytes" 2 (len 128);
  check_bool "negative rejected" true
    (try
       C.put_varint (C.writer ()) (-1);
       false
     with Invalid_argument _ -> true);
  check_bool "truncated input raises Corrupt" true
    (try
       ignore (C.get_varint (C.reader "\x80"));
       false
     with C.Corrupt _ -> true)

(* --- Predicate language ----------------------------------------------- *)

let test_pred_parser () =
  let ok s p =
    match Q.parse_pred s with
    | Ok p' -> check_bool s true (p = p')
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  ok "violation:0" (Q.P_violation 0);
  ok "violation:7" (Q.P_violation 7);
  ok "pc:0x100" (Q.P_pc 0x100);
  ok "pc:256" (Q.P_pc 256);
  ok "tag:HI" (Q.P_tag "HI");
  ok "origin:uart.rx" (Q.P_origin "uart.rx");
  ok "addr:0x10013000" (Q.P_addr 0x10013000);
  List.iter
    (fun s ->
      match Q.parse_pred s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid predicate %S" s)
    [ ""; "violation"; "violation:x"; "bogus:1"; "pc:"; "addr:zzz" ];
  (* The printer round-trips through the parser. *)
  List.iter
    (fun p ->
      check_bool (Q.pred_to_string p) true
        (Q.parse_pred (Q.pred_to_string p) = Ok p))
    [ Q.P_violation 3; Q.P_pc 0x80000040; Q.P_tag "HC,LI";
      Q.P_origin "sensor"; Q.P_addr 0x2000 ]

(* --- Store encoding + single-store queries ---------------------------- *)

let small_store () =
  let b = B.create ~context:"unit test" ~classes:[ "LI"; "HI" ] () in
  B.set_pos b ~time:10 ~pc:0x100;
  B.add_seed b ~origin:"uart.rx" ~addr:0x10013000 ~time:10 ~tag:0 ();
  B.add_seed b ~origin:"policy-region:program" ~time:0 ~tag:1 ();
  B.set_pos b ~time:20 ~pc:0x104;
  B.add_merge b ~a:0 ~b:1 ~result:1;
  B.add_via b ~channel:"dma" ~tag:1;
  B.set_pos b ~time:30 ~pc:0x108;
  B.add_violation b ~what:"exec-clearance" ~pc:0x108 ~time:30 ~tag:1;
  let s = B.finish b in
  { s with S.meta = { s.S.meta with S.dropped_edges = 2; dropped_sources = 1 } }

(* A one-class, one-node store whose header claims [nclasses] classes and
   [n_nodes] nodes: honest at 1 and 1, hostile above. *)
let forged_store ~nclasses ~n_nodes =
  let meta = C.writer () in
  C.put_varint meta nclasses;
  C.put_string meta "LI";
  C.put_string meta "";
  List.iter (C.put_varint meta) [ 0; 0; n_nodes; 0 ];
  let strings = C.writer () in
  C.put_varint strings 1;
  C.put_string strings "";
  let nodes = C.writer () in
  List.iter (C.put_varint nodes) [ 0; 0; 0; 0; 0; 0; 0; 0; 1 ];
  let w = C.writer () in
  C.put_u32 w S.version;
  C.put_list w
    (fun w (name, payload) ->
      C.put_string w name;
      C.put_string w payload)
    [
      ("meta", C.contents meta);
      ("strings", C.contents strings);
      ("nodes", C.contents nodes);
      ("edges", "");
    ];
  S.magic ^ C.contents w

let test_store_roundtrip () =
  let s = small_store () in
  let blob = S.to_string s in
  check_string "magic leads the file" S.magic (String.sub blob 0 8);
  let s' = S.of_string blob in
  check_string "canonical: decode then encode is byte-identical" blob
    (S.to_string s');
  let seeds, merges, declasses, vias, violations = S.stats s' in
  check_int "seeds" 2 seeds;
  check_int "merges" 1 merges;
  check_int "declasses" 0 declasses;
  check_int "vias" 1 vias;
  check_int "violations" 1 violations;
  check_string "context" "unit test" s'.S.meta.S.context;
  check_int "dropped edges in header" 2 s'.S.meta.S.dropped_edges;
  check_int "dropped sources in header" 1 s'.S.meta.S.dropped_sources;
  check_bool "corrupt input raises" true
    (try
       ignore (S.of_string (S.magic ^ "garbage"));
       false
     with C.Corrupt _ -> true);
  check_bool "wrong magic raises" true
    (try
       ignore (S.of_string "NOTAGRPH");
       false
     with C.Corrupt _ -> true);
  check_int "forged store decodes at honest counts" 1
    (Array.length (S.of_string (forged_store ~nclasses:1 ~n_nodes:1)).S.nodes);
  (* Inflated counts raise Corrupt before anything is allocated. *)
  List.iter
    (fun (what, nclasses, n_nodes) ->
      check_bool what true
        (try
           ignore (S.of_string (forged_store ~nclasses ~n_nodes));
           false
         with C.Corrupt _ -> true))
    [
      ("2^60 nodes raises Corrupt", 1, 1 lsl 60);
      ("2^27 nodes raises Corrupt", 1, 1 lsl 27);
      ("2^60 classes raises Corrupt", 1 lsl 60, 1);
    ]

let test_store_queries () =
  let s = small_store () in
  let idx = S.index s in
  check_int "one violation indexed" 1 (Array.length idx.S.violations);
  (* Backward from the violation (tag HI): through the merge to both the
     program region (HI) and the uart seed (LI). *)
  let back = Q.sources_of s idx (Q.P_violation 0) in
  let origins = List.map (fun src -> src.Q.src_origin) back.Q.bk_sources in
  check_bool "backward reaches the uart seed" true
    (List.mem "uart.rx" origins);
  check_bool "backward reaches the program region" true
    (List.mem "policy-region:program" origins);
  check_int "two sources, deduped" 2 (List.length back.Q.bk_sources);
  (* Forward from the uart seed: its class feeds the merge and (through
     the HI chain) the violation. *)
  let reach = Q.reaches s idx (Q.P_origin "uart.rx") in
  check_bool "forward reach hits the violation" true
    (reach.Q.rc_violations <> []);
  check_bool "forward reach covers both classes" true
    (List.length reach.Q.rc_tags = 2);
  (* A predicate that matches nothing yields an empty, not an error. *)
  let none = Q.sources_of s idx (Q.P_violation 9) in
  check_bool "out-of-range violation index is empty" true
    (none.Q.bk_start = [] && none.Q.bk_sources = [])

(* --- Acceptance: trap hijack store, ingest, memoized query ------------ *)

let run_trap_store () =
  let scenario = Firmware.Trap_attacks.Mtvec_hijack in
  let img = Firmware.Trap_attacks.image scenario in
  let policy = Firmware.Trap_attacks.policy scenario img in
  let tracer = T.Tracer.create policy.Dift.Policy.lattice in
  let sink = T.Graph.attach ~context:"test trap hijack" tracer in
  (match Firmware.Trap_attacks.run ~tracer scenario with
  | Firmware.Trap_attacks.Detected -> ()
  | Firmware.Trap_attacks.Missed c ->
      Alcotest.failf "mtvec hijack missed (exit %d)" c);
  let store = T.Graph.finish sink in
  T.Graph.detach sink;
  (tracer, store)

let with_store_dir stores f =
  let dir = Filename.temp_dir "iftgraph" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      List.iter (fun (name, s) -> S.write_file s (Filename.concat dir name))
        stores;
      f dir)

let test_trap_hijack_analyze () =
  let tracer, store = run_trap_store () in
  check_bool "store is non-trivial" true (Array.length store.S.nodes >= 2);
  let blob = S.to_string store in
  with_store_dir
    [ ("a.iftg", store); ("b.iftg", store); ("c.iftg", store) ]
    (fun dir ->
      let a1 = An.load_dir dir in
      check_int "three stores listed" 3 (An.run_count a1);
      (* Every decoded store re-encodes to the exact bytes on disk. *)
      check_bool "re-encode matches the bytes on disk" true
        (List.for_all
           (fun (_, s, _) -> String.equal (S.to_string s) blob)
           (An.stores a1));
      (* The backward query's source set equals the live forensic chain
         walk-back's, exactly. *)
      let back = An.sources_of a1 (Q.P_violation 0) in
      check_int "an answer per store" 3 (List.length back);
      let _, b0 = List.hd back in
      let store_set =
        List.sort_uniq compare
          (List.map
             (fun src -> (src.Q.src_origin, src.Q.src_addr, src.Q.src_tag))
             b0.Q.bk_sources)
      in
      let vtag = ref None in
      T.Ring.iter tracer.T.Tracer.ring (fun e ->
          if e.T.Event.kind = T.Event.Violation then
            vtag := Some e.T.Event.tag);
      let vtag =
        match !vtag with
        | Some t -> t
        | None -> Alcotest.fail "no violation event in the ring"
      in
      let live = B.finish tracer.T.Tracer.graph in
      let chain = T.Provenance.chain live (S.index live) vtag in
      let live_set =
        List.sort_uniq compare
          (List.map
             (fun s ->
               (s.T.Provenance.s_origin, s.T.Provenance.s_addr,
                s.T.Provenance.s_tag))
             chain.T.Provenance.c_sources)
      in
      check_bool "source set equals the forensic walk-back" true
        (store_set = live_set);
      check_bool "the attack input channel is a source" true
        (List.exists (fun (o, _, _) -> o = "uart.rx") store_set);
      (* Memoized repeat: identical answer, zero store reads beyond the
         index, one more memo hit. *)
      let reads = An.store_reads a1 in
      check_int "each store read exactly once" 3 reads;
      let hits = An.memo_hits a1 in
      let back' = An.sources_of a1 (Q.P_violation 0) in
      check_bool "memoized result identical" true (back = back');
      check_int "no store reads beyond the index" reads (An.store_reads a1);
      check_bool "memo hit counted" true (An.memo_hits a1 > hits);
      (* Every report kind validates against its schema. *)
      let checkv name j =
        match Rp.validate j with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s report invalid: %s" name e
      in
      checkv "sources-of" (Rp.sources_json a1 (Q.P_violation 0));
      checkv "reaches" (Rp.reaches_json a1 (Q.P_origin "uart.rx"));
      checkv "summary" (Rp.summary_json a1);
      (* The cross-run summary aggregates all three stores. *)
      let sm = An.summary a1 in
      check_int "a run row per store" 3 (List.length sm.An.sm_runs);
      check_int "violations totalled" 3 sm.An.sm_total_violations;
      check_bool "uart.rx in the origin histogram" true
        (List.exists
           (fun o -> o.An.o_origin = "uart.rx" && o.An.o_runs = 3)
           sm.An.sm_origins);
      check_bool "top flow path is uart.rx -> the trap violation" true
        (match sm.An.sm_top_paths with
        | p :: _ -> p.An.p_origin = "uart.rx" && p.An.p_flows = 3
        | [] -> false))

(* The analyzer raises on paths that are not directories and skips
   non-store files rather than tripping over them. *)
let test_analyze_edges () =
  check_bool "load_dir rejects a non-directory" true
    (try
       ignore (An.load_dir "/nonexistent/iftgraph/stores");
       false
     with Invalid_argument _ -> true);
  let s = small_store () in
  with_store_dir [ ("only.iftg", s) ] (fun dir ->
      let oc = open_out (Filename.concat dir "README.txt") in
      output_string oc "not a store\n";
      close_out oc;
      let a = An.load_dir dir in
      check_int "only .iftg files selected" 1 (An.run_count a);
      let sm = An.summary a in
      check_int "one run row" 1 (List.length sm.An.sm_runs);
      let r = List.hd sm.An.sm_runs in
      check_string "run named after the file" "only.iftg" r.An.r_name;
      check_int "truncation flagged from the header" 1 sm.An.sm_truncated_runs)

let () =
  Alcotest.run "iftgraph"
    [
      ( "codec",
        [ Alcotest.test_case "varint round-trip" `Quick test_varint ] );
      ( "query",
        [
          Alcotest.test_case "predicate parser" `Quick test_pred_parser;
          Alcotest.test_case "store round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "backward + forward queries" `Quick
            test_store_queries;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "trap hijack: ingest, exact sources, memoized \
                              repeat" `Quick test_trap_hijack_analyze;
          Alcotest.test_case "analyzer edge cases" `Quick test_analyze_edges;
        ] );
    ]
