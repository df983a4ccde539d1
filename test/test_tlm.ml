(* TLM payloads, sockets and the address-mapped router. *)

open Helpers
module P = Tlm.Payload
module S = Tlm.Socket
module R = Tlm.Router

let lat = Dift.Lattice.integrity ()
let hi = Dift.Lattice.tag_of_name lat "HI"
let li = Dift.Lattice.tag_of_name lat "LI"

let widths = [ 1; 2; 4 ]

(* A register value of the payload's width: little-endian bytes, one tag
   for all of them, zero-extended on the way back, high bits dropped on
   the way in. *)
let test_payload_codec () =
  List.iter
    (fun len ->
      let p = P.create ~len ~default_tag:hi () in
      let mask = (1 lsl (8 * len)) - 1 in
      P.set_value p 0x1_8899_aabb ~tag:li;
      check_int (Printf.sprintf "width %d round-trip" len)
        (0x8899_aabb land mask) (P.value p);
      for i = 0 to len - 1 do
        check_int "little-endian byte" ((0x8899_aabb lsr (8 * i)) land 0xff)
          (P.get_byte p i);
        check_int "every byte tagged" li (P.get_tag p i)
      done)
    widths

let test_payload_lub_tag () =
  List.iter
    (fun len ->
      let p = P.create ~len ~default_tag:hi () in
      check_int (Printf.sprintf "width %d uniform" len) hi (P.lub_tag lat p);
      P.set_tag p (len - 1) li;
      for i = 0 to len - 2 do
        check_int "lower bytes keep their tag" hi (P.get_tag p i)
      done;
      check_int (Printf.sprintf "width %d LUB" len) li (P.lub_tag lat p))
    widths

let test_payload_tags_travel () =
  let p = P.create ~len:8 ~default_tag:hi () in
  P.set_all_tags p li;
  for i = 0 to 7 do
    check_int "all tagged" li (P.get_tag p i)
  done

(* An echo target that records what it saw and doubles incoming bytes. *)
let make_echo name =
  let last = ref None in
  let t =
    S.target ~name (fun p delay ->
        last := Some (p.P.cmd, p.P.addr, P.get_byte p 0);
        if p.P.cmd = P.Read then P.set_byte p 0 0x5a;
        p.P.resp <- P.Ok_resp;
        Sysc.Time.add delay (Sysc.Time.ns 7))
  in
  (t, last)

let test_socket_binding () =
  let t, last = make_echo "echo" in
  let i = S.initiator ~name:"cpu" in
  check_bool "unbound transport raises" true
    (try
       ignore (S.transport i (P.create ~len:1 ~default_tag:hi ()) 0);
       false
     with S.Unbound _ -> true);
  S.bind i t;
  let p = P.create ~cmd:P.Read ~addr:0x10 ~len:1 ~default_tag:hi () in
  let d = S.transport i p Sysc.Time.zero in
  check_int "delay annotated" (Sysc.Time.ns 7) d;
  check_int "target ran" 0x5a (P.get_byte p 0);
  check_bool "target saw the address" true (!last = Some (P.Read, 0x10, 0))

let test_router_dispatch_and_offset () =
  let r = R.create ~name:"bus" () in
  let seen = ref [] in
  let target name =
    S.target ~name (fun p d ->
        seen := (name, p.P.addr) :: !seen;
        p.P.resp <- P.Ok_resp;
        d)
  in
  R.map r ~lo:0x1000 ~hi:0x1fff (target "a");
  R.map r ~lo:0x8000 ~hi:0x8fff (target "b");
  let sock = R.target_socket r in
  let p = P.create ~cmd:P.Read ~addr:0x1010 ~len:1 ~default_tag:hi () in
  ignore (S.call sock p Sysc.Time.zero);
  check_bool "routed to a with local offset" true (!seen = [ ("a", 0x10) ]);
  check_int "global address restored" 0x1010 p.P.addr;
  p.P.addr <- 0x8123;
  ignore (S.call sock p Sysc.Time.zero);
  check_bool "routed to b" true (List.hd !seen = ("b", 0x123))

let test_router_unmapped () =
  let r = R.create ~name:"bus" () in
  let sock = R.target_socket r in
  let p = P.create ~cmd:P.Read ~addr:0xdead ~len:1 ~default_tag:hi () in
  ignore (S.call sock p Sysc.Time.zero);
  check_bool "address error" true (p.P.resp = P.Address_error)

let test_router_overlap_rejected () =
  let r = R.create ~name:"bus" () in
  let t = S.target ~name:"x" (fun _ d -> d) in
  R.map r ~lo:0 ~hi:10 t;
  check_bool "overlap" true
    (try R.map r ~lo:5 ~hi:20 t; false with Invalid_argument _ -> true);
  check_bool "empty range" true
    (try R.map r ~lo:30 ~hi:20 t; false with Invalid_argument _ -> true)

(* Many targets, mapped in shuffled order: every address must reach its
   own target with the right local offset (exercises the sorted-array
   binary search across all positions, both ends included), gaps between
   ranges must still address-error, and so must addresses below the
   lowest and above the highest range. *)
let test_router_many_targets () =
  let r = R.create ~name:"bus" () in
  let n = 64 in
  let hit = Array.make n (-1) in
  (* Deterministic shuffle of the mapping order. *)
  let order = Array.init n (fun i -> (i * 37) mod n) in
  Array.iter
    (fun i ->
      let t =
        S.target ~name:(Printf.sprintf "t%02d" i) (fun p d ->
            hit.(i) <- p.P.addr;
            p.P.resp <- P.Ok_resp;
            d)
      in
      (* Ranges of width 0x100 with a 0x100 gap between neighbours. *)
      R.map r ~lo:(i * 0x200) ~hi:((i * 0x200) + 0xff) t)
    order;
  let sock = R.target_socket r in
  let send addr =
    Array.fill hit 0 n (-1);
    let p = P.create ~cmd:P.Read ~addr ~len:1 ~default_tag:hi () in
    ignore (S.call sock p Sysc.Time.zero);
    p.P.resp
  in
  let unmapped what addr =
    check_bool what true (send addr = P.Address_error);
    check_bool (what ^ ": no target ran") true (Array.for_all (( = ) (-1)) hit)
  in
  for i = 0 to n - 1 do
    let off = if i land 1 = 0 then 0 else 0xff in
    check_bool "ok response" true (send ((i * 0x200) + off) = P.Ok_resp);
    check_int (Printf.sprintf "target %d hit at local offset" i) off hit.(i);
    Array.iteri
      (fun j a -> if j <> i && a <> -1 then Alcotest.failf "target %d also hit" j)
      hit;
    (* The gap just above this range is unmapped. *)
    unmapped "gap address-errors" ((i * 0x200) + 0x100)
  done;
  unmapped "below all" (-1);
  unmapped "above all" (((n - 1) * 0x200) + 0x100)

(* The byte-at-a-time codec the word-wide one must agree with. *)
let ref_value p =
  let v = ref 0 in
  for i = P.length p - 1 downto 0 do
    v := (!v lsl 8) lor P.get_byte p i
  done;
  !v

let ref_set_value p v ~tag =
  for i = 0 to P.length p - 1 do
    P.set_byte p i (v lsr (8 * i));
    P.set_tag p i tag
  done

let prop_codec_matches_byte_loop =
  let open QCheck in
  Test.make ~name:"codec matches byte loop" ~count:1000
    (quad (oneofl widths) int (int_bound 255) (string_of_size (Gen.return 4)))
    (fun (len, v, tag, bytes) ->
      let p = P.create ~len ~default_tag:hi () and q = P.create ~len ~default_tag:hi () in
      for i = 0 to len - 1 do
        P.set_byte p i (Char.code bytes.[i])
      done;
      let read_ok = P.value p = ref_value p in
      P.set_value p v ~tag;
      ref_set_value q v ~tag;
      let write_ok = p.P.data = q.P.data && p.P.tags = q.P.tags in
      P.set_tag p 0 hi;
      P.set_all_tags p tag;
      read_ok && write_ok && p.P.tags = q.P.tags)

(* Tags are bytes: 255 is the largest that travels, 256 (or a negative
   tag) is refused rather than truncated. *)
let test_codec_tag_range () =
  List.iter
    (fun len ->
      let p = P.create ~len ~default_tag:hi () in
      P.set_value p 0 ~tag:255;
      for i = 0 to len - 1 do
        check_int (Printf.sprintf "width %d tag 255" len) 255 (P.get_tag p i)
      done;
      P.set_all_tags p 255;
      check_int "set_all_tags 255" 255 (P.get_tag p (len - 1));
      List.iter
        (fun bad ->
          let refused f = try f (); false with Invalid_argument _ -> true in
          check_bool (Printf.sprintf "width %d set_value tag %d" len bad) true
            (refused (fun () -> P.set_value p 0 ~tag:bad));
          check_bool (Printf.sprintf "width %d set_all_tags %d" len bad) true
            (refused (fun () -> P.set_all_tags p bad));
          check_int "tags untouched" 255 (P.get_tag p 0))
        [ 256; -1 ])
    widths

(* The SoC's shape: ranges of different sizes, two of them adjacent.
   Each range's first and last byte reaches it at local offsets 0 and
   size - 1, and the observer sees the global address; every address
   around them that no range claims completes with [Address_error], runs
   no target and is not observed. *)
let test_router_range_edges () =
  let r = R.create ~name:"bus" () in
  let ranges =
    [ ("clint", 0x0200_0000, 0x0200_ffff); ("uart", 0x1000_0000, 0x1000_00ff);
      ("gpio", 0x1000_0100, 0x1000_01ff); ("ram", 0x8000_0000, 0x800f_ffff) ]
  in
  let hit = ref None and observed = ref None in
  List.iter
    (fun (name, lo, hi) ->
      R.map r ~lo ~hi
        (S.target ~name (fun p d ->
             hit := Some (name, p.P.addr);
             p.P.resp <- P.Ok_resp;
             d)))
    (List.rev ranges);
  R.set_observer r (Some (fun p name -> observed := Some (name, p.P.addr)));
  let sock = R.target_socket r in
  let send addr =
    hit := None;
    observed := None;
    let p = P.create ~cmd:P.Read ~addr ~len:1 ~default_tag:hi () in
    ignore (S.call sock p Sysc.Time.zero);
    check_int "global address restored" addr p.P.addr;
    p.P.resp
  in
  List.iter
    (fun (name, lo, hi) ->
      List.iter
        (fun addr ->
          let what = Printf.sprintf "%s at 0x%x" name addr in
          check_bool what true (send addr = P.Ok_resp);
          check_bool (what ^ ": local offset") true (!hit = Some (name, addr - lo));
          check_bool (what ^ ": observed globally") true
            (!observed = Some (name, addr)))
        [ lo; hi ])
    ranges;
  List.iter
    (fun addr ->
      let what = Printf.sprintf "unclaimed 0x%x" addr in
      check_bool what true (send addr = P.Address_error);
      check_bool (what ^ ": no target ran") true (!hit = None);
      check_bool (what ^ ": not observed") true (!observed = None))
    [ 0; 0x01ff_ffff; 0x0201_0000; 0x0fff_ffff; 0x1000_0200; 0x7fff_ffff;
      0x8010_0000; max_int ]

let prop_payload_byte_roundtrip =
  let open QCheck in
  Test.make ~name:"payload byte set/get" ~count:300
    (pair (int_bound 255) (int_bound 7))
    (fun (v, i) ->
      let p = P.create ~len:8 ~default_tag:hi () in
      P.set_byte p i v;
      P.get_byte p i = v)

let () =
  Alcotest.run "tlm"
    [
      ( "payload",
        [
          Alcotest.test_case "word accessors" `Quick test_payload_codec;
          Alcotest.test_case "word tag LUB" `Quick test_payload_lub_tag;
          Alcotest.test_case "tags travel" `Quick test_payload_tags_travel;
          Alcotest.test_case "codec tag range" `Quick test_codec_tag_range;
        ] );
      ( "socket/router",
        [
          Alcotest.test_case "socket binding" `Quick test_socket_binding;
          Alcotest.test_case "router dispatch + offset" `Quick
            test_router_dispatch_and_offset;
          Alcotest.test_case "unmapped address" `Quick test_router_unmapped;
          Alcotest.test_case "overlap rejected" `Quick test_router_overlap_rejected;
          Alcotest.test_case "many targets, binary search" `Quick
            test_router_many_targets;
          Alcotest.test_case "range edges and gaps" `Quick
            test_router_range_edges;
        ] );
      ( "props",
        [ qtest prop_payload_byte_roundtrip; qtest prop_codec_matches_byte_loop ]
      );
    ]
