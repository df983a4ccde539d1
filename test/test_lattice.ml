(* IFP lattices: construction, the Fig. 1 examples, and algebraic laws. *)

open Helpers
module L = Dift.Lattice

let t lat n = L.tag_of_name lat n
let flow lat a b = L.allowed_flow lat (t lat a) (t lat b)

let test_confidentiality () =
  let l = L.confidentiality () in
  check_int "two classes" 2 (L.size l);
  check_bool "LC -> HC" true (flow l "LC" "HC");
  check_bool "HC -/-> LC" false (flow l "HC" "LC");
  check_bool "reflexive LC" true (flow l "LC" "LC");
  check_bool "reflexive HC" true (flow l "HC" "HC");
  check_string "lub" "HC" (L.name l (L.lub l (t l "LC") (t l "HC")));
  check_string "bottom" "LC" (L.name l (Option.get (L.bottom l)));
  check_string "top" "HC" (L.name l (Option.get (L.top l)))

let test_integrity () =
  let l = L.integrity () in
  check_bool "HI -> LI" true (flow l "HI" "LI");
  check_bool "LI -/-> HI" false (flow l "LI" "HI");
  check_string "lub HI LI" "LI" (L.name l (L.lub l (t l "HI") (t l "LI")))

(* The worked example from Section IV-A: in IFP-3,
   LUB((LC,LI), (HC,HI)) = (HC,LI). *)
let test_ifp3_paper_example () =
  let l = L.ifp3 () in
  check_int "four classes" 4 (L.size l);
  let a = t l "LC,LI" and b = t l "HC,HI" in
  check_string "paper's LUB example" "HC,LI" (L.name l (L.lub l a b));
  check_bool "(LC,HI) is bottom" true
    (L.name l (Option.get (L.bottom l)) = "LC,HI");
  check_bool "(HC,LI) is top" true (L.name l (Option.get (L.top l)) = "HC,LI");
  check_bool "(LC,LI) and (HC,HI) incomparable" true
    ((not (flow l "LC,LI" "HC,HI")) && not (flow l "HC,HI" "LC,LI"))

let test_product_componentwise () =
  let c = L.confidentiality () and i = L.integrity () in
  let l = L.product c i in
  List.iter
    (fun (ca, ia) ->
      List.iter
        (fun (cb, ib) ->
          let name_a = ca ^ "," ^ ia and name_b = cb ^ "," ^ ib in
          let expected = flow c ca cb && flow i ia ib in
          check_bool
            (Printf.sprintf "flow %s -> %s" name_a name_b)
            expected (flow l name_a name_b))
        [ ("LC", "HI"); ("LC", "LI"); ("HC", "HI"); ("HC", "LI") ])
    [ ("LC", "HI"); ("LC", "LI"); ("HC", "HI"); ("HC", "LI") ]

let test_per_byte_key () =
  let l = L.per_byte_key ~n:4 in
  check_int "3 + n classes" 7 (L.size l);
  check_bool "KEY0 -/-> KEY1" false (flow l "KEY0" "KEY1");
  check_bool "KEY2 -/-> KEY0" false (flow l "KEY2" "KEY0");
  check_bool "KEY0 -> KEY0" true (flow l "KEY0" "KEY0");
  check_bool "bottom -> KEY3" true (flow l "LC,HI" "KEY3");
  check_bool "KEY1 -> top" true (flow l "KEY1" "HC,LI");
  check_bool "KEY0 -/-> LC,LI (stays confidential)" false (flow l "KEY0" "LC,LI");
  check_string "lub of two key bytes hits top" "HC,LI"
    (L.name l (L.lub l (t l "KEY0") (t l "KEY1")))

let test_errors () =
  let is_err = function Error _ -> true | Ok _ -> false in
  check_bool "duplicate class" true
    (is_err (L.make ~classes:[ "A"; "A" ] ~flows:[]));
  check_bool "unknown class in flow" true
    (is_err (L.make ~classes:[ "A" ] ~flows:[ ("A", "B") ]));
  check_bool "cycle" true
    (is_err (L.make ~classes:[ "A"; "B" ] ~flows:[ ("A", "B"); ("B", "A") ]));
  check_bool "no LUB (two maximal elements)" true
    (is_err (L.make ~classes:[ "BOT"; "X"; "Y" ] ~flows:[ ("BOT", "X"); ("BOT", "Y") ]));
  check_bool "empty" true (is_err (L.make ~classes:[] ~flows:[]));
  check_bool "diamond is fine" true
    (match
       L.make ~classes:[ "B"; "X"; "Y"; "T" ]
         ~flows:[ ("B", "X"); ("B", "Y"); ("X", "T"); ("Y", "T") ]
     with
    | Ok _ -> true
    | Error _ -> false)

let test_transitivity_closure () =
  let l = L.make_exn ~classes:[ "A"; "B"; "C" ] ~flows:[ ("A", "B"); ("B", "C") ] in
  check_bool "A -> C by transitivity" true (flow l "A" "C")

let test_to_dot () =
  let l = L.ifp3 () in
  let dot = L.to_dot l in
  check_bool "mentions classes" true (Astring_contains.contains ~sub:"HC,LI" dot);
  check_bool "digraph" true (Astring_contains.contains ~sub:"digraph" dot)

(* The flat tables an engine caches agree with [lub] / [allowed_flow] on
   every pair, and the LUB entries with the join recomputed from the flow
   relation. *)
let test_flat_tables () =
  List.iter
    (fun (what, l) ->
      let n = L.size l in
      let lubs = L.lub_flat l and flows = L.flow_flat l in
      check_int (what ^ ": lub table size") (n * n) (Array.length lubs);
      check_int (what ^ ": flow table size") (n * n) (Array.length flows);
      for x = 0 to n - 1 do
        for y = 0 to n - 1 do
          let pair = Printf.sprintf "%s: (%d, %d)" what x y in
          check_int (pair ^ " lub") (L.lub l x y) lubs.((x * n) + y);
          check_int (pair ^ " recomputed lub") (L.lub_uncached l x y)
            lubs.((x * n) + y);
          check_bool (pair ^ " flow") (L.allowed_flow l x y)
            flows.((x * n) + y)
        done
      done;
      (* A tag past the last class is refused, not read from the next
         row. *)
      check_bool (what ^ ": lub refuses y = n") true
        (match L.lub l 0 n with
        | exception Invalid_argument _ -> true
        | _ -> false);
      check_bool (what ^ ": allowed_flow refuses y = n") true
        (match L.allowed_flow l 0 n with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      ("confidentiality", L.confidentiality ());
      ("integrity", L.integrity ());
      ("ifp3", L.ifp3 ());
      ("per_byte_key 8", L.per_byte_key ~n:8);
      ("ifp3 x ifp3", L.product ~sep:"/" (L.ifp3 ()) (L.ifp3 ()));
    ]

(* --- property tests ------------------------------------------------- *)

let sample_lattices =
  [ L.confidentiality (); L.integrity (); L.ifp3 (); L.per_byte_key ~n:8 ]

let lattice_and_tags =
  let open QCheck in
  let gen =
    Gen.(
      int_bound (List.length sample_lattices - 1) >>= fun li ->
      let l = List.nth sample_lattices li in
      int_bound (L.size l - 1) >>= fun a ->
      int_bound (L.size l - 1) >>= fun b ->
      int_bound (L.size l - 1) >>= fun c -> return (li, a, b, c))
  in
  make ~print:(fun (li, a, b, c) -> Printf.sprintf "(lat %d, %d, %d, %d)" li a b c) gen

let lat_of (li, _, _, _) = List.nth sample_lattices li

let prop_lub_idempotent =
  QCheck.Test.make ~name:"lub idempotent" ~count:500 lattice_and_tags
    (fun ((_, a, _, _) as x) ->
      let l = lat_of x in
      L.lub l a a = a)

let prop_lub_commutative =
  QCheck.Test.make ~name:"lub commutative" ~count:500 lattice_and_tags
    (fun ((_, a, b, _) as x) ->
      let l = lat_of x in
      L.lub l a b = L.lub l b a)

let prop_lub_associative =
  QCheck.Test.make ~name:"lub associative" ~count:500 lattice_and_tags
    (fun ((_, a, b, c) as x) ->
      let l = lat_of x in
      L.lub l a (L.lub l b c) = L.lub l (L.lub l a b) c)

let prop_lub_upper_bound =
  QCheck.Test.make ~name:"lub is an upper bound" ~count:500 lattice_and_tags
    (fun ((_, a, b, _) as x) ->
      let l = lat_of x in
      let u = L.lub l a b in
      L.allowed_flow l a u && L.allowed_flow l b u)

let prop_lub_least =
  QCheck.Test.make ~name:"lub is least among upper bounds" ~count:500
    lattice_and_tags (fun ((_, a, b, c) as x) ->
      let l = lat_of x in
      if L.allowed_flow l a c && L.allowed_flow l b c then
        L.allowed_flow l (L.lub l a b) c
      else true)

let prop_order_antisym =
  QCheck.Test.make ~name:"flow is antisymmetric" ~count:500 lattice_and_tags
    (fun ((_, a, b, _) as x) ->
      let l = lat_of x in
      if L.allowed_flow l a b && L.allowed_flow l b a then a = b else true)

let prop_order_transitive =
  QCheck.Test.make ~name:"flow is transitive" ~count:500 lattice_and_tags
    (fun ((_, a, b, c) as x) ->
      let l = lat_of x in
      if L.allowed_flow l a b && L.allowed_flow l b c then L.allowed_flow l a c
      else true)

let prop_lub_uncached_agrees =
  QCheck.Test.make ~name:"lub_uncached = lub" ~count:500 lattice_and_tags
    (fun ((_, a, b, _) as x) ->
      let l = lat_of x in
      L.lub_uncached l a b = L.lub l a b)

let prop_lub_monotone =
  QCheck.Test.make ~name:"lub monotone" ~count:500 lattice_and_tags
    (fun ((_, a, b, c) as x) ->
      let l = lat_of x in
      if L.allowed_flow l a b then L.allowed_flow l (L.lub l a c) (L.lub l b c)
      else true)

let () =
  Alcotest.run "lattice"
    [
      ( "unit",
        [
          Alcotest.test_case "IFP-1 confidentiality" `Quick test_confidentiality;
          Alcotest.test_case "IFP-2 integrity" `Quick test_integrity;
          Alcotest.test_case "IFP-3 paper example" `Quick test_ifp3_paper_example;
          Alcotest.test_case "product is component-wise" `Quick
            test_product_componentwise;
          Alcotest.test_case "per-byte key lattice" `Quick test_per_byte_key;
          Alcotest.test_case "construction errors" `Quick test_errors;
          Alcotest.test_case "transitive closure" `Quick test_transitivity_closure;
          Alcotest.test_case "dot output" `Quick test_to_dot;
          Alcotest.test_case "flat tables" `Quick test_flat_tables;
        ] );
      ( "laws",
        List.map qtest
          [
            prop_lub_idempotent;
            prop_lub_commutative;
            prop_lub_associative;
            prop_lub_upper_bound;
            prop_lub_least;
            prop_order_antisym;
            prop_order_transitive;
            prop_lub_monotone;
            prop_lub_uncached_agrees;
          ] );
    ]
