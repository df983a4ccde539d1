(* The SystemC-like simulation kernel: scheduling semantics. *)

open Helpers
module K = Sysc.Kernel
module T = Sysc.Time

let test_time_units () =
  check_int "1 us = 1000 ns" (T.us 1) (T.ns 1000);
  check_int "1 ms = 1000 us" (T.ms 1) (T.us 1000);
  check_int "1 s = 1000 ms" (T.sec 1) (T.ms 1000);
  check_string "pp ms" "25 ms" (Format.asprintf "%a" T.pp (T.ms 25))

let test_wait_advances_time () =
  let k = K.create () in
  let seen = ref [] in
  K.spawn k ~name:"p" (fun () ->
      K.wait_for (T.ns 10);
      seen := (K.now k, "a") :: !seen;
      K.wait_for (T.ns 5);
      seen := (K.now k, "b") :: !seen);
  K.run k;
  Alcotest.(check (list (pair int string)))
    "timeline"
    [ (T.ns 10, "a"); (T.ns 15, "b") ]
    (List.rev !seen)

let test_two_processes_interleave () =
  let k = K.create () in
  let log = ref [] in
  let proc name period n () =
    for i = 1 to n do
      K.wait_for period;
      log := (K.now k, name, i) :: !log
    done
  in
  K.spawn k ~name:"fast" (proc "fast" (T.ns 10) 3);
  K.spawn k ~name:"slow" (proc "slow" (T.ns 25) 2);
  K.run k;
  let events = List.rev !log in
  Alcotest.(check (list (triple int string int)))
    "interleaving"
    [ (T.ns 10, "fast", 1); (T.ns 20, "fast", 2); (T.ns 25, "slow", 1);
      (T.ns 30, "fast", 3); (T.ns 50, "slow", 2) ]
    events

let test_event_notify_delta () =
  let k = K.create () in
  let ev = K.create_event k "ev" in
  let got = ref false in
  K.spawn k ~name:"waiter" (fun () ->
      K.wait_event ev;
      got := true);
  K.spawn k ~name:"notifier" (fun () -> K.notify ev);
  K.run k;
  check_bool "waiter woke" true !got;
  check_bool "some delta cycles ran" true (K.delta_count k >= 1)

let test_event_timed_notify () =
  let k = K.create () in
  let ev = K.create_event k "ev" in
  let at = ref (-1) in
  K.spawn k ~name:"waiter" (fun () ->
      K.wait_event ev;
      at := K.now k);
  K.spawn k ~name:"notifier" (fun () -> K.notify_after ev (T.us 3));
  K.run k;
  check_int "woken at 3us" (T.us 3) !at

let test_until_limit () =
  let k = K.create () in
  let count = ref 0 in
  K.spawn k ~name:"ticker" (fun () ->
      while true do
        K.wait_for (T.us 1);
        incr count
      done);
  K.run ~until:(T.us 10) k;
  check_bool "stopped around 10 ticks" true (!count <= 10);
  check_bool "ran most ticks" true (!count >= 9)

let test_stop () =
  let k = K.create () in
  let count = ref 0 in
  K.spawn k ~name:"ticker" (fun () ->
      while true do
        K.wait_for (T.us 1);
        incr count;
        if !count = 5 then K.stop k
      done);
  K.run k;
  check_int "stopped at 5" 5 !count

let test_exception_propagates () =
  let k = K.create () in
  K.spawn k ~name:"boom" (fun () ->
      K.wait_for (T.ns 1);
      failwith "boom");
  check_bool "exception re-raised from run" true
    (try K.run k; false with Failure m -> m = "boom")

let test_halt () =
  let k = K.create () in
  let after = ref false in
  K.spawn k ~name:"h" (fun () ->
      K.halt ();
      after := true);
  K.run k;
  check_bool "code after halt not run" false !after

let test_immediate_vs_delta_order () =
  (* Immediate notification wakes in the same evaluation phase; delta in
     the next one. *)
  let k = K.create () in
  let ei = K.create_event k "imm" and ed = K.create_event k "del" in
  let order = ref [] in
  K.spawn k ~name:"wi" (fun () ->
      K.wait_event ei;
      order := "imm" :: !order);
  K.spawn k ~name:"wd" (fun () ->
      K.wait_event ed;
      order := "del" :: !order);
  K.spawn k ~name:"n" (fun () ->
      K.notify ed;
      K.notify_immediate ei);
  K.run k;
  Alcotest.(check (list string)) "immediate first" [ "imm"; "del" ] (List.rev !order)

let test_same_time_fifo () =
  (* Two timed wakeups at the same instant run in scheduling order. *)
  let k = K.create () in
  let order = ref [] in
  K.spawn k ~name:"a" (fun () ->
      K.wait_for (T.ns 10);
      order := "a" :: !order);
  K.spawn k ~name:"b" (fun () ->
      K.wait_for (T.ns 10);
      order := "b" :: !order);
  K.run k;
  Alcotest.(check (list string)) "fifo" [ "a"; "b" ] (List.rev !order)

let test_wait_zero () =
  let k = K.create () in
  let steps = ref 0 in
  K.spawn k ~name:"z" (fun () ->
      K.wait_for 0;
      incr steps;
      K.wait_for 0;
      incr steps);
  K.run k;
  check_int "zero-delay waits complete" 2 !steps

let test_heap_ordering () =
  let h = Sysc.Heap.create () in
  List.iter (fun x -> Sysc.Heap.push h ~key:x x) [ 5; 1; 4; 1; 3; 9; 0 ];
  let popped = ref [] in
  let rec drain () =
    match Sysc.Heap.pop h with
    | Some (k, _) ->
        popped := k :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ] (List.rev !popped)

let prop_heap_sorts =
  let open QCheck in
  Test.make ~name:"heap pops keys in order" ~count:200
    (list_of_size Gen.(int_bound 50) (int_bound 1000))
    (fun keys ->
      let h = Sysc.Heap.create () in
      List.iter (fun k -> Sysc.Heap.push h ~key:k k) keys;
      let rec drain acc =
        match Sysc.Heap.pop h with
        | Some (k, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort Int.compare keys)

let () =
  Alcotest.run "kernel"
    [
      ( "scheduling",
        [
          Alcotest.test_case "time units" `Quick test_time_units;
          Alcotest.test_case "wait advances time" `Quick test_wait_advances_time;
          Alcotest.test_case "processes interleave" `Quick
            test_two_processes_interleave;
          Alcotest.test_case "delta notify" `Quick test_event_notify_delta;
          Alcotest.test_case "timed notify" `Quick test_event_timed_notify;
          Alcotest.test_case "run ~until" `Quick test_until_limit;
          Alcotest.test_case "stop" `Quick test_stop;
          Alcotest.test_case "process exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "halt" `Quick test_halt;
          Alcotest.test_case "immediate vs delta order" `Quick
            test_immediate_vs_delta_order;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "zero-delay wait" `Quick test_wait_zero;
        ] );
      ("heap", [ Alcotest.test_case "ordering" `Quick test_heap_ordering;
                 qtest prop_heap_sorts ]);
    ]
