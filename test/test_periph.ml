(* Peripherals exercised directly through their TLM sockets. *)

open Helpers
module P = Tlm.Payload
module S = Tlm.Socket

let lat = Dift.Lattice.ifp3 ()
let t n = Dift.Lattice.tag_of_name lat n

let env_and_monitor ?(mode = Dift.Monitor.Halt) () =
  let policy =
    Dift.Policy.make ~lattice:lat ~default_tag:(t "LC,LI")
      ~output_clearance:[ ("uart", t "LC,LI"); ("can", t "LC,LI") ]
      ()
  in
  let monitor = Dift.Monitor.create ~mode lat in
  let kernel = Sysc.Kernel.create () in
  (Vp.Env.create kernel policy monitor, monitor)

let read_reg sock ~addr ~len ~tag =
  let p = P.create ~cmd:P.Read ~addr ~len ~default_tag:tag () in
  ignore (S.call sock p Sysc.Time.zero);
  p

let write_reg sock ~addr ~bytes ~tag =
  let p = P.create ~cmd:P.Write ~addr ~len:(List.length bytes) ~default_tag:tag () in
  List.iteri (fun i b -> P.set_byte p i b) bytes;
  ignore (S.call sock p Sysc.Time.zero);
  p

(* --- memory --------------------------------------------------------- *)

let test_memory_rw_with_tags () =
  let env, _ = env_and_monitor () in
  let m = Vp.Memory.create env ~name:"ram" ~size:256 in
  let sock = Vp.Memory.socket m in
  let w = P.create ~cmd:P.Write ~addr:16 ~len:4 ~default_tag:(t "HC,HI") () in
  P.set_value w 0xfeedf00d ~tag:(t "HC,HI");
  ignore (S.call sock w Sysc.Time.zero);
  let r = read_reg sock ~addr:16 ~len:4 ~tag:(t "LC,LI") in
  check_int "value" 0xfeedf00d (P.value r);
  check_int "tag travelled" (t "HC,HI") (P.get_tag r 0)

let test_memory_oob () =
  let env, _ = env_and_monitor () in
  let m = Vp.Memory.create env ~name:"ram" ~size:16 in
  let sock = Vp.Memory.socket m in
  let r = read_reg sock ~addr:14 ~len:4 ~tag:(t "LC,LI") in
  check_bool "address error" true (r.P.resp = P.Address_error)

let test_memory_taint_map () =
  let env, _ = env_and_monitor () in
  let m = Vp.Memory.create env ~name:"ram" ~size:64 in
  let base = env.Vp.Env.pub in
  check_bool "clean memory has no regions" true
    (Vp.Memory.tainted_regions m ~baseline:base = []);
  Vp.Memory.fill_tags m ~off:8 ~len:4 (t "HC,HI");
  Vp.Memory.fill_tags m ~off:12 ~len:2 (t "LC,LI");
  Vp.Memory.fill_tags m ~off:40 ~len:1 (t "HC,HI");
  Alcotest.(check (list (triple int int int)))
    "regions split per tag"
    [ (8, 11, t "HC,HI"); (12, 13, t "LC,LI"); (40, 40, t "HC,HI") ]
    (Vp.Memory.tainted_regions m ~baseline:base)

(* The reference: one tag at a time, every byte read. *)
let naive_regions m ~baseline =
  let n = Vp.Memory.size m in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let tg = Vp.Memory.read_tag m !i in
    if tg = baseline then incr i
    else begin
      let start = !i in
      while !i < n && Vp.Memory.read_tag m !i = tg do
        incr i
      done;
      out := (start, !i - 1, tg) :: !out
    end
  done;
  List.rev !out

(* The word-at-a-time scan gives the naive scan's list for every memory
   size from 0 to 40 bytes and a few larger ones, with runs of every
   length placed at every offset, against every baseline. *)
let test_memory_taint_map_naive () =
  let env, _ = env_and_monitor () in
  let rng = Random.State.make [| 32 |] in
  let tags = Dift.Lattice.tags lat in
  let sizes = List.init 41 Fun.id @ [ 64; 100; 257; 4096 ] in
  List.iter
    (fun size ->
      for _ = 1 to 30 do
        let m = Vp.Memory.create env ~name:"ram" ~size in
        let off = ref 0 in
        while !off < size do
          let len = min (size - !off) (1 + Random.State.int rng 20) in
          let tg = List.nth tags (Random.State.int rng (List.length tags)) in
          Vp.Memory.fill_tags m ~off:!off ~len tg;
          off := !off + len
        done;
        List.iter
          (fun baseline ->
            Alcotest.(check (list (triple int int int)))
              (Printf.sprintf "size %d, baseline %d" size baseline)
              (naive_regions m ~baseline)
              (Vp.Memory.tainted_regions m ~baseline))
          tags
      done)
    sizes

(* --- uart ------------------------------------------------------------ *)

let test_uart_tx_clearance () =
  let env, _ = env_and_monitor () in
  let u = Vp.Uart.create env ~name:"uart" ~port:"uart" in
  let sock = Vp.Uart.socket u in
  ignore (write_reg sock ~addr:0 ~bytes:[ Char.code 'h' ] ~tag:(t "LC,HI"));
  check_string "byte logged" "h" (Vp.Uart.tx_string u);
  check_bool "secret byte violates" true
    (try
       ignore (write_reg sock ~addr:0 ~bytes:[ 0x55 ] ~tag:(t "HC,HI"));
       false
     with Dift.Violation.Violation v ->
       v.Dift.Violation.kind = Dift.Violation.Output_clearance "uart")

(* The transmit log keeps every byte and its tag in order across its
   chunks, and a save/load round trip writes the same record: the
   received fifo (empty), each (byte, tag) pair in transmission order,
   and the irq enable. *)
let test_uart_tx_log () =
  let env, _ = env_and_monitor () in
  let u = Vp.Uart.create env ~name:"uart" ~port:"uart" in
  let sock = Vp.Uart.socket u in
  let n = 1300 in
  let byte i = (i * 7) land 0xff and tag i = if i mod 3 = 0 then t "LC,HI" else t "LC,LI" in
  for i = 0 to n - 1 do
    ignore (write_reg sock ~addr:0 ~bytes:[ byte i ] ~tag:(tag i))
  done;
  check_string "bytes in order" (String.init n (fun i -> Char.chr (byte i)))
    (Vp.Uart.tx_string u);
  let saved uart =
    let w = Snapshot.Codec.writer () in
    Vp.Uart.save uart w;
    Snapshot.Codec.contents w
  in
  let expect = Snapshot.Codec.writer () in
  Snapshot.Codec.put_list expect Snapshot.Codec.put_u8 [];
  Snapshot.Codec.put_list expect
    (fun w i ->
      Snapshot.Codec.put_u8 w (byte i);
      Snapshot.Codec.put_u8 w (tag i))
    (List.init n Fun.id);
  Snapshot.Codec.put_bool expect false;
  check_string "saved record" (Snapshot.Codec.contents expect) (saved u);
  let env2, _ = env_and_monitor () in
  let u2 = Vp.Uart.create env2 ~name:"uart" ~port:"uart" in
  ignore (write_reg (Vp.Uart.socket u2) ~addr:0 ~bytes:[ 0x21 ] ~tag:(t "LC,LI"));
  Vp.Uart.load u2 (Snapshot.Codec.reader (saved u));
  check_string "restored bytes" (Vp.Uart.tx_string u) (Vp.Uart.tx_string u2);
  check_string "restored record" (saved u) (saved u2)

let test_uart_rx_fifo_and_status () =
  let env, _ = env_and_monitor () in
  let u = Vp.Uart.create env ~name:"uart" ~port:"uart" in
  let sock = Vp.Uart.socket u in
  let status () = P.get_byte (read_reg sock ~addr:8 ~len:1 ~tag:(t "LC,LI")) 0 in
  check_int "empty status" 2 (status () land 3);
  Vp.Uart.push_rx u ~tag:(t "LC,LI") "ab";
  check_int "nonempty status" 3 (status () land 3);
  let r1 = read_reg sock ~addr:4 ~len:1 ~tag:(t "LC,HI") in
  check_int "first byte" (Char.code 'a') (P.get_byte r1 0);
  check_int "rx byte tagged LI" (t "LC,LI") (P.get_tag r1 0);
  let _ = read_reg sock ~addr:4 ~len:1 ~tag:(t "LC,HI") in
  check_int "drained" 2 (status () land 3)

let test_uart_irq () =
  let env, _ = env_and_monitor () in
  let u = Vp.Uart.create env ~name:"uart" ~port:"uart" in
  let sock = Vp.Uart.socket u in
  let level = ref false in
  Vp.Uart.set_irq_callback u (fun on -> level := on);
  Vp.Uart.push_rx u "x";
  check_bool "no irq while disabled" false !level;
  ignore (write_reg sock ~addr:0xc ~bytes:[ 1 ] ~tag:(t "LC,HI"));
  check_bool "irq raised when enabled" true !level;
  let _ = read_reg sock ~addr:4 ~len:1 ~tag:(t "LC,HI") in
  check_bool "irq drops when drained" false !level

(* --- gpio -------------------------------------------------------------- *)

let gpio_env () =
  let policy =
    Dift.Policy.make ~lattice:lat ~default_tag:(t "LC,LI")
      ~output_clearance:[ ("gpio", t "LC,LI") ]
      ()
  in
  let monitor = Dift.Monitor.create lat in
  let kernel = Sysc.Kernel.create () in
  Vp.Env.create kernel policy monitor

let test_gpio_directions_and_latch () =
  let env = gpio_env () in
  let g = Vp.Gpio.create env ~name:"gpio" ~port:"gpio" in
  let sock = Vp.Gpio.socket g in
  (* Pins 0..7 output. *)
  ignore (write_reg sock ~addr:0 ~bytes:[ 0xff; 0; 0; 0 ] ~tag:(t "LC,HI"));
  ignore (write_reg sock ~addr:4 ~bytes:[ 0xa5; 0xff; 0; 0 ] ~tag:(t "LC,HI"));
  check_int "only output bits latch" 0xa5 (Vp.Gpio.output_levels g);
  let r = read_reg sock ~addr:4 ~len:4 ~tag:(t "LC,LI") in
  check_int "readback" 0xa5 (P.get_byte r 0)

let test_gpio_output_clearance () =
  let env = gpio_env () in
  let g = Vp.Gpio.create env ~name:"gpio" ~port:"gpio" in
  let sock = Vp.Gpio.socket g in
  ignore (write_reg sock ~addr:0 ~bytes:[ 1; 0; 0; 0 ] ~tag:(t "LC,HI"));
  check_bool "secret-dependent pin write violates" true
    (try
       ignore (write_reg sock ~addr:4 ~bytes:[ 1; 0; 0; 0 ] ~tag:(t "HC,HI"));
       false
     with Dift.Violation.Violation v ->
       v.Dift.Violation.kind = Dift.Violation.Output_clearance "gpio")

let test_gpio_inputs_tagged_and_edges () =
  let env = gpio_env () in
  let g = Vp.Gpio.create env ~name:"gpio" ~port:"gpio" in
  let sock = Vp.Gpio.socket g in
  let edges = ref 0 in
  Vp.Gpio.set_irq_callback g (fun () -> incr edges);
  Vp.Gpio.drive_input g ~pin:3 ~tag:(t "HC,HI") true;
  Vp.Gpio.drive_input g ~pin:3 ~tag:(t "HC,HI") true (* level, not an edge *);
  Vp.Gpio.drive_input g ~pin:5 true;
  check_int "two rising edges" 2 !edges;
  let r = read_reg sock ~addr:8 ~len:4 ~tag:(t "LC,LI") in
  check_int "levels" ((1 lsl 3) lor (1 lsl 5)) (P.get_byte r 0);
  check_int "input tag is LUB of drives" (t "HC,LI") (P.get_tag r 0);
  let r = read_reg sock ~addr:0xc ~len:4 ~tag:(t "LC,LI") in
  check_int "rise latch" ((1 lsl 3) lor (1 lsl 5)) (P.get_byte r 0);
  let r = read_reg sock ~addr:0xc ~len:4 ~tag:(t "LC,LI") in
  check_int "rise cleared on read" 0 (P.get_byte r 0)

(* --- sensor ----------------------------------------------------------- *)

let test_sensor_frame_and_tag_reg () =
  let env, _ = env_and_monitor () in
  let s = Vp.Sensor.create env ~name:"sensor" () in
  let sock = Vp.Sensor.socket s in
  Vp.Sensor.set_data_tag s (t "HC,HI");
  (* Force a frame without the kernel: run the internal refill through the
     kernel thread is timing-based; instead read data_tag register and
     check frame reads work. *)
  let r = read_reg sock ~addr:0x40 ~len:1 ~tag:(t "LC,LI") in
  check_int "data_tag readable" (t "HC,HI") (P.get_byte r 0);
  check_int "data_tag register itself is public" env.Vp.Env.pub (P.get_tag r 0);
  (* Writing the register reconfigures the class (Fig. 4 line 47). *)
  ignore (write_reg sock ~addr:0x40 ~bytes:[ t "LC,LI" ] ~tag:(t "LC,HI"));
  check_int "reconfigured" (t "LC,LI") (Vp.Sensor.data_tag s);
  (* A class at or above the lattice's size would tag the next frame
     with an index past the core's tables: refused with a command error
     (a store access fault for the firmware), the class unchanged. *)
  List.iter
    (fun cls ->
      let p = write_reg sock ~addr:0x40 ~bytes:[ cls ] ~tag:(t "LC,LI") in
      check_bool (Printf.sprintf "class %d refused" cls) true
        (p.P.resp = P.Command_error);
      check_int
        (Printf.sprintf "class %d leaves the class" cls)
        (t "LC,LI") (Vp.Sensor.data_tag s))
    [ Dift.Lattice.size lat; 200; 255 ]

let test_sensor_generates_tagged_frames () =
  let env, _ = env_and_monitor () in
  let s = Vp.Sensor.create env ~name:"sensor" ~period:(Sysc.Time.us 10) () in
  let sock = Vp.Sensor.socket s in
  Vp.Sensor.set_data_tag s (t "HC,HI");
  let fired = ref 0 in
  Vp.Sensor.set_irq_callback s (fun () -> incr fired);
  Vp.Sensor.start s;
  Sysc.Kernel.run ~until:(Sysc.Time.us 35) env.Vp.Env.kernel;
  check_int "frames" 3 !fired;
  check_int "frames counter" 3 (Vp.Sensor.frames_generated s);
  let r = read_reg sock ~addr:0 ~len:8 ~tag:(t "LC,LI") in
  check_int "frame data tagged" (t "HC,HI") (P.get_tag r 0);
  check_bool "paper's data range (rand%96+128)" true
    (let b = P.get_byte r 0 in
     b >= 128 && b < 224)

(* --- clint ------------------------------------------------------------ *)

let test_clint_timer () =
  let env, _ = env_and_monitor () in
  let c = Vp.Clint.create env ~name:"clint" () in
  let sock = Vp.Clint.socket c in
  let mtip = ref false in
  Vp.Clint.set_timer_irq_callback c (fun on -> mtip := on);
  Vp.Clint.start c;
  (* mtimecmp = 5 ticks *)
  ignore (write_reg sock ~addr:0x4000 ~bytes:[ 5; 0; 0; 0 ] ~tag:(t "LC,HI"));
  ignore (write_reg sock ~addr:0x4004 ~bytes:[ 0; 0; 0; 0 ] ~tag:(t "LC,HI"));
  Sysc.Kernel.run ~until:(Sysc.Time.us 3) env.Vp.Env.kernel;
  check_bool "not pending before" false !mtip;
  Sysc.Kernel.run ~until:(Sysc.Time.us 6) env.Vp.Env.kernel;
  check_bool "pending after" true !mtip;
  let r = read_reg sock ~addr:0xbff8 ~len:4 ~tag:(t "LC,LI") in
  check_int "mtime low" 5 (P.get_byte r 0)

let test_clint_msip () =
  let env, _ = env_and_monitor () in
  let c = Vp.Clint.create env ~name:"clint" () in
  let sock = Vp.Clint.socket c in
  let msip = ref false in
  Vp.Clint.set_soft_irq_callback c (fun on -> msip := on);
  ignore (write_reg sock ~addr:0 ~bytes:[ 1 ] ~tag:(t "LC,HI"));
  check_bool "raised" true !msip;
  ignore (write_reg sock ~addr:0 ~bytes:[ 0 ] ~tag:(t "LC,HI"));
  check_bool "cleared" false !msip

(* --- plic -------------------------------------------------------------- *)

let test_plic_claim_complete () =
  let env, _ = env_and_monitor () in
  let pl = Vp.Plic.create env ~name:"plic" in
  let sock = Vp.Plic.socket pl in
  let meip = ref false in
  Vp.Plic.set_ext_irq_callback pl (fun on -> meip := on);
  Vp.Plic.trigger pl 2;
  check_bool "masked: no meip" false !meip;
  ignore (write_reg sock ~addr:4 ~bytes:[ 1 lsl 2; 0; 0; 0 ] ~tag:(t "LC,HI"));
  check_bool "enabled: meip" true !meip;
  Vp.Plic.trigger pl 3;
  (* enable 3 too *)
  ignore (write_reg sock ~addr:4 ~bytes:[ (1 lsl 2) lor (1 lsl 3); 0; 0; 0 ] ~tag:(t "LC,HI"));
  let claim () = P.get_byte (read_reg sock ~addr:8 ~len:4 ~tag:(t "LC,LI")) 0 in
  check_int "lowest source first" 2 (claim ());
  check_bool "still pending source 3" true !meip;
  check_int "next source" 3 (claim ());
  check_bool "meip drops" false !meip;
  check_int "no pending -> 0" 0 (claim ())

(* --- dma ---------------------------------------------------------------- *)

let test_dma_copies_tags () =
  let env, _ = env_and_monitor () in
  let router = Tlm.Router.create ~name:"bus" () in
  let mem = Vp.Memory.create env ~name:"ram" ~size:256 in
  Tlm.Router.map router ~lo:0 ~hi:255 (Vp.Memory.socket mem);
  let dma = Vp.Dma.create env ~name:"dma" in
  Tlm.Socket.bind (Vp.Dma.initiator dma) (Tlm.Router.target_socket router);
  let dsock = Vp.Dma.socket dma in
  (* Source: 8 secret bytes at 0x10. *)
  for i = 0 to 7 do
    Vp.Memory.write_byte mem (0x10 + i) (0x40 + i);
    Vp.Memory.write_tag mem (0x10 + i) (t "HC,HI")
  done;
  let done_irq = ref false in
  Vp.Dma.set_irq_callback dma (fun () -> done_irq := true);
  Vp.Dma.start dma;
  ignore (write_reg dsock ~addr:0 ~bytes:[ 0x10; 0; 0; 0 ] ~tag:(t "LC,HI"));
  ignore (write_reg dsock ~addr:4 ~bytes:[ 0x80; 0; 0; 0 ] ~tag:(t "LC,HI"));
  ignore (write_reg dsock ~addr:8 ~bytes:[ 8; 0; 0; 0 ] ~tag:(t "LC,HI"));
  ignore (write_reg dsock ~addr:0xc ~bytes:[ 1 ] ~tag:(t "LC,HI"));
  Sysc.Kernel.run env.Vp.Env.kernel;
  check_bool "irq fired" true !done_irq;
  check_int "transfers" 1 (Vp.Dma.transfers_completed dma);
  for i = 0 to 7 do
    check_int "value copied" (0x40 + i) (Vp.Memory.read_byte mem (0x80 + i));
    check_int "tag copied" (t "HC,HI") (Vp.Memory.read_tag mem (0x80 + i))
  done

(* --- aes ---------------------------------------------------------------- *)

let test_aes_declassifies () =
  let env, monitor = env_and_monitor () in
  let aes =
    Vp.Aes_periph.create env ~name:"aes" ~out_tag:(t "LC,LI")
      ~in_clearance:(t "HC,HI") ~latency:(Sysc.Time.ns 100) ()
  in
  let sock = Vp.Aes_periph.socket aes in
  Vp.Aes_periph.start aes;
  (* Key: tagged (HC,HI) — allowed by the clearance. *)
  ignore (write_reg sock ~addr:0 ~bytes:(List.init 16 (fun i -> i)) ~tag:(t "HC,HI"));
  ignore (write_reg sock ~addr:0x10 ~bytes:(List.init 16 (fun _ -> 0)) ~tag:(t "LC,LI"));
  ignore (write_reg sock ~addr:0x30 ~bytes:[ 1 ] ~tag:(t "LC,HI"));
  Sysc.Kernel.run env.Vp.Env.kernel;
  check_int "one encryption" 1 (Vp.Aes_periph.encryptions aes);
  check_int "declassification recorded" 1
    (Dift.Monitor.declassification_count monitor);
  let r = read_reg sock ~addr:0x20 ~len:16 ~tag:(t "LC,LI") in
  let expected =
    Crypto.Aes128.encrypt_block
      (Crypto.Aes128.expand (String.init 16 Char.chr))
      (String.make 16 '\000')
  in
  for i = 0 to 15 do
    check_int "ciphertext" (Char.code expected.[i]) (P.get_byte r i);
    check_int "declassified tag" (t "LC,LI") (P.get_tag r i)
  done

let test_aes_key_clearance () =
  let env, _ = env_and_monitor () in
  let aes =
    Vp.Aes_periph.create env ~name:"aes" ~out_tag:(t "LC,LI")
      ~in_clearance:(t "HC,HI") ()
  in
  let sock = Vp.Aes_periph.socket aes in
  (* (LC,LI) data may not flow to the (HC,HI) key register: integrity. *)
  check_bool "untrusted key rejected" true
    (try
       ignore (write_reg sock ~addr:0 ~bytes:[ 0xff ] ~tag:(t "LC,LI"));
       false
     with Dift.Violation.Violation _ -> true)

(* --- can ----------------------------------------------------------------- *)

let test_can_clearance_and_host () =
  let env, _ = env_and_monitor () in
  let can = Vp.Can.create env ~name:"can" ~port:"can" in
  let sock = Vp.Can.socket can in
  let sent = ref [] in
  Vp.Can.set_tx_callback can (fun f -> sent := f :: !sent);
  ignore (write_reg sock ~addr:0 ~bytes:[ 1; 2; 3; 4 ] ~tag:(t "LC,HI"));
  ignore (write_reg sock ~addr:8 ~bytes:[ 1 ] ~tag:(t "LC,HI"));
  check_int "one frame" 1 (List.length !sent);
  check_bool "secret tx violates" true
    (try
       ignore (write_reg sock ~addr:0 ~bytes:[ 9 ] ~tag:(t "HC,HI"));
       false
     with Dift.Violation.Violation _ -> true);
  (* Host injection with default (untrusted) tag. *)
  Vp.Can.push_rx_frame can "hello!";
  let r = read_reg sock ~addr:0x10 ~len:8 ~tag:(t "LC,HI") in
  check_int "first byte" (Char.code 'h') (P.get_byte r 0);
  check_int "tagged untrusted" (t "LC,LI") (P.get_tag r 0);
  check_int "padded with zeros" 0 (P.get_byte r 7)

(* --- watchdog ------------------------------------------------------------ *)

let test_watchdog_expires_and_kicks () =
  let env, _ = env_and_monitor () in
  let w = Vp.Watchdog.create env ~name:"wdt" () in
  let sock = Vp.Watchdog.socket w in
  let reset = ref false in
  Vp.Watchdog.set_expiry_callback w (fun () -> reset := true);
  Vp.Watchdog.start w;
  (* reload = 10 us, enable. *)
  ignore (write_reg sock ~addr:0 ~bytes:[ 10; 0; 0; 0 ] ~tag:(t "LC,HI"));
  ignore (write_reg sock ~addr:8 ~bytes:[ 1 ] ~tag:(t "LC,HI"));
  (* Kick at 6 us: survives past the original 10 us deadline. *)
  Sysc.Kernel.run ~until:(Sysc.Time.us 6) env.Vp.Env.kernel;
  ignore (write_reg sock ~addr:4 ~bytes:[ 1 ] ~tag:(t "LC,HI"));
  Sysc.Kernel.run ~until:(Sysc.Time.us 12) env.Vp.Env.kernel;
  check_bool "kick deferred expiry" false !reset;
  (* Stop kicking: expires at 16 us. *)
  Sysc.Kernel.run ~until:(Sysc.Time.us 20) env.Vp.Env.kernel;
  check_bool "expired without kicks" true !reset;
  check_bool "status reads expired" true (Vp.Watchdog.expired w);
  check_int "one kick counted" 1 (Vp.Watchdog.kicks w)

let test_watchdog_reload_clearance () =
  let env, _ = env_and_monitor () in
  let w = Vp.Watchdog.create env ~name:"wdt" ~clearance:(t "LC,HI") () in
  let sock = Vp.Watchdog.socket w in
  (* Trusted reconfiguration passes. *)
  ignore (write_reg sock ~addr:0 ~bytes:[ 50; 0; 0; 0 ] ~tag:(t "LC,HI"));
  (* Untrusted data may not flow into the reload register. *)
  check_bool "untrusted reload flagged" true
    (try
       ignore (write_reg sock ~addr:0 ~bytes:[ 1; 0; 0; 0 ] ~tag:(t "LC,LI"));
       false
     with Dift.Violation.Violation v ->
       (match v.Dift.Violation.kind with
       | Dift.Violation.Custom _ -> true
       | _ -> false))

(* --- refused flows ------------------------------------------------------- *)

(* Every peripheral check that refuses a flow reports one exact record:
   kind, the data and required tags, no pc, and the detail text. Forensic
   reports and traces print these, so none of them may drift. *)
let test_refused_flow_records () =
  let policy =
    Dift.Policy.make ~lattice:lat ~default_tag:(t "LC,LI")
      ~output_clearance:
        [ ("uart", t "LC,LI"); ("can", t "LC,LI"); ("gpio", t "LC,LI") ]
      ~store_clearance:
        [ Dift.Policy.region ~name:"boot" ~lo:0x80 ~hi:0x8f ~tag:(t "LC,HI") ]
      ()
  in
  let monitor = Dift.Monitor.create ~mode:Dift.Monitor.Record lat in
  let env = Vp.Env.create (Sysc.Kernel.create ()) policy monitor in
  let uart = Vp.Uart.socket (Vp.Uart.create env ~name:"uart" ~port:"uart") in
  ignore (write_reg uart ~addr:0 ~bytes:[ 0x55 ] ~tag:(t "HC,HI"));
  let can = Vp.Can.socket (Vp.Can.create env ~name:"can" ~port:"can") in
  ignore (write_reg can ~addr:2 ~bytes:[ 9 ] ~tag:(t "HC,LI"));
  let gpio = Vp.Gpio.socket (Vp.Gpio.create env ~name:"gpio" ~port:"gpio") in
  ignore (write_reg gpio ~addr:4 ~bytes:[ 1; 0; 0; 0 ] ~tag:(t "HC,HI"));
  let aes =
    Vp.Aes_periph.create env ~name:"aes" ~out_tag:(t "LC,LI")
      ~in_clearance:(t "HC,HI") ()
  in
  ignore
    (write_reg (Vp.Aes_periph.socket aes) ~addr:3 ~bytes:[ 0xff ]
       ~tag:(t "LC,LI"));
  let wdt = Vp.Watchdog.create env ~name:"wdt" ~clearance:(t "LC,HI") () in
  ignore
    (write_reg (Vp.Watchdog.socket wdt) ~addr:0 ~bytes:[ 1; 0; 0; 0 ]
       ~tag:(t "LC,LI"));
  let router = Tlm.Router.create ~name:"bus" () in
  let mem = Vp.Memory.create env ~name:"ram" ~size:256 in
  Tlm.Router.map router ~lo:0 ~hi:255 (Vp.Memory.socket mem);
  let dma = Vp.Dma.create env ~name:"dma" in
  Tlm.Socket.bind (Vp.Dma.initiator dma) (Tlm.Router.target_socket router);
  Vp.Memory.write_tag mem 0x10 (t "LC,LI");
  Vp.Dma.start dma;
  let dsock = Vp.Dma.socket dma in
  ignore (write_reg dsock ~addr:0 ~bytes:[ 0x10; 0; 0; 0 ] ~tag:(t "LC,HI"));
  ignore (write_reg dsock ~addr:4 ~bytes:[ 0x84; 0; 0; 0 ] ~tag:(t "LC,HI"));
  ignore (write_reg dsock ~addr:8 ~bytes:[ 1; 0; 0; 0 ] ~tag:(t "LC,HI"));
  ignore (write_reg dsock ~addr:0xc ~bytes:[ 1 ] ~tag:(t "LC,HI"));
  Sysc.Kernel.run env.Vp.Env.kernel;
  let v kind data required detail =
    {
      Dift.Violation.kind;
      data_tag = t data;
      required_tag = t required;
      pc = None;
      detail;
    }
  in
  let violation = Alcotest.testable (Dift.Violation.pp lat) ( = ) in
  Alcotest.(check (list violation))
    "records"
    [
      v (Dift.Violation.Output_clearance "uart") "HC,HI" "LC,LI"
        "uart tx byte 0x55";
      v (Dift.Violation.Output_clearance "can") "HC,LI" "LC,LI" "can tx byte 2";
      v (Dift.Violation.Output_clearance "gpio") "HC,HI" "LC,LI"
        "gpio output latch";
      v (Dift.Violation.Custom "aes-input") "LC,LI" "HC,HI" "key byte 3";
      v (Dift.Violation.Custom "wdt-reload") "LC,LI" "LC,HI"
        "watchdog reload register";
      v (Dift.Violation.Store_integrity "boot") "LC,LI" "LC,HI"
        "dma store to 0x00000084";
    ]
    (Dift.Monitor.violations monitor);
  check_int "each refused flow counted once" 6 (Dift.Monitor.check_count monitor)

let () =
  Alcotest.run "periph"
    [
      ("memory", [ Alcotest.test_case "rw with tags" `Quick test_memory_rw_with_tags;
                   Alcotest.test_case "out of bounds" `Quick test_memory_oob;
                   Alcotest.test_case "taint map" `Quick test_memory_taint_map;
                   Alcotest.test_case "taint map matches a naive scan" `Quick
                     test_memory_taint_map_naive ]);
      ("uart", [ Alcotest.test_case "tx clearance" `Quick test_uart_tx_clearance;
                 Alcotest.test_case "tx log" `Quick test_uart_tx_log;
                 Alcotest.test_case "rx fifo/status" `Quick test_uart_rx_fifo_and_status;
                 Alcotest.test_case "rx interrupt" `Quick test_uart_irq ]);
      ("gpio", [ Alcotest.test_case "directions and latch" `Quick
                   test_gpio_directions_and_latch;
                 Alcotest.test_case "output clearance" `Quick
                   test_gpio_output_clearance;
                 Alcotest.test_case "tagged inputs + edges" `Quick
                   test_gpio_inputs_tagged_and_edges ]);
      ("sensor", [ Alcotest.test_case "tag register" `Quick test_sensor_frame_and_tag_reg;
                   Alcotest.test_case "periodic tagged frames" `Quick
                     test_sensor_generates_tagged_frames ]);
      ("clint", [ Alcotest.test_case "timer compare" `Quick test_clint_timer;
                  Alcotest.test_case "msip" `Quick test_clint_msip ]);
      ("plic", [ Alcotest.test_case "claim/complete" `Quick test_plic_claim_complete ]);
      ("dma", [ Alcotest.test_case "copies values and tags" `Quick test_dma_copies_tags ]);
      ("aes", [ Alcotest.test_case "declassifies ciphertext" `Quick test_aes_declassifies;
                Alcotest.test_case "key clearance" `Quick test_aes_key_clearance ]);
      ("can", [ Alcotest.test_case "clearance and host model" `Quick
                  test_can_clearance_and_host ]);
      ("watchdog", [ Alcotest.test_case "expiry and kicks" `Quick
                       test_watchdog_expires_and_kicks;
                     Alcotest.test_case "reload clearance" `Quick
                       test_watchdog_reload_clearance ]);
      ("checks", [ Alcotest.test_case "refused-flow records" `Quick
                     test_refused_flow_records ]);
    ]
