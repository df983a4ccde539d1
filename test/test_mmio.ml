(* The MMIO transaction path allocates nothing: a register access from the
   CPU's bus interface through the SoC router into each peripheral model
   and back costs no minor-heap words. [Gc.minor_words] returns an
   unboxed float, so the count it gives is exact. *)

open Helpers

let calls = 10_000

let lat = Dift.Lattice.integrity ()
let li = Dift.Lattice.tag_of_name lat "LI"

(* Every output port declared, so the transmit paths run their clearance
   checks (all of which pass: the data's class is the required one). *)
let policy =
  Dift.Policy.make ~lattice:lat ~default_tag:li
    ~output_clearance:[ ("uart", li); ("can", li); ("gpio", li) ]
    ()

let bus_on soc ~tracking =
  let bus =
    Rv32.Bus_if.create ~lattice:lat ~default_tag:li ~tracking ~name:"probe"
  in
  Tlm.Socket.bind (Rv32.Bus_if.socket bus)
    (Tlm.Router.target_socket soc.Vp.Soc.router);
  bus

(* Minor words per call of [f] over [calls] calls. *)
let words_per_call f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let load bus ~width addr () = ignore (Rv32.Bus_if.load bus ~width ~addr)

let store bus ~width addr value () =
  Rv32.Bus_if.store bus ~width ~addr ~value ~tag:li

(* (name, access, bound on words per call): every access but the UART
   transmit allocates nothing at all; the transmit log takes a 512-byte
   chunk every 256 bytes, about 0.27 words a byte. *)
let accesses bus =
  let uart = Vp.Soc.uart_base and aes = Vp.Soc.aes_base in
  let plic = Vp.Soc.plic_base and can = Vp.Soc.can_base in
  let gpio = Vp.Soc.gpio_base and wdt = Vp.Soc.wdt_base in
  [
    ("uart status", load bus ~width:4 (uart + 0x08), 0.);
    ("uart rx", load bus ~width:4 (uart + 0x04), 0.);
    ("uart tx", store bus ~width:1 uart 0x41, 0.5);
    ("aes status", load bus ~width:4 (aes + 0x30), 0.);
    ("aes dout", load bus ~width:4 (aes + 0x20), 0.);
    ("aes key", store bus ~width:4 aes 0x01020304, 0.);
    ("sensor frame byte", load bus ~width:1 (Vp.Soc.sensor_base + 5), 0.);
    ("plic claim", load bus ~width:4 (plic + 0x08), 0.);
    ("plic complete", store bus ~width:4 (plic + 0x08) Vp.Soc.irq_uart, 0.);
    ("clint mtime", load bus ~width:4 (Vp.Soc.clint_base + 0xbff8), 0.);
    ("can status", load bus ~width:4 (can + 0x08), 0.);
    ("can rx pending", load bus ~width:4 (can + 0x18), 0.);
    ("gpio input", load bus ~width:4 (gpio + 0x08), 0.);
    ("gpio latch", store bus ~width:4 (gpio + 0x04) 0, 0.);
    ("wdt status", load bus ~width:4 (wdt + 0x0c), 0.);
    ("wdt reload", store bus ~width:4 wdt 500, 0.);
  ]

let test_no_allocation ~tracking () =
  let monitor = Dift.Monitor.create lat in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking () in
  (* Enough received bytes that every rx read takes one. *)
  Vp.Uart.push_rx soc.Vp.Soc.uart (String.make (calls + 1) 'x');
  let bus = bus_on soc ~tracking in
  List.iter
    (fun (name, access, bound) ->
      let w = words_per_call access in
      if not (w <= bound) then
        Alcotest.failf "%s: %.4f minor words per access, bound %g" name w bound)
    (accesses bus);
  check_int "no violation" 0 (List.length (Dift.Monitor.violations monitor));
  check_bool "rx bytes were read" true (Vp.Uart.rx_pending soc.Vp.Soc.uart = 0)

let () =
  Alcotest.run "mmio"
    [
      ( "allocation",
        [
          Alcotest.test_case "plain bus: no minor words" `Quick
            (test_no_allocation ~tracking:false);
          Alcotest.test_case "tracking bus: no minor words" `Quick
            (test_no_allocation ~tracking:true);
        ] );
    ]
