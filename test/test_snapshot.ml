(* Deterministic snapshot/restore (lib/snapshot + Soc.{save,restore}) and
   the determinism bugfixes that make it possible: the kernel's IEEE-1666
   notification override rule, the CLINT mtimecmp two-half write glitch,
   and DMA memmove overlap semantics. *)

open Helpers
module Codec = Snapshot.Codec

(* --- codec -------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let w = Codec.writer () in
  Codec.put_u8 w 0xab;
  Codec.put_u32 w 0xdeadbeef;
  Codec.put_i64 w (-42);
  Codec.put_i64 w max_int;
  Codec.put_bool w true;
  Codec.put_string w "hello";
  Codec.put_list w Codec.put_u32 [ 1; 2; 3 ];
  let r = Codec.reader (Codec.contents w) in
  check_int "u8" 0xab (Codec.get_u8 r);
  check_int "u32" 0xdeadbeef (Codec.get_u32 r);
  check_int "i64 neg" (-42) (Codec.get_i64 r);
  check_int "i64 max" max_int (Codec.get_i64 r);
  check_bool "bool" true (Codec.get_bool r);
  check_string "string" "hello" (Codec.get_string r);
  check_bool "list" true (Codec.get_list r Codec.get_u32 = [ 1; 2; 3 ]);
  Codec.expect_end r

let test_codec_rle () =
  let mk n f = Bytes.init n f in
  let cases =
    [
      mk 0 (fun _ -> 'x');
      mk 4096 (fun _ -> '\000');
      mk 1000 (fun i -> Char.chr (i land 0xff));
      mk 777 (fun i -> if i < 300 then 'a' else Char.chr (i * 7 land 0xff));
    ]
  in
  List.iter
    (fun src ->
      let w = Codec.writer () in
      Codec.put_bytes_rle w src;
      let dst = Bytes.make (Bytes.length src) 'Z' in
      let r = Codec.reader (Codec.contents w) in
      Codec.get_bytes_rle_into r dst;
      Codec.expect_end r;
      check_bool "rle roundtrip" true (Bytes.equal src dst))
    cases;
  (* The all-zeros image must actually compress. *)
  let w = Codec.writer () in
  Codec.put_bytes_rle w (Bytes.make 65536 '\000');
  check_bool "rle compresses" true (String.length (Codec.contents w) < 64)

(* The reference encoder: the same format, one byte compared at a time.
   Runs shorter than [min_run] (the codec's threshold, 8) stay in the
   surrounding literal. *)
let min_run = 8

let rle_reference b =
  let w = Codec.writer () in
  let n = Bytes.length b in
  Codec.put_u32 w n;
  let lit = ref 0 in
  let flush upto =
    if upto > !lit then begin
      Codec.put_u8 w 1;
      Codec.put_u32 w (upto - !lit);
      for k = !lit to upto - 1 do
        Codec.put_u8 w (Bytes.get_uint8 b k)
      done
    end
  in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while !j < n && Bytes.get b !j = Bytes.get b !i do
      incr j
    done;
    if !j - !i >= min_run then begin
      flush !i;
      Codec.put_u8 w 0;
      Codec.put_u32 w (!j - !i);
      Codec.put_u8 w (Bytes.get_uint8 b !i);
      lit := !j
    end;
    i := !j
  done;
  flush n;
  Codec.contents w

let check_rle_against_reference name b =
  let w = Codec.writer () in
  Codec.put_bytes_rle w b;
  let enc = Codec.contents w in
  check_string name (rle_reference b) enc;
  let dst = Bytes.make (Bytes.length b) 'Z' in
  let r = Codec.reader enc in
  Codec.get_bytes_rle_into r dst;
  Codec.expect_end r;
  check_bool (name ^ " roundtrip") true (Bytes.equal b dst)

(* The word-at-a-time encoder writes the reference's bytes: on random
   run-structured buffers of every length from 0 to 40, and on runs one
   short of, at and one past the threshold, starting and ending at every
   offset mod 8. *)
let test_codec_rle_reference () =
  let rng = Random.State.make [| 57 |] in
  let alphabet = [| '\000'; '\001'; '\128'; '\255' |] in
  for n = 0 to 40 do
    for k = 1 to 50 do
      let b = Bytes.create n in
      let off = ref 0 in
      while !off < n do
        let len = min (n - !off) (1 + Random.State.int rng 12) in
        Bytes.fill b !off len alphabet.(Random.State.int rng 4);
        off := !off + len
      done;
      check_rle_against_reference (Printf.sprintf "random %d/%d" n k) b
    done
  done;
  (* Prefix and suffix alternate two bytes, so only the run itself
     repeats. *)
  let filler k = if k land 1 = 0 then '\001' else '\002' in
  List.iter
    (fun c ->
      for start = 0 to 15 do
        List.iter
          (fun len ->
            for tail = 0 to 8 do
              let b =
                Bytes.init (start + len + tail) (fun k ->
                    if k < start then filler k
                    else if k < start + len then c
                    else filler (k - start - len))
              in
              check_rle_against_reference
                (Printf.sprintf "run %C start %d len %d tail %d" c start len
                   tail)
                b
            done)
          [ min_run - 1; min_run; min_run + 1 ]
      done)
    [ '\000'; '\255' ]

let test_codec_container () =
  let sections = [ ("alpha", "payload-a"); ("beta", String.make 300 'b') ] in
  let enc = Codec.Container.encode sections in
  check_bool "decode" true (Codec.Container.decode enc = sections);
  (match Codec.Container.decode "garbage" with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  let truncated = String.sub enc 0 (String.length enc - 3) in
  match Codec.Container.decode truncated with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated container accepted"

(* --- kernel override rule ---------------------------------------------- *)

let test_override_rule () =
  let k = Sysc.Kernel.create () in
  let e = Sysc.Kernel.create_event k "e" in
  let fired = ref [] in
  Sysc.Kernel.spawn k ~name:"w" (fun () ->
      while true do
        Sysc.Kernel.wait_event e;
        fired := Sysc.Kernel.now k :: !fired
      done);
  (* Later notification discarded while an earlier one is pending. *)
  Sysc.Kernel.notify_after e (Sysc.Time.ns 10);
  Sysc.Kernel.notify_after e (Sysc.Time.ns 50);
  check_bool "earlier wins" true
    (Sysc.Kernel.pending_timed k = [ ("e", Sysc.Time.ns 10) ]);
  (* Earlier notification overrides a pending later one. *)
  Sysc.Kernel.notify_after e (Sysc.Time.ns 5);
  check_bool "override by earlier" true
    (Sysc.Kernel.pending_timed k = [ ("e", Sysc.Time.ns 5) ]);
  Sysc.Kernel.run ~until:(Sysc.Time.ns 100) k;
  check_bool "fired exactly once, at the overriding instant" true
    (!fired = [ Sysc.Time.ns 5 ]);
  (* Delta notification overrides timed. *)
  fired := [];
  Sysc.Kernel.notify_after e (Sysc.Time.ns 10);
  Sysc.Kernel.notify e;
  Sysc.Kernel.run ~until:(Sysc.Time.add (Sysc.Kernel.now k) (Sysc.Time.ns 100)) k;
  check_int "delta override fires once" 1 (List.length !fired);
  (* An immediate notification cancels a pending timed one: the waiter
     fires once, now, and not again 10 ns later. *)
  fired := [];
  let t0 = Sysc.Kernel.now k in
  Sysc.Kernel.notify_after e (Sysc.Time.ns 10);
  Sysc.Kernel.notify_immediate e;
  check_bool "cancelled" true (Sysc.Kernel.pending_timed k = []);
  Sysc.Kernel.run ~until:(Sysc.Time.add t0 (Sysc.Time.ns 100)) k;
  check_bool "fired once, at the immediate instant" true (!fired = [ t0 ])

let test_kernel_snapshot_roundtrip () =
  (* pending_timed/restore reproduce the pending set on a fresh kernel. *)
  let mk () =
    let k = Sysc.Kernel.create () in
    let a = Sysc.Kernel.create_event k "a" in
    let b = Sysc.Kernel.create_event k "b" in
    (k, a, b)
  in
  let k1, a1, b1 = mk () in
  Sysc.Kernel.notify_after b1 (Sysc.Time.ns 30);
  Sysc.Kernel.notify_after a1 (Sysc.Time.ns 30);
  let saved = Sysc.Kernel.pending_timed k1 in
  check_bool "arming order preserved" true
    (saved = [ ("b", Sysc.Time.ns 30); ("a", Sysc.Time.ns 30) ]);
  let k2, a2, b2 = mk () in
  (* A bogus construction-time arm must not survive restore. *)
  Sysc.Kernel.notify_after a2 (Sysc.Time.ns 1);
  Sysc.Kernel.restore k2 ~now:Sysc.Time.zero ~deltas:0 ~notifications:saved;
  check_bool "restored pending set" true (Sysc.Kernel.pending_timed k2 = saved);
  let order = ref [] in
  let waiter name e =
    Sysc.Kernel.spawn k2 ~name (fun () ->
        Sysc.Kernel.wait_event e;
        order := name :: !order)
  in
  waiter "a" a2;
  waiter "b" b2;
  Sysc.Kernel.run k2;
  check_bool "same-instant wakeups in arming order" true
    (List.rev !order = [ "b"; "a" ])

(* --- clint regression --------------------------------------------------- *)

let test_clint_half_write_no_glitch () =
  let policy = trivial_policy () in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let kernel = Sysc.Kernel.create () in
  let env = Vp.Env.create kernel policy monitor in
  let c = Vp.Clint.create env ~name:"clint" () in
  let sock = Vp.Clint.socket c in
  let glitches = ref 0 and mtip = ref false in
  Vp.Clint.set_timer_irq_callback c (fun on ->
      if on then incr glitches;
      mtip := on);
  Vp.Clint.start c;
  let write32 addr v =
    let p =
      Tlm.Payload.create ~cmd:Tlm.Payload.Write ~addr ~len:4
        ~default_tag:env.Vp.Env.pub ()
    in
    for i = 0 to 3 do
      Tlm.Payload.set_byte p i ((v lsr (8 * i)) land 0xff)
    done;
    ignore (Tlm.Socket.call sock p Sysc.Time.zero)
  in
  (* The historical glitch: writing a deadline whose high half has bit 31
     set composed to a negative OCaml int and asserted MTIP spuriously.
     The reset value (all-ones) must also never fire. *)
  Sysc.Kernel.run ~until:(Sysc.Time.ms 1) kernel;
  check_int "no irq at reset value" 0 !glitches;
  write32 0x4004 0xffff_ffff;
  write32 0x4000 200;
  write32 0x4004 0x8000_0000;
  Sysc.Kernel.run ~until:(Sysc.Time.add (Sysc.Kernel.now kernel) (Sysc.Time.ms 1)) kernel;
  check_int "no spurious irq for far deadline" 0 !glitches;
  (* Standard glitch-free update sequence down to a near deadline. *)
  write32 0x4004 0xffff_ffff;
  write32 0x4000 ((Vp.Clint.mtime c + 5) land 0xffff_ffff);
  write32 0x4004 ((Vp.Clint.mtime c + 5) lsr 32);
  Sysc.Kernel.run ~until:(Sysc.Time.add (Sysc.Kernel.now kernel) (Sysc.Time.us 10)) kernel;
  check_int "fires exactly once at the real deadline" 1 !glitches;
  check_bool "mtip level high" true !mtip

(* --- dma overlap -------------------------------------------------------- *)

let test_dma_overlap_memmove () =
  let policy = trivial_policy () in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking:true () in
  (* 8 source bytes at RAM+0x100, destination overlapping 4 bytes ahead. *)
  let base = Vp.Soc.ram_base in
  for i = 0 to 7 do
    Vp.Memory.write_byte soc.Vp.Soc.memory (0x100 + i) (0x10 + i)
  done;
  let dma_sock = Vp.Dma.socket soc.Vp.Soc.dma in
  let write32 addr v =
    let p =
      Tlm.Payload.create ~cmd:Tlm.Payload.Write ~addr ~len:4 ~default_tag:0 ()
    in
    for i = 0 to 3 do
      Tlm.Payload.set_byte p i ((v lsr (8 * i)) land 0xff)
    done;
    ignore (Tlm.Socket.call dma_sock p Sysc.Time.zero)
  in
  write32 0x00 (base + 0x100);
  write32 0x04 (base + 0x104);
  write32 0x08 8;
  write32 0x0c 1;
  Vp.Soc.run ~until:(Sysc.Time.us 10) soc;
  check_bool "transfer completed" true
    (Vp.Dma.transfers_completed soc.Vp.Soc.dma = 1);
  (* memmove semantics: dst[i] = original src[i], not the clobbered one. *)
  for i = 0 to 7 do
    check_int
      (Printf.sprintf "dst byte %d" i)
      (0x10 + i)
      (Vp.Memory.read_byte soc.Vp.Soc.memory (0x104 + i))
  done

(* --- full-platform snapshot determinism -------------------------------- *)

module Immo = Firmware.Immo_fw

let immo_image = lazy (Immo.image ~variant:(Immo.Normal { fixed_dump = true }) ())

(* Build an immobilizer SoC; [collect] accumulates the complete trace
   event stream as rendered JSONL lines. *)
let immo_soc ?block_cache () =
  let img = Lazy.force immo_image in
  let policy = Immo.base_policy img in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let aes_out_tag, aes_in_clearance = Immo.aes_args policy in
  let tracer = Trace.Tracer.create policy.Dift.Policy.lattice in
  let buf = Buffer.create 4096 in
  Trace.Tracer.set_on_record tracer
    (Some
       (fun e ->
         Buffer.add_string buf
           (Jsonkit.Json.to_string (Trace.Sink.event_json tracer e));
         Buffer.add_char buf '\n'));
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking:true ~aes_out_tag
      ~aes_in_clearance ~tracer ?block_cache ()
  in
  Vp.Soc.load_image soc img;
  (soc, monitor, buf)

let finish soc =
  Rv32.Core.set_max_instructions soc.Vp.Soc.core 2_000_000;
  (match Vp.Soc.run soc with () -> ());
  expect_exit (Rv32.Core.exit_reason soc.Vp.Soc.core) 0

let test_save_resume_bit_identical () =
  (* Reference: uninterrupted run. *)
  let soc0, mon0, buf0 = immo_soc () in
  let _e0 = Immo.Engine.attach soc0 ~challenge:"CHLLNGSN" in
  Vp.Uart.push_rx soc0.Vp.Soc.uart "D";
  Vp.Soc.start soc0;
  finish soc0;
  let final0 = Vp.Soc.save soc0 in
  let total = Rv32.Core.instret soc0.Vp.Soc.core in
  check_bool "run is long enough to split" true (total > 400);
  (* Same run, paused in the middle, snapshotted, resumed in-process. *)
  let soc1, mon1, buf1 = immo_soc () in
  let _e1 = Immo.Engine.attach soc1 ~challenge:"CHLLNGSN" in
  Vp.Uart.push_rx soc1.Vp.Soc.uart "D";
  Vp.Soc.pause_at soc1 (total / 2);
  Rv32.Core.set_max_instructions soc1.Vp.Soc.core 2_000_000;
  Vp.Soc.start soc1;
  Vp.Soc.run soc1;
  check_bool "paused mid-run" true (Vp.Soc.paused soc1);
  check_bool "paused before the end" true
    (Rv32.Core.instret soc1.Vp.Soc.core < total);
  let mid = Vp.Soc.save soc1 in
  let mid_trace_len = Buffer.length buf1 in
  Vp.Soc.resume soc1;
  expect_exit (Rv32.Core.exit_reason soc1.Vp.Soc.core) 0;
  let final1 = Vp.Soc.save soc1 in
  check_bool "final snapshots bit-identical" true (String.equal final0 final1);
  check_string "uart tx identical"
    (Vp.Uart.tx_string soc0.Vp.Soc.uart)
    (Vp.Uart.tx_string soc1.Vp.Soc.uart);
  check_bool "trace event streams identical" true
    (String.equal (Buffer.contents buf0) (Buffer.contents buf1));
  check_int "monitor checks identical"
    (Dift.Monitor.check_count mon0)
    (Dift.Monitor.check_count mon1);
  (* And restored into a fresh process: rebuild, restore the mid-run
     snapshot, continue. *)
  let soc2, _mon2, buf2 = immo_soc () in
  Vp.Soc.restore soc2 mid;
  Vp.Soc.start soc2;
  finish soc2;
  let final2 = Vp.Soc.save soc2 in
  check_bool "restored run's final snapshot bit-identical" true
    (String.equal final0 final2);
  check_string "restored run's uart tx identical"
    (Vp.Uart.tx_string soc0.Vp.Soc.uart)
    (Vp.Uart.tx_string soc2.Vp.Soc.uart);
  (* The fresh process records only post-checkpoint events; they must be
     exactly the reference stream's suffix. *)
  let suffix =
    String.sub (Buffer.contents buf0) mid_trace_len
      (Buffer.length buf0 - mid_trace_len)
  in
  check_bool "restored trace is the post-checkpoint suffix" true
    (String.equal suffix (Buffer.contents buf2));
  (* Saving the same paused state twice yields the same bytes. *)
  let soc3, _, _ = immo_soc () in
  Vp.Soc.restore soc3 mid;
  check_bool "restore/save is the identity on snapshots" true
    (String.equal mid (Vp.Soc.save soc3))

(* --- cross-path restore ------------------------------------------------- *)

(* A snapshot holds only architectural state: one saved on the
   single-step reference interpreter ([~block_cache:false]) must restore
   into a SoC running the threaded-code compiler (the default) and
   continue to exactly the state an uninterrupted compiled run reaches —
   same final snapshot, same UART output, and a trace event stream whose
   post-checkpoint suffix is byte-identical. *)
let test_restore_across_engines () =
  (* Uninterrupted run on the default compiled path. *)
  let soc0, _, buf0 = immo_soc () in
  let _e0 = Immo.Engine.attach soc0 ~challenge:"CHLLNGSN" in
  Vp.Uart.push_rx soc0.Vp.Soc.uart "D";
  Vp.Soc.start soc0;
  finish soc0;
  let final0 = Vp.Soc.save soc0 in
  let total = Rv32.Core.instret soc0.Vp.Soc.core in
  (* Save mid-run on the reference. *)
  let soc1, _, buf1 = immo_soc ~block_cache:false () in
  let _e1 = Immo.Engine.attach soc1 ~challenge:"CHLLNGSN" in
  Vp.Uart.push_rx soc1.Vp.Soc.uart "D";
  Vp.Soc.pause_at soc1 (total / 2);
  Rv32.Core.set_max_instructions soc1.Vp.Soc.core 2_000_000;
  Vp.Soc.start soc1;
  Vp.Soc.run soc1;
  check_bool "paused mid-run on the reference" true (Vp.Soc.paused soc1);
  let mid = Vp.Soc.save soc1 in
  let mid_trace_len = Buffer.length buf1 in
  (* The reference's pre-checkpoint trace must itself be a prefix of the
     compiled run's stream. *)
  check_bool "reference trace is a compiled-run prefix" true
    (mid_trace_len <= Buffer.length buf0
    && String.equal (Buffer.contents buf1)
         (String.sub (Buffer.contents buf0) 0 mid_trace_len));
  (* Restore into a compiled SoC and finish. *)
  let soc2, _, buf2 = immo_soc () in
  Vp.Soc.restore soc2 mid;
  Vp.Soc.start soc2;
  finish soc2;
  check_bool "final snapshot matches the uninterrupted compiled run" true
    (String.equal final0 (Vp.Soc.save soc2));
  check_string "uart tx identical"
    (Vp.Uart.tx_string soc0.Vp.Soc.uart)
    (Vp.Uart.tx_string soc2.Vp.Soc.uart);
  let suffix =
    String.sub (Buffer.contents buf0) mid_trace_len
      (Buffer.length buf0 - mid_trace_len)
  in
  check_bool "post-restore trace is the compiled run's suffix" true
    (String.equal suffix (Buffer.contents buf2));
  (* And compiled chains actually ran after the restore. *)
  check_bool "compiled blocks after restore" true
    (Rv32.Core.blocks_built soc2.Vp.Soc.core > 0)

(* --- wilander attacks across a checkpoint ------------------------------ *)

module W = Firmware.Wilander

let wilander_soc id =
  let img = Option.get (W.image_for id) in
  let policy = W.policy img in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking:true ~quantum:64 () in
  Vp.Soc.load_image soc img;
  (soc, img)

let run_to_violation soc =
  Rv32.Core.set_max_instructions soc.Vp.Soc.core 1_000_000;
  match Vp.Soc.run soc with
  | exception Dift.Violation.Violation _ ->
      Some (Rv32.Core.instret soc.Vp.Soc.core)
  | () -> None

let test_wilander_across_checkpoint id () =
  (* Discover when the attack is detected. *)
  let soc0, img = wilander_soc id in
  Vp.Uart.push_rx soc0.Vp.Soc.uart (W.payload_for id img);
  Vp.Soc.start soc0;
  let v =
    match run_to_violation soc0 with
    | Some v -> v
    | None -> Alcotest.failf "attack %d not detected in the straight run" id
  in
  (* Pausing at [v/2] rounds up to the next quantum boundary (64); that
     boundary is guaranteed to precede the violation only when v > 128. *)
  check_bool "violation late enough to checkpoint before it" true (v > 128);
  let n1 = v / 2 in
  (* Straight run paused just before the violation. *)
  let soc1, _ = wilander_soc id in
  Vp.Uart.push_rx soc1.Vp.Soc.uart (W.payload_for id img);
  Vp.Soc.pause_at soc1 n1;
  Rv32.Core.set_max_instructions soc1.Vp.Soc.core 1_000_000;
  Vp.Soc.start soc1;
  Vp.Soc.run soc1;
  check_bool "paused" true (Vp.Soc.paused soc1);
  check_bool "paused before the violation" true
    (Rv32.Core.instret soc1.Vp.Soc.core < v);
  let mid = Vp.Soc.save soc1 in
  (* Restore into a fresh SoC; the attack must still be detected, at the
     same instruction count, with identical mid-flight state. *)
  let soc2, _ = wilander_soc id in
  Vp.Soc.restore soc2 mid;
  check_bool "snapshot is stable across restore/save" true
    (String.equal mid (Vp.Soc.save soc2));
  Vp.Soc.start soc2;
  (match run_to_violation soc2 with
  | Some v2 -> check_int "violation at the same instruction" v v2
  | None -> Alcotest.failf "attack %d missed after restore" id);
  (* The in-process resume detects it too. *)
  match
    Rv32.Core.clear_paused soc1.Vp.Soc.core;
    Vp.Soc.run soc1
  with
  | exception Dift.Violation.Violation _ ->
      check_int "resumed run's violation instruction" v
        (Rv32.Core.instret soc1.Vp.Soc.core)
  | () -> Alcotest.failf "attack %d missed after resume" id

(* --- checkpoint inside a trap handler ----------------------------------- *)

module A = Rv32_asm.Asm
module R = Rv32.Reg
module C = Rv32.Csr

(* Interrupt-driven firmware with live privilege state everywhere: the
   main loop spins in U-mode; the sensor's PLIC source (priority 5,
   threshold 1) interrupts it; the ISR claims, dawdles, completes, and
   exits 0 after the third frame. Pausing between the claim and the
   complete checkpoints a SoC with a non-empty PLIC in-service mask and a
   stacked mstatus. *)
let irq_program p =
  Firmware.Rt.entry p ();
  A.la p R.t6 "handler";
  A.csrrw p R.zero C.mtvec R.t6;
  A.li p R.t0 Vp.Soc.plic_base;
  A.li p R.t1 1;
  A.sw p R.t1 R.t0 0x10;
  A.li p R.t1 5;
  A.sw p R.t1 R.t0 (0x80 + (4 * Vp.Soc.irq_sensor));
  A.li p R.t1 (1 lsl Vp.Soc.irq_sensor);
  A.sw p R.t1 R.t0 4;
  A.li p R.t0 C.bit_mei;
  A.csrrs p R.zero C.mie R.t0;
  (* Drop to U-mode with MPIE set, so the mret lands with MIE on. *)
  A.li p R.t0 C.mstatus_mpie;
  A.csrrs p R.zero C.mstatus R.t0;
  A.la p R.t6 "uloop";
  A.csrrw p R.zero C.mepc R.t6;
  A.li p R.t6 C.mstatus_mpp_mask;
  A.csrrc p R.zero C.mstatus R.t6;
  A.mret p;
  A.label p "uloop";
  A.j p "uloop";
  A.align p 4;
  A.label p "handler";
  A.li p R.t0 Vp.Soc.plic_base;
  A.lw p R.t1 R.t0 8;
  A.nop p;
  A.nop p;
  A.sw p R.t1 R.t0 8;
  A.addi p R.s2 R.s2 1;
  A.li p R.t1 3;
  A.blt_l p R.s2 R.t1 "back";
  Firmware.Rt.exit_ p ~code:0 ();
  A.label p "back";
  A.mret p

let irq_image = lazy (let p = A.create () in irq_program p; A.assemble p)

(* quantum 1 makes every instruction a sync boundary, so pause_at is
   exact and a checkpoint can land inside the handler. *)
let irq_soc () =
  let policy = trivial_policy () in
  let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
  let soc =
    Vp.Soc.create ~policy ~monitor ~tracking:true ~quantum:2
      ~sensor_period:(Sysc.Time.us 10) ()
  in
  Vp.Soc.load_image soc (Lazy.force irq_image);
  soc

let pause_run soc n =
  Vp.Soc.pause_at soc n;
  Rv32.Core.set_max_instructions soc.Vp.Soc.core 2_000_000;
  Vp.Soc.start soc;
  Vp.Soc.run soc;
  check_bool "paused" true (Vp.Soc.paused soc)

(* The reference run records the instruction count of every interrupt
   entry; the checkpoint targets a few instructions into the second
   handler activation (after the claim, before the complete). *)
let irq_reference () =
  let soc = irq_soc () in
  let enters = ref [] in
  Vp.Soc.set_trap_hook soc
    (Some
       (function
       | Rv32.Core.Trap_enter _ ->
           enters := Rv32.Core.instret soc.Vp.Soc.core :: !enters
       | _ -> ()));
  Vp.Soc.start soc;
  finish soc;
  let final = Vp.Soc.save soc in
  match List.rev !enters with
  | _ :: e2 :: _ -> (final, e2)
  | _ -> Alcotest.fail "expected at least two interrupt entries"

let test_checkpoint_mid_handler () =
  let final0, e2 = irq_reference () in
  let soc1 = irq_soc () in
  pause_run soc1 (e2 + 3);
  (* The checkpoint really is inside the handler's claim window. *)
  check_int "source in service at the checkpoint"
    (1 lsl Vp.Soc.irq_sensor)
    (Vp.Plic.in_service soc1.Vp.Soc.plic);
  check_int "handler runs in M" C.priv_m (Rv32.Core.priv soc1.Vp.Soc.core);
  check_int "interrupted U-mode stacked in MPP" C.priv_u
    (C.mstatus_mpp (Rv32.Core.csr soc1.Vp.Soc.core).C.v_mstatus);
  let mid = Vp.Soc.save soc1 in
  (* Restore into a fresh platform: byte-identical state, identical
     continuation. *)
  let soc2 = irq_soc () in
  Vp.Soc.restore soc2 mid;
  check_bool "restore/save identity on the mid-handler snapshot" true
    (String.equal mid (Vp.Soc.save soc2));
  Vp.Soc.start soc2;
  finish soc2;
  check_bool "restored run reaches the reference final state" true
    (String.equal final0 (Vp.Soc.save soc2));
  (* The in-process resume agrees too. *)
  Vp.Soc.resume soc1;
  expect_exit (Rv32.Core.exit_reason soc1.Vp.Soc.core) 0;
  check_bool "resumed run reaches the reference final state" true
    (String.equal final0 (Vp.Soc.save soc1))

(* --- v1 -> v2 snapshot migration ---------------------------------------- *)

(* A v1 snapshot predates the privilege architecture: the cpu section has
   no trailing privilege byte and the plic section ends after
   pending/enable. Loaders must fill the missing fields with reset
   defaults (M-mode; claim/threshold/priority reset) while keeping
   everything the section does carry. *)
let test_v1_snapshot_migration () =
  (* Checkpoint in the U-mode loop, shortly after the first handler
     activation: priv=U, tuned PLIC priorities — state a v1 restore must
     visibly reset. *)
  let _, e2 = irq_reference () in
  let soc1 = irq_soc () in
  pause_run soc1 (e2 - 40);
  check_int "paused in U-mode" C.priv_u (Rv32.Core.priv soc1.Vp.Soc.core);
  check_int "tuned threshold" 1 (Vp.Plic.threshold soc1.Vp.Soc.plic);
  check_int "tuned priority" 5
    (Vp.Plic.priority soc1.Vp.Soc.plic Vp.Soc.irq_sensor);
  let v2 = Vp.Soc.save soc1 in
  (* Sanity: a v2 restore reproduces the privilege and PLIC tuning. *)
  let socv2 = irq_soc () in
  Vp.Soc.restore socv2 v2;
  check_int "v2 restore keeps U-mode" C.priv_u
    (Rv32.Core.priv socv2.Vp.Soc.core);
  check_int "v2 restore keeps the threshold" 1
    (Vp.Plic.threshold socv2.Vp.Soc.plic);
  (* Strip the v2-only trailing fields and re-encode as version 1. *)
  let sections =
    List.map
      (fun (name, s) ->
        match name with
        | "cpu" -> (name, String.sub s 0 (String.length s - 1))
        | "plic" -> (name, String.sub s 0 8)
        | _ -> (name, s))
      (Codec.Container.decode v2)
  in
  let v1 = Codec.Container.encode_at ~version:1 sections in
  let socv1 = irq_soc () in
  Vp.Soc.restore socv1 v1;
  (* Missing fields come back as reset defaults... *)
  check_int "v1 restore defaults to M-mode" C.priv_m
    (Rv32.Core.priv socv1.Vp.Soc.core);
  check_int "v1 restore resets the threshold" 0
    (Vp.Plic.threshold socv1.Vp.Soc.plic);
  check_int "v1 restore resets priorities" 1
    (Vp.Plic.priority socv1.Vp.Soc.plic Vp.Soc.irq_sensor);
  check_int "v1 restore clears in-service" 0
    (Vp.Plic.in_service socv1.Vp.Soc.plic);
  (* ...while the fields v1 does carry survive. *)
  check_int "enable mask survives" (1 lsl Vp.Soc.irq_sensor)
    (Vp.Plic.enabled socv1.Vp.Soc.plic);
  check_int "pc survives"
    (Rv32.Core.pc soc1.Vp.Soc.core)
    (Rv32.Core.pc socv1.Vp.Soc.core);
  check_int "registers survive"
    (Rv32.Core.get_reg soc1.Vp.Soc.core R.s2)
    (Rv32.Core.get_reg socv1.Vp.Soc.core R.s2)

(* --- hostile snapshots ---------------------------------------------------- *)

(* A kernel section that names an event the platform does not have (one
   flipped byte in a name) is refused as corrupt, like any other
   malformed section. *)
let test_unknown_event_is_corrupt () =
  let soc1 = irq_soc () in
  pause_run soc1 200;
  let flip name =
    String.mapi
      (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c)
      name
  in
  let kernel s =
    let r = Codec.reader s in
    let now = Codec.get_i64 r in
    let deltas = Codec.get_i64 r in
    let ns =
      Codec.get_list r (fun r ->
          let name = Codec.get_string r in
          (name, Codec.get_i64 r))
    in
    Codec.expect_end r;
    check_bool "a notification is pending" true (ns <> []);
    let w = Codec.writer () in
    Codec.put_i64 w now;
    Codec.put_i64 w deltas;
    Codec.put_list w
      (fun w (name, at) ->
        Codec.put_string w name;
        Codec.put_i64 w at)
      (List.mapi
         (fun i (name, at) -> ((if i = 0 then flip name else name), at))
         ns);
    Codec.contents w
  in
  let bad =
    Codec.Container.encode
      (List.map
         (fun (name, s) -> (name, if name = "kernel" then kernel s else s))
         (Codec.Container.decode (Vp.Soc.save soc1)))
  in
  match Vp.Soc.restore (irq_soc ()) bad with
  | exception Codec.Corrupt msg ->
      check_bool "the error names the event" true
        (Astring_contains.contains ~sub:"no event named" msg)
  | () -> Alcotest.fail "snapshot with an unknown event accepted"

(* A tag at or above the lattice's size would index past its flat
   tables. Restore refuses one as corrupt wherever it sits: a register
   tag, [insn_tag], a CSR tag, or a RAM tag inside an RLE run or a
   literal. *)
let test_out_of_lattice_tag_is_corrupt () =
  let soc1 = irq_soc () in
  pause_run soc1 200;
  let snap = Vp.Soc.save soc1 in
  let ntags = Dift.Lattice.size soc1.Vp.Soc.env.Vp.Env.lat in
  let patch section f =
    Codec.Container.encode
      (List.map
         (fun (name, s) -> (name, if name = section then f s else s))
         (Codec.Container.decode snap))
  in
  (* The cpu section: 32 registers, 32 register tags, pc, cur_pc,
     insn_word, insn_tag (u32 each), instret and local_cycles (i64),
     in_wfi, syncing and the exit tag (u8), the exit code (i64), then
     eight CSR values and eight CSR tags (u32 each). *)
  let cpu_at off s =
    let b = Bytes.of_string s in
    Bytes.set_int32_le b off (Int32.of_int ntags);
    Bytes.to_string b
  in
  let csr_tags = 128 + 128 + 16 + 16 + 3 + 8 + 32 in
  (* The mem section: the value bytes, then the tag bytes, each RLE. *)
  let mem_tags f s =
    let r = Codec.reader s in
    let data = Bytes.create Vp.Soc.ram_size in
    let tags = Bytes.create Vp.Soc.ram_size in
    Codec.get_bytes_rle_into r data;
    Codec.get_bytes_rle_into r tags;
    Codec.expect_end r;
    f tags;
    let w = Codec.writer () in
    Codec.put_bytes_rle w data;
    Codec.put_bytes_rle w tags;
    Codec.contents w
  in
  (* The sensor section: its class (u8), rng (u32), frames (i64), then
     the frame's data and tag bytes (strings). *)
  let sensor ~cls ~frame_tag s =
    let r = Codec.reader s in
    let c = Codec.get_u8 r in
    let rng = Codec.get_u32 r in
    let frames = Codec.get_i64 r in
    let data = Codec.get_string r in
    let tags = Codec.get_string r in
    Codec.expect_end r;
    let w = Codec.writer () in
    Codec.put_u8 w (if cls then ntags else c);
    Codec.put_u32 w rng;
    Codec.put_i64 w frames;
    Codec.put_string w data;
    Codec.put_string w
      (if frame_tag then
         String.mapi (fun i c -> if i = 5 then Char.chr ntags else c) tags
       else tags);
    Codec.contents w
  in
  let bad = Char.chr ntags in
  (* Unpatched, the round trip through the decoder keeps the bytes. *)
  check_bool "mem section re-encodes byte-identically" true
    (patch "mem" (mem_tags ignore) = snap);
  check_bool "sensor section re-encodes byte-identically" true
    (patch "sensor" (sensor ~cls:false ~frame_tag:false) = snap);
  List.iter
    (fun (what, blob) ->
      match Vp.Soc.restore (irq_soc ()) blob with
      | exception Codec.Corrupt msg ->
          check_bool (what ^ ": the error names the bound") true
            (Astring_contains.contains ~sub:"not below" msg)
      | () -> Alcotest.failf "%s at the lattice size accepted" what)
    [
      ("register tag", patch "cpu" (cpu_at (128 + (4 * R.s2))));
      ("insn_tag", patch "cpu" (cpu_at (128 + 128 + 12)));
      ("mstatus tag", patch "cpu" (cpu_at csr_tags));
      ("mtval tag", patch "cpu" (cpu_at (csr_tags + 28)));
      ( "RAM tag run",
        patch "mem" (mem_tags (fun t -> Bytes.fill t 0x1000 64 bad)) );
      ( "RAM tag literal",
        patch "mem" (mem_tags (fun t -> Bytes.set t 0x2001 bad)) );
      ("sensor class", patch "sensor" (sensor ~cls:true ~frame_tag:false));
      ( "sensor frame tag",
        patch "sensor" (sensor ~cls:false ~frame_tag:true) );
    ]

let () =
  Alcotest.run "snapshot"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rle" `Quick test_codec_rle;
          Alcotest.test_case "rle matches a byte-loop reference" `Quick
            test_codec_rle_reference;
          Alcotest.test_case "container" `Quick test_codec_container;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "notification override rule" `Quick
            test_override_rule;
          Alcotest.test_case "pending_timed/restore roundtrip" `Quick
            test_kernel_snapshot_roundtrip;
        ] );
      ( "clint",
        [
          Alcotest.test_case "mtimecmp half-writes glitch-free" `Quick
            test_clint_half_write_no_glitch;
        ] );
      ( "dma",
        [
          Alcotest.test_case "overlapping copy is memmove" `Quick
            test_dma_overlap_memmove;
        ] );
      ( "soc",
        [
          Alcotest.test_case "save/resume/restore bit-identical" `Quick
            test_save_resume_bit_identical;
          Alcotest.test_case "restore across engines (interp -> threaded)"
            `Quick test_restore_across_engines;
        ] );
      ( "privilege",
        [
          Alcotest.test_case "checkpoint inside a trap handler" `Quick
            test_checkpoint_mid_handler;
          Alcotest.test_case "v1 -> v2 migration" `Quick
            test_v1_snapshot_migration;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "unknown event name refused as corrupt" `Quick
            test_unknown_event_is_corrupt;
          Alcotest.test_case "tag at the lattice size refused as corrupt"
            `Quick test_out_of_lattice_tag_is_corrupt;
        ] );
      ( "wilander",
        List.map
          (fun id ->
            Alcotest.test_case
              (Printf.sprintf "attack %d across a checkpoint" id)
              `Quick
              (test_wilander_across_checkpoint id))
          [ 3; 5; 7; 9 ] );
    ]
