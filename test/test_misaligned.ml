(* Taint propagation for misaligned and byte-boundary-crossing loads and
   stores: an LH/LW whose footprint spans tainted and untainted bytes must
   carry the LUB of exactly the bytes it touches — no more, no less — and
   the answer must be the same on the default compiled path, where the
   untainted fast path runs until the first tainted byte, and on the
   single-step reference ([~block_cache:false]), which has no fast
   path. *)

open Helpers
module A = Rv32_asm.Asm
module R = Rv32.Reg
module L = Dift.Lattice

let lat = L.ifp3 ()
let t n = L.tag_of_name lat n

(* The scratch word layout built by [program]:
     scratch[0..1] public, scratch[2] secret, scratch[3] public,
     scratch[4] secret, scratch[5..7] public.
   Loads under test:
     s2 = lh  scratch+2   (secret byte 2 + public byte 3  -> secret)
     s3 = lh  scratch+0   (public bytes only             -> public)
     s4 = lw  scratch+0   (includes byte 2               -> secret)
     s5 = lw  scratch+1   (misaligned; bytes 1..4, incl. 2 and 4 -> secret)
     s6 = lhu scratch+3   (misaligned; crosses the word boundary at
                           byte 4: public byte 3 + secret byte 4 -> secret)
     s7 = lhu scratch+6   (bytes 6..7, beyond both secrets -> public)
   And a cross-boundary store:
     sh of a secret halfword at scratch2+3 (misaligned, spans the word
     boundary); byte loads of scratch2[3] and scratch2[4] must both be
     secret while scratch2[5] stays public. *)
let program p =
  Firmware.Rt.entry p ();
  A.la p R.t0 "secret";
  A.la p R.t1 "scratch";
  A.lbu p R.t2 R.t0 0;
  A.sb p R.t2 R.t1 2;
  A.sb p R.t2 R.t1 4;
  A.lh p R.s2 R.t1 2;
  A.lh p R.s3 R.t1 0;
  A.lw p R.s4 R.t1 0;
  A.lw p R.s5 R.t1 1;
  A.lhu p R.s6 R.t1 3;
  A.lhu p R.s7 R.t1 6;
  (* Cross-boundary store: secret halfword over scratch2[3..4]. *)
  A.lhu p R.t3 R.t0 0;
  A.la p R.t4 "scratch2";
  A.sh p R.t3 R.t4 3;
  A.lbu p R.s8 R.t4 3;
  A.lbu p R.s9 R.t4 4;
  A.lbu p R.s10 R.t4 5;
  Firmware.Rt.exit_ p ();
  A.align p 4;
  A.label p "secret";
  A.ascii p "0123456789abcdef";
  A.align p 4;
  A.label p "scratch";
  A.space p 8;
  A.label p "scratch2";
  A.space p 8

let policy_for img =
  let secret_lo = Rv32_asm.Image.symbol img "secret" in
  Dift.Policy.make ~lattice:lat ~default_tag:(t "LC,LI")
    ~classification:
      [
        Dift.Policy.region ~name:"secret" ~lo:secret_lo ~hi:(secret_lo + 15)
          ~tag:(t "HC,HI");
        Dift.Policy.region ~name:"program"
          ~lo:img.Rv32_asm.Image.org
          ~hi:(Rv32_asm.Image.limit img - 1)
          ~tag:(t "LC,HI");
      ]
    ~exec_fetch:(t "LC,HI") ()

let run ~block_cache () =
  let p = A.create () in
  program p;
  let img = A.assemble p in
  let policy = policy_for img in
  let monitor = Dift.Monitor.create lat in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking:true ~block_cache () in
  Vp.Soc.load_image soc img;
  expect_exit (Vp.Soc.run_for_instructions soc 100_000) 0;
  soc

let check_tags soc =
  let tag r = Rv32.Core.get_reg_tag soc.Vp.Soc.core r in
  (* Everything in the image (including the scratch words) sits in the
     "program" region, so the public expectation is LC,HI — the lattice
     bottom — not the off-image default LC,LI. *)
  let sec = t "HC,HI" and pub = t "LC,HI" in
  check_int "lh spanning secret|public byte" sec (tag R.s2);
  check_int "lh over public bytes only" pub (tag R.s3);
  check_int "lw containing one secret byte" sec (tag R.s4);
  check_int "misaligned lw spanning both secrets" sec (tag R.s5);
  check_int "misaligned lhu across the word boundary" sec (tag R.s6);
  check_int "lhu beyond the secrets" pub (tag R.s7);
  check_int "cross-boundary sh taints low byte" sec (tag R.s8);
  check_int "cross-boundary sh taints high byte" sec (tag R.s9);
  check_int "byte after the stored halfword stays public" pub (tag R.s10)

let test_with_fast_path () =
  let soc = run ~block_cache:true () in
  check_tags soc

let test_without_fast_path () =
  let soc = run ~block_cache:false () in
  check_int "fast path actually off" 0
    (Rv32.Core.fast_retired soc.Vp.Soc.core);
  check_tags soc

(* The two paths must agree on every register tag and every memory tag
   byte (the fast path may only skip work, never change results). *)
let test_flavours_agree () =
  let a = run ~block_cache:true () in
  let b = run ~block_cache:false () in
  for r = 0 to 31 do
    check_int
      (Printf.sprintf "reg %d tag" r)
      (Rv32.Core.get_reg_tag b.Vp.Soc.core r)
      (Rv32.Core.get_reg_tag a.Vp.Soc.core r)
  done;
  check_bool "memory tag arrays identical" true
    (Bytes.equal
       (Vp.Memory.tags a.Vp.Soc.memory)
       (Vp.Memory.tags b.Vp.Soc.memory))

let () =
  Alcotest.run "misaligned"
    [
      ( "taint",
        [
          Alcotest.test_case "cross-boundary loads/stores (fast path on)"
            `Quick test_with_fast_path;
          Alcotest.test_case "cross-boundary loads/stores (fast path off)"
            `Quick test_without_fast_path;
          Alcotest.test_case "fast path changes nothing" `Quick
            test_flavours_agree;
        ] );
    ]
