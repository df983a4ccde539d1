module A = Rv32_asm.Asm
module R = Rv32.Reg

(* --- CRC-32 --------------------------------------------------------------- *)

let crc32_reference s =
  let crc = ref 0xffffffff in
  String.iter
    (fun c ->
      crc := !crc lxor Char.code c;
      for _ = 1 to 8 do
        let lsb = !crc land 1 in
        crc := !crc lsr 1;
        if lsb = 1 then crc := !crc lxor 0xedb88320
      done)
    s;
  !crc lxor 0xffffffff

let gen_buffer len = String.init len (fun i -> Char.chr ((i * 131 + 7) land 0xff))

let crc32 ?(len = 1024) p =
  let data = gen_buffer len in
  let expected = crc32_reference data in
  Rt.entry p ();
  A.la p R.s1 "data";
  A.li p R.s2 len;
  A.li p R.s3 0xffffffff (* crc *);
  A.li p R.s4 0xedb88320 (* polynomial *);
  A.label p "byte";
  A.lbu p R.t0 R.s1 0;
  A.xor p R.s3 R.s3 R.t0;
  A.li p R.t1 8;
  A.label p "bit";
  A.andi p R.t2 R.s3 1;
  A.srli p R.s3 R.s3 1;
  A.beqz_l p R.t2 "nopoly";
  A.xor p R.s3 R.s3 R.s4;
  A.label p "nopoly";
  A.addi p R.t1 R.t1 (-1);
  A.bnez_l p R.t1 "bit";
  A.addi p R.s1 R.s1 1;
  A.addi p R.s2 R.s2 (-1);
  A.bnez_l p R.s2 "byte";
  A.not_ p R.s3 R.s3 (* xorout *);
  A.li p R.t0 expected;
  A.bne_l p R.s3 R.t0 "fail";
  Rt.exit_ p ();
  A.label p "fail";
  Rt.exit_ p ~code:1 ();
  A.label p "data";
  A.ascii p data

let crc32_image ?len () =
  let p = A.create () in
  crc32 ?len p;
  A.assemble p

(* --- hello world ----------------------------------------------------------- *)

let hello_msg = "hello, world!\n"

(* Char-sum passes between two prints: keeps the UART share of the
   instruction mix realistic (a few percent) so the workload measures the
   execution engine, not the TLM transport. *)
let hello_passes = 8

let hello ?(rounds = 2000) p =
  (* The classic first program, per the paper's Table II: print the
     greeting over the UART [rounds] times. Each round also char-sums the
     message a few times so the run self-checks against the
     host-computed total. *)
  let char_sum =
    String.fold_left (fun a c -> a + Char.code c) 0 hello_msg
  in
  let expected = rounds * hello_passes * char_sum land 0xffffffff in
  Rt.entry p ();
  A.li p R.s1 rounds;
  A.li p R.s2 0 (* checksum accumulator *);
  A.label p "round";
  A.la p R.a0 "msg";
  A.call p "uart_puts";
  A.li p R.s3 hello_passes;
  A.label p "pass";
  A.la p R.t0 "msg";
  A.label p "csum";
  A.lbu p R.t1 R.t0 0;
  A.beqz_l p R.t1 "csum_done";
  A.add p R.s2 R.s2 R.t1;
  A.addi p R.t0 R.t0 1;
  A.j p "csum";
  A.label p "csum_done";
  A.addi p R.s3 R.s3 (-1);
  A.bnez_l p R.s3 "pass";
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "round";
  A.li p R.t0 expected;
  A.bne_l p R.s2 R.t0 "fail";
  Rt.exit_ p ();
  A.label p "fail";
  Rt.exit_ p ~code:1 ();
  Rt.emit_uart_putc p;
  Rt.emit_uart_puts p;
  A.label p "msg";
  A.asciz p hello_msg

let hello_image ?rounds () =
  let p = A.create () in
  hello ?rounds p;
  A.assemble p

(* --- integer matrix multiply ---------------------------------------------- *)

let matmul_reference n a b =
  let c = Array.make (n * n) 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0 in
      for k = 0 to n - 1 do
        acc := (!acc + (a.((i * n) + k) * b.((k * n) + j))) land 0xffffffff
      done;
      c.((i * n) + j) <- !acc
    done
  done;
  c

let matmul ?(n = 16) p =
  let a = Array.init (n * n) (fun i -> (i * 7) land 0xff) in
  let b = Array.init (n * n) (fun i -> ((i * 13) + 5) land 0xff) in
  let c = matmul_reference n a b in
  let checksum = Array.fold_left (fun acc v -> (acc + v) land 0xffffffff) 0 c in
  Rt.entry p ();
  (* for i, j: C[i][j] = sum_k A[i][k]*B[k][j]; then checksum C. *)
  A.la p R.s1 "ma";
  A.la p R.s2 "mb";
  A.la p R.s3 "mc";
  A.li p R.s4 0 (* i *);
  A.label p "li";
  A.li p R.s5 0 (* j *);
  A.label p "lj";
  A.li p R.s6 0 (* k *);
  A.li p R.s7 0 (* acc *);
  A.label p "lk";
  (* A[i*n + k] *)
  A.li p R.t0 n;
  A.mul p R.t1 R.s4 R.t0;
  A.add p R.t1 R.t1 R.s6;
  A.slli p R.t1 R.t1 2;
  A.add p R.t1 R.s1 R.t1;
  A.lw p R.t2 R.t1 0;
  (* B[k*n + j] *)
  A.mul p R.t3 R.s6 R.t0;
  A.add p R.t3 R.t3 R.s5;
  A.slli p R.t3 R.t3 2;
  A.add p R.t3 R.s2 R.t3;
  A.lw p R.t4 R.t3 0;
  A.mul p R.t5 R.t2 R.t4;
  A.add p R.s7 R.s7 R.t5;
  A.addi p R.s6 R.s6 1;
  A.li p R.t0 n;
  A.blt_l p R.s6 R.t0 "lk";
  (* C[i*n + j] = acc *)
  A.li p R.t0 n;
  A.mul p R.t1 R.s4 R.t0;
  A.add p R.t1 R.t1 R.s5;
  A.slli p R.t1 R.t1 2;
  A.add p R.t1 R.s3 R.t1;
  A.sw p R.s7 R.t1 0;
  A.addi p R.s5 R.s5 1;
  A.li p R.t0 n;
  A.blt_l p R.s5 R.t0 "lj";
  A.addi p R.s4 R.s4 1;
  A.blt_l p R.s4 R.t0 "li";
  (* checksum *)
  A.la p R.t1 "mc";
  A.li p R.t2 (n * n);
  A.li p R.a0 0;
  A.label p "sum";
  A.lw p R.t3 R.t1 0;
  A.add p R.a0 R.a0 R.t3;
  A.addi p R.t1 R.t1 4;
  A.addi p R.t2 R.t2 (-1);
  A.bnez_l p R.t2 "sum";
  A.li p R.t0 checksum;
  A.bne_l p R.a0 R.t0 "fail";
  Rt.exit_ p ();
  A.label p "fail";
  Rt.exit_ p ~code:1 ();
  A.align p 4;
  A.label p "ma";
  Array.iter (fun v -> A.word p v) a;
  A.label p "mb";
  Array.iter (fun v -> A.word p v) b;
  A.label p "mc";
  A.space p (4 * n * n)

let matmul_image ?n () =
  let p = A.create () in
  matmul ?n p;
  A.assemble p

(* --- string routines ------------------------------------------------------- *)

let strings ?(count = 64) p =
  (* count strings of varying lengths; the firmware strcpy's each into a
     scratch buffer, strcmp's the copy against the original, and sums the
     strlen's. *)
  let strs =
    List.init count (fun i ->
        String.init ((i mod 29) + 1) (fun j ->
            Char.chr ((((i * 31) + (j * 7)) land 0x3f) + 0x20)))
  in
  let total_len = List.fold_left (fun a s -> a + String.length s) 0 strs in
  Rt.entry p ();
  A.la p R.s1 "table" (* array of string pointers *);
  A.li p R.s2 count;
  A.li p R.s3 0 (* length accumulator *);
  A.label p "each";
  A.lw p R.a1 R.s1 0 (* src *);
  (* strlen *)
  A.mv p R.t0 R.a1;
  A.label p "len";
  A.lbu p R.t1 R.t0 0;
  A.addi p R.t0 R.t0 1;
  A.bnez_l p R.t1 "len";
  A.addi p R.t0 R.t0 (-1);
  A.sub p R.t2 R.t0 R.a1;
  A.add p R.s3 R.s3 R.t2;
  (* strcpy into scratch *)
  A.la p R.a0 "scratch";
  A.call p "memcpy_z";
  (* strcmp copy vs original *)
  A.la p R.a0 "scratch";
  A.call p "strcmp";
  A.bnez_l p R.a0 "fail";
  A.addi p R.s1 R.s1 4;
  A.addi p R.s2 R.s2 (-1);
  A.bnez_l p R.s2 "each";
  A.li p R.t0 total_len;
  A.bne_l p R.s3 R.t0 "fail";
  Rt.exit_ p ();
  A.label p "fail";
  Rt.exit_ p ~code:1 ();
  (* memcpy_z: copy NUL-terminated a1 -> a0 (strcpy), preserves a1. *)
  A.label p "memcpy_z";
  A.mv p R.t0 R.a0;
  A.mv p R.t1 R.a1;
  A.label p "cz";
  A.lbu p R.t2 R.t1 0;
  A.sb p R.t2 R.t0 0;
  A.addi p R.t0 R.t0 1;
  A.addi p R.t1 R.t1 1;
  A.bnez_l p R.t2 "cz";
  A.ret p;
  Rt.emit_strcmp p;
  A.align p 4;
  A.label p "table";
  List.iteri (fun i _ -> A.word_l p (Printf.sprintf "str%d" i)) strs;
  List.iteri
    (fun i s ->
      A.label p (Printf.sprintf "str%d" i);
      A.asciz p s)
    strs;
  A.align p 4;
  A.label p "scratch";
  A.space p 64

let strings_image ?count () =
  let p = A.create () in
  strings ?count p;
  A.assemble p

(* --- indirect dispatch ------------------------------------------------------ *)

let dispatch_reference rounds =
  let acc = ref 0 in
  for k = 1 to rounds do
    (match k land 3 with
    | 0 -> acc := !acc + k
    | 1 -> acc := !acc lxor ((k lsl 1) land 0xffffffff)
    | 2 -> acc := !acc + (k lsl 1) + 1
    | _ -> acc := !acc - k);
    acc := !acc land 0xffffffff
  done;
  !acc

let dispatch ?(rounds = 4096) p =
  (* Branch-heavy engine stressor: a tight call/return pair (monomorphic
     [jalr] — the inline caches' best case) plus a table-driven indirect
     dispatch whose target rotates every iteration (polymorphic [jalr] —
     the sticky-demotion path). Every handler return site is monomorphic,
     so the workload exercises jalr exit-cache hits and misses and linked
     direct exits in one loop. The accumulator self-checks against a host-computed
     value. *)
  let expected = dispatch_reference rounds in
  Rt.entry p ();
  A.li p R.s1 rounds;
  A.li p R.s2 0 (* accumulator *);
  A.li p R.s3 0 (* iteration counter k *);
  A.label p "loop";
  A.call p "work";
  (* handler = table[k land 3] *)
  A.andi p R.t0 R.s3 3;
  A.slli p R.t0 R.t0 2;
  A.la p R.t1 "table";
  A.add p R.t0 R.t0 R.t1;
  A.lw p R.t1 R.t0 0;
  A.jalr p R.ra R.t1 0;
  A.addi p R.s1 R.s1 (-1);
  A.bnez_l p R.s1 "loop";
  A.li p R.t0 expected;
  A.bne_l p R.s2 R.t0 "fail";
  Rt.exit_ p ();
  A.label p "fail";
  Rt.exit_ p ~code:1 ();
  A.label p "work";
  A.addi p R.s3 R.s3 1;
  A.ret p;
  A.label p "h0";
  A.add p R.s2 R.s2 R.s3;
  A.ret p;
  A.label p "h1";
  A.slli p R.t2 R.s3 1;
  A.xor p R.s2 R.s2 R.t2;
  A.ret p;
  A.label p "h2";
  A.slli p R.t2 R.s3 1;
  A.add p R.s2 R.s2 R.t2;
  A.addi p R.s2 R.s2 1;
  A.ret p;
  A.label p "h3";
  A.sub p R.s2 R.s2 R.s3;
  A.ret p;
  A.align p 4;
  A.label p "table";
  A.word_l p "h0";
  A.word_l p "h1";
  A.word_l p "h2";
  A.word_l p "h3"

let dispatch_image ?rounds () =
  let p = A.create () in
  dispatch ?rounds p;
  A.assemble p
