module A = Rv32_asm.Asm
module R = Rv32.Reg

let stack_top = 0x800f_fff0

let entry p ?(stack = stack_top) () =
  A.label p "_start";
  A.li p R.sp stack

let exit_ p ?(code = 0) () = A.exit_ecall p ~code ()

let exit_a0 p =
  A.li p R.a7 93;
  A.ecall p

let fn p name body =
  A.label p name;
  A.addi p R.sp R.sp (-16);
  A.sw p R.ra R.sp 12;
  A.sw p R.s0 R.sp 8;
  body ();
  A.lw p R.ra R.sp 12;
  A.lw p R.s0 R.sp 8;
  A.addi p R.sp R.sp 16;
  A.ret p

let emit_uart_putc p =
  A.label p "uart_putc";
  A.li p R.t6 Vp.Soc.uart_base;
  A.sb p R.a0 R.t6 0;
  A.ret p

let emit_uart_puts p =
  A.label p "uart_puts";
  A.li p R.t6 Vp.Soc.uart_base;
  A.label p "uart_puts.loop";
  A.lbu p R.t5 R.a0 0;
  A.beqz_l p R.t5 "uart_puts.done";
  A.sb p R.t5 R.t6 0;
  A.addi p R.a0 R.a0 1;
  A.j p "uart_puts.loop";
  A.label p "uart_puts.done";
  A.ret p

let emit_memcpy p =
  A.label p "memcpy";
  A.mv p R.t0 R.a0;
  A.label p "memcpy.loop";
  A.beqz_l p R.a2 "memcpy.done";
  A.lbu p R.t1 R.a1 0;
  A.sb p R.t1 R.t0 0;
  A.addi p R.a1 R.a1 1;
  A.addi p R.t0 R.t0 1;
  A.addi p R.a2 R.a2 (-1);
  A.j p "memcpy.loop";
  A.label p "memcpy.done";
  A.ret p

let emit_strcmp p =
  A.label p "strcmp";
  A.label p "strcmp.loop";
  A.lbu p R.t0 R.a0 0;
  A.lbu p R.t1 R.a1 0;
  A.bne_l p R.t0 R.t1 "strcmp.diff";
  A.beqz_l p R.t0 "strcmp.eq";
  A.addi p R.a0 R.a0 1;
  A.addi p R.a1 R.a1 1;
  A.j p "strcmp.loop";
  A.label p "strcmp.eq";
  A.li p R.a0 0;
  A.ret p;
  A.label p "strcmp.diff";
  A.sub p R.a0 R.t0 R.t1;
  A.ret p

let emit_rand p ~seed =
  A.label p "rand";
  A.la p R.t0 "rand_state";
  A.lw p R.a0 R.t0 0;
  (* xorshift32 *)
  A.slli p R.t1 R.a0 13;
  A.xor p R.a0 R.a0 R.t1;
  A.srli p R.t1 R.a0 17;
  A.xor p R.a0 R.a0 R.t1;
  A.slli p R.t1 R.a0 5;
  A.xor p R.a0 R.a0 R.t1;
  A.sw p R.a0 R.t0 0;
  A.ret p;
  A.align p 4;
  A.label p "rand_state";
  A.word p seed

let setup_trap_handler p name =
  A.la p R.t6 name;
  A.csrrw p R.zero 0x305 R.t6

let enable_machine_interrupts p ~mie_bits =
  A.li p R.t6 mie_bits;
  A.csrrs p R.zero 0x304 R.t6;
  A.li p R.t6 0x8;
  A.csrrs p R.zero 0x300 R.t6
