# echo_irq.s — interrupt-driven UART echo: every received byte is echoed
# back; a NUL byte exits.
# run: dune exec bin/vp_run.exe -- examples/asm/echo_irq.s --uart-input 'hi there'
# (vp_run appends no NUL, so after the input the core waits in wfi and the
#  run ends with exit 2 once the budget's simulated time, --max-insns x 10 ns,
#  runs out; only a 0 byte exits 0 — use the test harness for a scripted run)

    .equ UART, 0x10000000
    .equ PLIC, 0x0c000000

    j start

    .align 2
handler:
    li t0, PLIC
    lw t1, 8(t0)        # claim
    li t2, UART
drain:
    lbu t3, 8(t2)       # status
    andi t3, t3, 1
    beqz t3, done
    lbu t4, 4(t2)       # rx byte
    beqz t4, quit
    sb t4, 0(t2)        # echo
    j drain
quit:
    li a7, 93
    li a0, 0
    ecall
done:
    sw t1, 8(t0)        # complete
    mret

start:
    li sp, 0x800ffff0
    la t0, handler
    csrw mtvec, t0
    li t0, PLIC
    li t1, 2            # source 1 = uart
    sw t1, 4(t0)
    li t0, UART
    li t1, 1
    sb t1, 12(t0)       # uart rx irq enable
    li t0, 0x800        # mie.MEIE
    csrrs zero, mie, t0
    li t0, 0x8
    csrrs zero, mstatus, t0
idle:
    wfi
    j idle
