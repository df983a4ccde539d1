(** Taint-metamorphic properties of the DIFT engine, beyond transparency.

    Each property runs the VP+ flavour with a purpose-built policy
    (monitor in [Record] mode, no execution clearances, so the underlying
    computation is identical across runs) and inspects the final taint
    state of the registers and the scratch buffer. Every check returns
    [None] when the property holds, else [Some] of the first difference
    found — the same shape as {!Oracle.explain}. *)

val purity : Rv32_asm.Image.t -> string option
(** Untainted-input purity ("no taint from nowhere"): with every input at
    the lattice bottom and no checks configured, no register or RAM byte
    may end tainted, the monitor must record zero violations, and zero
    declassifications. *)

type ranges = (int * int) * (int * int)
(** Two inclusive scratch-buffer ranges, A and B, as byte offsets from the
    image's [buf] symbol — offsets stay valid as a shrinking program's
    code, and with it [buf], moves. *)

val draw_ranges : Rng.t -> ranges
(** Draw A then B, each as a start offset and then an end at most 63
    bytes past it (clipped to the buffer). *)

val monotonic : ranges -> Rv32_asm.Image.t -> string option
(** Taint monotonicity: classify range A as tainted, then A plus B. The
    set of tainted outputs (registers and scratch bytes) of the A-run
    must be a subset of the A∪B-run — adding taint to an input can only
    widen tainted outputs. *)

val trap_entry_pub : Rv32_asm.Image.t -> string option
(** Trap-delivery taint isolation: with the scratch buffer classified HC,
    run the program (whose scaffold installs a trap handler and whose
    blocks may trap on tainted data) and require the trap CSRs — mepc,
    mcause, mtval, mtvec — to end at tags that flow to LC. Trap entry
    writes architectural control-plane state; were it to inherit the
    trapping instruction's data tag, a handler could launder secrets. *)

val declass_free : Oracle.result3 -> string option
(** Declassification soundness for this workload: generated programs touch
    no declassifying peripheral (the AES engine), so any [Declassified]
    event in the monitor log is taint dropped without a sanctioned source. *)
