(** Dhrystone-style synthetic benchmark (Table II's [dhrystone]): a loop of
    record copies, string comparisons, integer arithmetic and nested
    function calls modelled on the classic Dhrystone 2.1 mix.

    Exit code: 0 if the final checksum matches the expected value
    (computed by a host-side model of the loop), 1 otherwise. *)

val build : ?iterations:int -> Rv32_asm.Asm.t -> unit
(** [iterations] main-loop count (default 2000). *)

val image : ?iterations:int -> unit -> Rv32_asm.Image.t
