(** A textual RV32 assembler on top of the {!Asm} eDSL.

    Supported syntax (a practical GNU-as subset):
    - one optional [label:] and one instruction or directive per line;
    - comments with [#] or [//] to end of line;
    - registers by ABI name ([sp], [a0], ...) or numeric name ([x2]);
    - immediates in decimal or [0x] hexadecimal, possibly negative;
    - memory operands as [off(reg)] with an optional offset;
    - branch/jump targets as labels;
    - named CSRs ([mstatus], [mtvec], ...) or numeric CSR addresses;
    - pseudo-instructions: [nop mv not neg seqz snez li la j jr call ret
      beqz bnez bgtz blez bltz bgez];
    - directives: [.word] (value or label), [.half], [.byte], [.ascii],
      [.asciz], [.space], [.align], [.equ name, value]; [.globl], [.text],
      [.data] and [.section] are accepted and ignored. *)

exception Parse_error of { line : int; msg : string }

val parse_string : ?org:int -> string -> Image.t
(** Assemble a complete source text. Raises {!Parse_error} on syntax errors
    and the {!Asm} exceptions on label errors. *)

val parse_result : ?org:int -> string -> (Image.t, string) result
(** Like {!parse_string} but returning errors (including label and encoding
    errors) as a message. *)
