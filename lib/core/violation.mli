(** Structured security-policy violations raised by the DIFT engine. *)

type kind =
  | Output_clearance of string
      (** Data reached an output interface (named) whose clearance does not
          admit its class. *)
  | Exec_fetch
      (** Instruction fetch of data whose class may not flow to the fetch
          unit's clearance (code-injection / implicit-flow protection). *)
  | Exec_branch
      (** Branch / jump / trap-vector decision depending on data above the
          branch unit's clearance (implicit information flow). *)
  | Exec_mem_addr
      (** Load/store address depending on data above the memory unit's
          clearance (address-based leaks). *)
  | Store_integrity of string
      (** Store into a protected memory region (named) with data whose class
          may not flow to the region's required class. *)
  | Trap_steering of string
      (** A write to a trap-critical CSR (named: mtvec, mepc) with data whose
          class may not flow to the trap unit's clearance — tainted data must
          not choose where a machine-mode trap handler runs. *)
  | Custom of string  (** Peripheral- or application-defined check. *)

type t = {
  kind : kind;
  data_tag : Lattice.tag;  (** Class of the offending data. *)
  required_tag : Lattice.tag;  (** Clearance that was not met. *)
  pc : int option;  (** Program counter, when raised from the CPU core. *)
  detail : string;  (** Free-form context (instruction, address, ...). *)
}

exception Violation of t

val kind_name : kind -> string

val pp : Lattice.t -> Format.formatter -> t -> unit

val to_string : Lattice.t -> t -> string
