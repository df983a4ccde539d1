type kind =
  | Output_clearance of string
  | Exec_fetch
  | Exec_branch
  | Exec_mem_addr
  | Store_integrity of string
  | Trap_steering of string
  | Custom of string

type t = {
  kind : kind;
  data_tag : Lattice.tag;
  required_tag : Lattice.tag;
  pc : int option;
  detail : string;
}

exception Violation of t

let kind_name = function
  | Output_clearance port -> "output-clearance(" ^ port ^ ")"
  | Exec_fetch -> "exec-fetch"
  | Exec_branch -> "exec-branch"
  | Exec_mem_addr -> "exec-mem-addr"
  | Store_integrity region -> "store-integrity(" ^ region ^ ")"
  | Trap_steering what -> "trap-steering(" ^ what ^ ")"
  | Custom s -> "custom(" ^ s ^ ")"

let pp lat fmt v =
  Format.fprintf fmt "security violation: %s: class %s may not flow to %s"
    (kind_name v.kind)
    (Lattice.name lat v.data_tag)
    (Lattice.name lat v.required_tag);
  (match v.pc with
  | Some pc -> Format.fprintf fmt " [pc=0x%08x]" pc
  | None -> ());
  if v.detail <> "" then Format.fprintf fmt " (%s)" v.detail

let to_string lat v = Format.asprintf "%a" (pp lat) v
