type stats = {
  evals : int;
  from_blocks : int;
  from_insns : int;
  to_blocks : int;
  to_insns : int;
}

exception Budget

let with_body block body =
  match block with
  | Prog.Straight _ -> Prog.Straight body
  | Prog.Guard g -> Prog.Guard { g with body }
  | Prog.Loop l -> Prog.Loop { l with body }
  | Prog.Call c -> Prog.Call { c with body }
  | Prog.Mret -> Prog.Mret

(* Delete [len] elements at [at]. *)
let delete_range l ~at ~len =
  List.filteri (fun i _ -> i < at || i >= at + len) l

let rec set_nth l i x =
  match l with
  | [] -> []
  | hd :: tl -> if i = 0 then x :: tl else hd :: set_nth tl (i - 1) x

(* Predicate evaluations one minimisation may spend. *)
let max_evals = 2000

let minimize pred prog =
  let evals = ref 0 in
  let check p =
    if !evals >= max_evals then raise Budget;
    incr evals;
    pred p
  in
  let current = ref prog in
  (* Block-level ddmin: try deleting chunks, halving the chunk size. *)
  let block_pass () =
    let changed = ref false in
    let chunk = ref (max 1 (List.length !current / 2)) in
    while !chunk >= 1 do
      let progress = ref true in
      while !progress do
        progress := false;
        let n = List.length !current in
        let at = ref 0 in
        while !at + !chunk <= n && not !progress do
          let candidate = delete_range !current ~at:!at ~len:!chunk in
          if candidate <> [] && check candidate then begin
            current := candidate;
            changed := true;
            progress := true
          end
          else at := !at + !chunk
        done
      done;
      chunk := !chunk / 2
    done;
    !changed
  in
  (* Structural pass: collapse guards/loops/calls to their bodies. *)
  let structure_pass () =
    let changed = ref false in
    List.iteri
      (fun i b ->
        match b with
        | Prog.Straight _ -> ()
        | _ ->
            let candidate = set_nth !current i (Prog.Straight (Prog.body_of b)) in
            if check candidate then begin
              current := candidate;
              changed := true
            end)
      !current;
    !changed
  in
  (* Instruction-level pass: drop single body instructions. *)
  let insn_pass () =
    let changed = ref false in
    let blocks = Array.of_list !current in
    Array.iteri
      (fun i b ->
        let body = ref (Prog.body_of b) in
        let j = ref 0 in
        while !j < List.length !body do
          let candidate_body = delete_range !body ~at:!j ~len:1 in
          let candidate =
            set_nth !current i (with_body b candidate_body)
          in
          if check candidate then begin
            body := candidate_body;
            current := candidate;
            changed := true
          end
          else incr j
        done)
      blocks;
    !changed
  in
  (try
     let continue_ = ref true in
     while !continue_ do
       let c1 = block_pass () in
       let c2 = structure_pass () in
       let c3 = insn_pass () in
       continue_ := c1 || c2 || c3
     done
   with Budget -> ());
  ( !current,
    {
      evals = !evals;
      from_blocks = Prog.block_count prog;
      from_insns = Prog.insn_count prog;
      to_blocks = Prog.block_count !current;
      to_insns = Prog.insn_count !current;
    } )
