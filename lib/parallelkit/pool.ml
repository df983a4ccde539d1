let default_jobs () = Domain.recommended_domain_count ()

(* One task's result: the value, or the exception it raised (with the
   backtrace captured in the worker, so the re-raise on the caller still
   points at the real failure site). *)
type 'b slot =
  | Empty
  | Done of 'b
  | Raised of exn * Printexc.raw_backtrace

let run_task f x =
  match f x with
  | v -> Done v
  | exception e -> Raised (e, Printexc.get_raw_backtrace ())

let finish results =
  (* First failure in task order wins; a deterministic campaign therefore
     reports the same error whether it ran on 1 or N domains. *)
  Array.iter
    (function
      | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
      | Empty | Done _ -> ())
    results;
  Array.map
    (function
      | Done v -> v
      | Empty | Raised _ ->
          (* Only reachable when the pool aborted early (a spawn failure
             or an [on_done] raise) — and then the exception that caused
             the abort is already in flight, never this one. *)
          assert false)
    results

let map ?on_done ~jobs f tasks =
  let n = Array.length tasks in
  if jobs <= 1 || n <= 1 then
    (* The exact sequential path: in-order evaluation on the calling
       domain, no domains spawned, no channels, no locks. *)
    Array.mapi
      (fun i x ->
        let v = f x in
        (match on_done with Some g -> g i v | None -> ());
        v)
      tasks
  else begin
    let results = Array.make n Empty in
    (* Workers claim task indices in ascending order from one shared
       counter, so a worker stuck on a long task never holds back the
       rest: the others keep claiming. *)
    let next = Atomic.make 0 in
    let completions = Chan.create () in
    let abort = Atomic.make false in
    let rec worker () =
      if not (Atomic.get abort) then
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- run_task f tasks.(i);
          Chan.send completions i;
          worker ()
        end
    in
    let domains = Array.make (min jobs n) None in
    (* If anything below raises — [Domain.spawn] mid-loop, [on_done] —
       the abort flag stops the workers at their next task boundary and
       every spawned domain is joined before the original exception
       reaches the caller: no detached domains, no lost exceptions. *)
    Fun.protect
      ~finally:(fun () ->
        Atomic.set abort true;
        Array.iter (function Some d -> Domain.join d | None -> ()) domains)
      (fun () ->
        Array.iteri
          (fun k _ -> domains.(k) <- Some (Domain.spawn worker))
          domains;
        (* Drain one completion per task on the calling domain, so
           [on_done] runs here — free to touch caller state (checkpoint
           accumulators, progress output) without synchronisation. *)
        for _ = 1 to n do
          match Chan.recv completions with
          | None -> ()
          | Some i -> (
              match (on_done, results.(i)) with
              | Some g, Done v -> g i v
              | _ -> ())
        done);
    finish results
  end

let map_list ~jobs f xs = Array.to_list (map ~jobs f (Array.of_list xs))
