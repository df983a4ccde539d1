type t = {
  slots : Event.t array;
  mutable next : int;  (* index of the slot the next event will use *)
  mutable total : int;  (* events ever recorded (monotonic) *)
}

let create n =
  if n <= 0 then invalid_arg "Ring.create: size must be positive";
  { slots = Array.init n (fun _ -> Event.make ()); next = 0; total = 0 }

let capacity t = Array.length t.slots
let total t = t.total
let length t = min t.total (Array.length t.slots)

let emit t =
  let slot = t.slots.(t.next) in
  let next = t.next + 1 in
  t.next <- (if next = Array.length t.slots then 0 else next);
  t.total <- t.total + 1;
  slot

let iter t f =
  let cap = Array.length t.slots in
  let n = length t in
  (* Oldest retained event sits [n] slots behind the write cursor. *)
  let start = (t.next - n + cap * 2) mod cap in
  for i = 0 to n - 1 do
    f t.slots.((start + i) mod cap)
  done

let last t n =
  let acc = ref [] in
  iter t (fun e -> acc := Event.copy e :: !acc);
  let all = List.rev !acc in
  let len = List.length all in
  if len <= n then all else List.filteri (fun i _ -> i >= len - n) all

let clear t =
  t.next <- 0;
  t.total <- 0
