type t = int

let zero = 0
let ps x = x
let ns x = x * 1_000
let us x = x * 1_000_000
let ms x = x * 1_000_000_000
let sec x = x * 1_000_000_000_000
let add = ( + )
let to_ns t = float_of_int t /. 1e3

let pp fmt t =
  let f = float_of_int t in
  if t = 0 then Format.pp_print_string fmt "0 s"
  else if f >= 1e12 then Format.fprintf fmt "%g s" (f /. 1e12)
  else if f >= 1e9 then Format.fprintf fmt "%g ms" (f /. 1e9)
  else if f >= 1e6 then Format.fprintf fmt "%g us" (f /. 1e6)
  else if f >= 1e3 then Format.fprintf fmt "%g ns" (f /. 1e3)
  else Format.fprintf fmt "%d ps" t
