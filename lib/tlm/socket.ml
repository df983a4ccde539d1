exception Unbound of string

type transport_fn = Payload.t -> Sysc.Time.t -> Sysc.Time.t
type target = { t_name : string; fn : transport_fn }
type initiator = { i_name : string; mutable bound : target option }

let target ~name fn = { t_name = name; fn }
let target_name t = t.t_name
let initiator ~name = { i_name = name; bound = None }
let bind i t = i.bound <- Some t
let is_bound i = i.bound <> None

let transport i payload delay =
  match i.bound with
  | Some t -> t.fn payload delay
  | None -> raise (Unbound i.i_name)

let call t = t.fn
