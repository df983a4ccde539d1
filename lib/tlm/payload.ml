type command = Read | Write
type response = Ok_resp | Address_error | Command_error

type t = {
  mutable cmd : command;
  mutable addr : int;
  data : Bytes.t;
  tags : Bytes.t;
  mutable resp : response;
}

let create ?(cmd = Read) ?(addr = 0) ~len ~default_tag () =
  {
    cmd;
    addr;
    data = Bytes.make len '\000';
    tags = Bytes.make len (Char.chr default_tag);
    resp = Ok_resp;
  }

let length p = Bytes.length p.data
let get_byte p i = Char.code (Bytes.get p.data i)
let set_byte p i v = Bytes.set p.data i (Char.chr (v land 0xff))
let get_tag p i = Char.code (Bytes.get p.tags i)
let set_tag p i t = Bytes.set p.tags i (Char.chr t)
let set_all_tags p t = Bytes.fill p.tags 0 (Bytes.length p.tags) (Char.chr t)

(* Little-endian register codec over the whole payload. *)
let value p =
  let v = ref 0 in
  for i = length p - 1 downto 0 do
    v := (!v lsl 8) lor get_byte p i
  done;
  !v

let set_value p v ~tag =
  for i = 0 to length p - 1 do
    set_byte p i (v lsr (8 * i))
  done;
  set_all_tags p tag

let lub_tag lat p =
  let t = ref (get_tag p 0) in
  for i = 1 to length p - 1 do
    t := Dift.Lattice.lub lat !t (get_tag p i)
  done;
  !t

let rearm p cmd addr =
  p.cmd <- cmd;
  p.addr <- addr;
  p.resp <- Ok_resp

let ok p = p.resp = Ok_resp
