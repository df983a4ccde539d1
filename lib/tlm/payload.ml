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
let get_word p = Bytes.get_int32_le p.data 0
let set_word p v = Bytes.set_int32_le p.data 0 v

let word_tag lat p =
  let t = ref (get_tag p 0) in
  for i = 1 to 3 do
    t := Dift.Lattice.lub lat !t (get_tag p i)
  done;
  !t

let is_read p = p.cmd = Read
let ok p = p.resp = Ok_resp

let pp fmt p =
  let cmd = match p.cmd with Read -> "R" | Write -> "W" in
  let resp =
    match p.resp with
    | Ok_resp -> "ok"
    | Address_error -> "addr-err"
    | Command_error -> "cmd-err"
  in
  Format.fprintf fmt "[%s 0x%08x len=%d %s]" cmd p.addr (length p) resp
