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

(* Registers are 1, 2 or 4 bytes wide: those widths read and write their
   bytes (and their tags) in one access, other lengths byte by byte. *)
let set_all_tags p t =
  let c = Char.chr t in
  match Bytes.length p.tags with
  | 1 -> Bytes.unsafe_set p.tags 0 c
  | 2 -> Bytes.set_uint16_le p.tags 0 (Char.code c * 0x0101)
  | 4 -> Bytes.set_int32_le p.tags 0 (Int32.of_int (Char.code c * 0x01010101))
  | n -> Bytes.fill p.tags 0 n c

(* Little-endian register codec over the whole payload. *)
let value p =
  match Bytes.length p.data with
  | 1 -> Bytes.get_uint8 p.data 0
  | 2 -> Bytes.get_uint16_le p.data 0
  | 4 -> Int32.to_int (Bytes.get_int32_le p.data 0) land 0xffffffff
  | n ->
      let v = ref 0 in
      for i = n - 1 downto 0 do
        v := (!v lsl 8) lor get_byte p i
      done;
      !v

let set_value p v ~tag =
  (match Bytes.length p.data with
  | 1 -> Bytes.set_uint8 p.data 0 (v land 0xff)
  | 2 -> Bytes.set_uint16_le p.data 0 (v land 0xffff)
  | 4 -> Bytes.set_int32_le p.data 0 (Int32.of_int v)
  | n ->
      for i = 0 to n - 1 do
        set_byte p i (v lsr (8 * i))
      done);
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
