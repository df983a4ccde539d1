exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- Writer ---------------------------------------------------------- *)

type writer = Buffer.t

let writer () = Buffer.create 4096
let contents w = Buffer.contents w
let put_u8 w v = Buffer.add_uint8 w (v land 0xff)

let put_u32 w v =
  Buffer.add_uint8 w (v land 0xff);
  Buffer.add_uint8 w ((v lsr 8) land 0xff);
  Buffer.add_uint8 w ((v lsr 16) land 0xff);
  Buffer.add_uint8 w ((v lsr 24) land 0xff)

let put_i64 w v = Buffer.add_int64_le w (Int64.of_int v)
let put_bool w b = put_u8 w (if b then 1 else 0)

(* LEB128, unsigned. Graph stores are mostly small ids and deltas, so
   the one-byte common case halves them versus fixed u32s. *)
let put_varint w v =
  if v < 0 then invalid_arg "Codec.put_varint: negative value";
  let rec go v =
    if v < 0x80 then Buffer.add_uint8 w v
    else begin
      Buffer.add_uint8 w (0x80 lor (v land 0x7f));
      go (v lsr 7)
    end
  in
  go v

let put_string w s =
  put_u32 w (String.length s);
  Buffer.add_string w s

(* RLE: total length, then ops until exhausted. Op 0 = run (u32 count,
   u8 byte), op 1 = literal (u32 len, raw bytes). Runs shorter than 8
   bytes go into the surrounding literal: below that the run op's 6-byte
   overhead loses. *)
let min_run = 8

let put_bytes_rle w b =
  let n = Bytes.length b in
  put_u32 w n;
  let i = ref 0 in
  let lit_start = ref 0 in
  let flush_literal upto =
    if upto > !lit_start then begin
      put_u8 w 1;
      put_u32 w (upto - !lit_start);
      Buffer.add_subbytes w b !lit_start (upto - !lit_start)
    end
  in
  while !i < n do
    let c = Bytes.unsafe_get b !i in
    let j = ref (!i + 1) in
    (* Extend the run a word at a time, then finish the tail bytewise:
       a megabyte of zeros costs 128 Ki compares, not 1 Mi. *)
    let rep = Int64.mul (Int64.of_int (Char.code c)) 0x0101010101010101L in
    while !j + 8 <= n && (Bytes.get_int64_ne b !j : int64) = rep do
      j := !j + 8
    done;
    while !j < n && Bytes.unsafe_get b !j = c do
      incr j
    done;
    let run = !j - !i in
    if run >= min_run then begin
      flush_literal !i;
      put_u8 w 0;
      put_u32 w run;
      put_u8 w (Char.code c);
      lit_start := !j
    end;
    i := !j
  done;
  flush_literal n

let put_list w f xs =
  put_u32 w (List.length xs);
  List.iter (f w) xs

(* --- Reader ---------------------------------------------------------- *)

(* [version] is the container format version the data was written under
   (stamped by whoever decodes the container, e.g. Soc.restore); loaders
   branch on it to fill fields that older snapshots predate. Fresh readers
   start at the current version. *)
type reader = { src : string; mutable pos : int; mutable version : int }

let current_version = 2
let reader s = { src = s; pos = 0; version = current_version }
let reader_version r = r.version
let set_reader_version r v = r.version <- v

let need r n =
  if r.pos + n > String.length r.src then
    corrupt "truncated input at byte %d (want %d more)" r.pos n

let get_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.src r.pos) land 0xffffffff in
  r.pos <- r.pos + 4;
  v

let get_i64 r =
  need r 8;
  let v64 = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  let v = Int64.to_int v64 in
  if Int64.of_int v <> v64 then corrupt "64-bit value exceeds OCaml int range";
  v

let get_varint r =
  let rec go shift acc =
    if shift > 62 then corrupt "varint exceeds OCaml int range";
    let b = get_u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> corrupt "bad boolean byte 0x%02x" v

let get_string r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let get_bytes_rle_into ?(below = 256) r dst =
  let n = get_u32 r in
  if n <> Bytes.length dst then
    corrupt "RLE block is %d bytes, destination holds %d" n (Bytes.length dst);
  let check c =
    if c >= below then corrupt "RLE byte 0x%02x not below %d" c below
  in
  let off = ref 0 in
  while !off < n do
    match get_u8 r with
    | 0 ->
        let count = get_u32 r in
        let c = get_u8 r in
        if !off + count > n then corrupt "RLE run overflows block";
        check c;
        Bytes.fill dst !off count (Char.chr c);
        off := !off + count
    | 1 ->
        let len = get_u32 r in
        if !off + len > n then corrupt "RLE literal overflows block";
        need r len;
        if below < 256 then
          for k = r.pos to r.pos + len - 1 do
            check (Char.code (String.unsafe_get r.src k))
          done;
        Bytes.blit_string r.src r.pos dst !off len;
        r.pos <- r.pos + len;
        off := !off + len
    | op -> corrupt "bad RLE opcode 0x%02x" op
  done

let get_list r f =
  let n = get_u32 r in
  List.init n (fun _ -> f r)

let expect_end r =
  if r.pos <> String.length r.src then
    corrupt "trailing garbage: %d of %d bytes consumed" r.pos
      (String.length r.src)

(* --- Container ------------------------------------------------------- *)

module Container = struct
  let magic = "DIFTVPSN"

  (* Version history:
     1 — initial format (regs/tags/CSRs, peripherals, kernel).
     2 — privilege architecture: cpu section gains the current privilege
         level; plic section gains priorities, threshold, in-service and
         level-source state. Readers of a v1 snapshot fill the new fields
         with their reset defaults. *)
  let version = current_version
  let min_version = 1

  let encode_at ~version:v sections =
    if v < min_version || v > version then
      invalid_arg (Printf.sprintf "Container.encode_at: version %d" v);
    let w = writer () in
    Buffer.add_string w magic;
    put_u32 w v;
    put_list w
      (fun w (name, payload) ->
        put_string w name;
        put_string w payload)
      sections;
    contents w

  let encode sections = encode_at ~version sections

  let decode_versioned s =
    if String.length s < 8 || String.sub s 0 8 <> magic then
      corrupt "not a VP snapshot (bad magic)";
    let r = reader s in
    r.pos <- 8;
    let v = get_u32 r in
    if v < min_version || v > version then
      corrupt "unsupported snapshot version %d" v;
    let sections = get_list r (fun r ->
        let name = get_string r in
        let payload = get_string r in
        (name, payload))
    in
    expect_end r;
    (v, sections)

  let decode s = snd (decode_versioned s)
end
