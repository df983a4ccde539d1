type t = {
  name : string;
  data : Bytes.t;
  tags : Bytes.t;
  latency : Sysc.Time.t;
  (* Fired with (offset, len) after any mutation of data or tags that does
     not go through the CPU's DMI path: TLM writes (DMA, peripherals), the
     loader, and the direct write_*/fill_tags accessors. The SoC routes it
     to the core's basic-block invalidation. *)
  mutable on_write : int -> int -> unit;
}

(* Set glibc's mmap and trim thresholds so that the RAM buffers of
   platforms that died are reused in place instead of faulting back in
   (see the stub). Once, as this module initialises. *)
external keep_heap_resident : unit -> unit = "vp_keep_heap_resident"
[@@noalloc]

let () = keep_heap_resident ()

let create env ~name ~size =
  {
    name;
    data = Bytes.make size '\000';
    tags = Bytes.make size (Char.chr env.Env.pub);
    latency = Sysc.Time.ns 5;
    on_write = (fun _ _ -> ());
  }

let size m = Bytes.length m.data
let data m = m.data
let tags m = m.tags
let set_write_hook m f = m.on_write <- f
let read_byte m off = Bytes.get_uint8 m.data off

let write_byte m off v =
  Bytes.set_uint8 m.data off (v land 0xff);
  m.on_write off 1

let read_tag m off = Char.code (Bytes.get m.tags off)

let write_tag m off t =
  Bytes.set m.tags off (Char.chr t);
  m.on_write off 1

let read_word m off = Int32.to_int (Bytes.get_int32_le m.data off) land 0xffffffff

let write_word m off v =
  Bytes.set_int32_le m.data off (Int32.of_int v);
  m.on_write off 4

let fill_tags m ~off ~len t =
  Bytes.fill m.tags off len (Char.chr t);
  if len > 0 then m.on_write off len

let load m ~off src =
  let len = Bytes.length src in
  Bytes.blit src 0 m.data off len;
  if len > 0 then m.on_write off len

let tainted_regions m ~baseline =
  let n = size m in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let t = read_tag m !i in
    if t <> baseline then begin
      let start = !i in
      while !i < n && read_tag m !i = t do
        incr i
      done;
      out := (start, !i - 1, t) :: !out
    end
    else incr i
  done;
  List.rev !out

let transport m (p : Tlm.Payload.t) delay =
  let len = Tlm.Payload.length p in
  let off = p.Tlm.Payload.addr in
  if off < 0 || off + len > size m then begin
    p.Tlm.Payload.resp <- Tlm.Payload.Address_error;
    delay
  end
  else begin
    (match p.Tlm.Payload.cmd with
    | Tlm.Payload.Read ->
        Bytes.blit m.data off p.Tlm.Payload.data 0 len;
        Bytes.blit m.tags off p.Tlm.Payload.tags 0 len
    | Tlm.Payload.Write ->
        Bytes.blit p.Tlm.Payload.data 0 m.data off len;
        Bytes.blit p.Tlm.Payload.tags 0 m.tags off len;
        if len > 0 then m.on_write off len);
    p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
    Sysc.Time.add delay m.latency
  end

let socket m = Tlm.Socket.target ~name:m.name (transport m)

let save m w =
  Snapshot.Codec.put_bytes_rle w m.data;
  Snapshot.Codec.put_bytes_rle w m.tags

(* [load] is taken by the image loader above. *)
let restore m r =
  Snapshot.Codec.get_bytes_rle_into r m.data;
  Snapshot.Codec.get_bytes_rle_into r m.tags;
  (* Everything may have changed: let the write hook (basic-block cache
     invalidation) see the full range. *)
  if size m > 0 then m.on_write 0 (size m)
