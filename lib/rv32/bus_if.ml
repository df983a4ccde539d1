exception Bus_error of { addr : int; write : bool }

type dmi = { base : int; limit : int; data : Bytes.t; tags : Bytes.t }

type t = {
  socket : Tlm.Socket.initiator;
  lat : Dift.Lattice.t;
  (* The lattice's flat LUB table ([x * ntags + y]), which the DMI tag
     fold reads without a call. *)
  lub_tab : int array;
  ntags : int;
  default_tag : int;
  tracking : bool;
  mutable dmi : dmi option;
  p1 : Tlm.Payload.t;
  p2 : Tlm.Payload.t;
  p4 : Tlm.Payload.t;
  mutable last_tag : int;
  mutable acc_delay : Sysc.Time.t;
  (* Invoked with (addr, width) after every DMI store so the core can
     invalidate decoded basic blocks covering the written bytes. MMIO
     stores never hit cached code (blocks only exist over the DMI region),
     so the TLM path does not fire it. *)
  mutable on_code_write : int -> int -> unit;
  mutable on_merge : (int -> int -> int -> unit) option;
}

let create ~lattice ~default_tag ~tracking ~name =
  let payload len =
    Tlm.Payload.create ~len ~default_tag ()
  in
  {
    socket = Tlm.Socket.initiator ~name;
    lat = lattice;
    lub_tab = Dift.Lattice.lub_flat lattice;
    ntags = Dift.Lattice.size lattice;
    default_tag;
    tracking;
    dmi = None;
    p1 = payload 1;
    p2 = payload 2;
    p4 = payload 4;
    last_tag = default_tag;
    acc_delay = Sysc.Time.zero;
    on_code_write = (fun _ _ -> ());
    on_merge = None;
  }

let socket b = b.socket
let tracking b = b.tracking

let set_dmi b ~base ~data ~tags =
  if Bytes.length data <> Bytes.length tags then
    invalid_arg "Bus_if.set_dmi: data/tags length mismatch";
  b.dmi <- Some { base; limit = base + Bytes.length data - 1; data; tags }

let dmi_range b =
  match b.dmi with Some d -> Some (d.base, d.limit) | None -> None
let last_tag b = b.last_tag
let set_code_write_hook b f = b.on_code_write <- f
let set_merge_hook b f = b.on_merge <- f

let take_delay b =
  let d = b.acc_delay in
  b.acc_delay <- Sysc.Time.zero;
  d

let payload_for b = function
  | 1 -> b.p1
  | 2 -> b.p2
  | 4 -> b.p4
  | w -> invalid_arg (Printf.sprintf "Bus_if: unsupported access width %d" w)

let mmio_load b ~width ~addr =
  let p = payload_for b width in
  Tlm.Payload.rearm p Tlm.Payload.Read addr;
  Tlm.Payload.set_all_tags p b.default_tag;
  let delay = Tlm.Socket.transport b.socket p Sysc.Time.zero in
  if not (Tlm.Payload.ok p) then raise (Bus_error { addr; write = false });
  b.acc_delay <- Sysc.Time.add b.acc_delay delay;
  (match b.on_merge with
  | None ->
      (* Equal bytes are their own join: a register's bytes usually share
         one tag, and then the fold makes no call. *)
      let tags = p.Tlm.Payload.tags in
      let t = ref (Char.code (Bytes.unsafe_get tags 0)) in
      for i = 1 to width - 1 do
        let x = Char.code (Bytes.unsafe_get tags i) in
        if x <> !t then t := Dift.Lattice.lub b.lat !t x
      done;
      b.last_tag <- !t
  | Some f ->
      let t = ref (Tlm.Payload.get_tag p 0) in
      for i = 1 to width - 1 do
        let x = Tlm.Payload.get_tag p i in
        let r = Dift.Lattice.lub b.lat !t x in
        f !t x r;
        t := r
      done;
      b.last_tag <- !t);
  Tlm.Payload.value p

let mmio_store b ~width ~addr ~value ~tag =
  let p = payload_for b width in
  Tlm.Payload.rearm p Tlm.Payload.Write addr;
  Tlm.Payload.set_value p value ~tag;
  let delay = Tlm.Socket.transport b.socket p Sysc.Time.zero in
  if not (Tlm.Payload.ok p) then raise (Bus_error { addr; write = true });
  b.acc_delay <- Sysc.Time.add b.acc_delay delay

let load b ~width ~addr =
  match b.dmi with
  | Some d when addr >= d.base && addr + width - 1 <= d.limit ->
      let off = addr - d.base in
      if b.tracking then begin
        let t = ref (Char.code (Bytes.unsafe_get d.tags off)) in
        (* The merge hook is matched outside the byte loop so the common
           (no-tracer) configuration reads the shadow a word at a time. *)
        (match b.on_merge with
        | None ->
            (* Four equal tag bytes are their own join: one compare. Any
               other fold reads the table, skipping the equal bytes. *)
            if
              width <> 4
              || Int32.to_int (Bytes.get_int32_le d.tags off) land 0xffffffff
                 <> !t * 0x01010101
            then
              for i = 1 to width - 1 do
                let x = Char.code (Bytes.unsafe_get d.tags (off + i)) in
                if x <> !t then t := b.lub_tab.((!t * b.ntags) + x)
              done
        | Some f ->
            for i = 1 to width - 1 do
              let x = Char.code (Bytes.unsafe_get d.tags (off + i)) in
              let r = Dift.Lattice.lub b.lat !t x in
              f !t x r;
              t := r
            done);
        b.last_tag <- !t
      end;
      (match width with
      | 1 -> Bytes.get_uint8 d.data off
      | 2 -> Bytes.get_uint16_le d.data off
      | 4 -> Int32.to_int (Bytes.get_int32_le d.data off) land 0xffffffff
      | w -> invalid_arg (Printf.sprintf "Bus_if: unsupported access width %d" w))
  | Some _ | None ->
      b.last_tag <- b.default_tag;
      mmio_load b ~width ~addr

let store b ~width ~addr ~value ~tag =
  match b.dmi with
  | Some d when addr >= d.base && addr + width - 1 <= d.limit ->
      let off = addr - d.base in
      (match width with
      | 1 -> Bytes.set_uint8 d.data off (value land 0xff)
      | 2 -> Bytes.set_uint16_le d.data off (value land 0xffff)
      | 4 -> Bytes.set_int32_le d.data off (Int32.of_int value)
      | w -> invalid_arg (Printf.sprintf "Bus_if: unsupported access width %d" w));
      if b.tracking then begin
        (* [Char.chr] refuses a tag above 255 as the byte shadow must. *)
        let c = Char.chr tag in
        match width with
        | 4 ->
            Bytes.set_int32_le d.tags off
              (Int32.of_int (Char.code c * 0x01010101))
        | _ ->
            for i = 0 to width - 1 do
              Bytes.unsafe_set d.tags (off + i) c
            done
      end;
      b.on_code_write addr width
  | Some _ | None -> mmio_store b ~width ~addr ~value ~tag
