(* AES-128, FIPS-197. The S-box is generated from the multiplicative
   inverse in GF(2^8) followed by the affine transform, rather than
   hardcoded, so the known-answer tests exercise the construction too. *)

let xtime b = if b land 0x80 <> 0 then ((b lsl 1) lxor 0x1b) land 0xff else b lsl 1

let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      go (xtime a) (b lsr 1) acc
  in
  go a b 0

let sbox_arr, inv_sbox =
  let s = Array.make 256 0 and si = Array.make 256 0 in
  (* Multiplicative inverses via brute force (fine at init time). *)
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gmul a b = 1 then inv.(a) <- b
    done
  done;
  for x = 0 to 255 do
    let i = inv.(x) in
    let rot v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
    let y = i lxor rot i 1 lxor rot i 2 lxor rot i 3 lxor rot i 4 lxor 0x63 in
    s.(x) <- y;
    si.(y) <- x
  done;
  (s, si)

let rcon_arr = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

type key = int array
(* 11 round keys of 16 bytes each, flat: round [r]'s byte [b] at
   [16 * r + b]. *)

let expand k =
  if String.length k <> 16 then invalid_arg "Aes128.expand: key must be 16 bytes";
  (* 44 words of 4 bytes; word [i] at [4 * i]. *)
  let w = Array.make 176 0 in
  for i = 0 to 15 do
    w.(i) <- Char.code k.[i]
  done;
  for i = 4 to 43 do
    let q = 4 * i in
    if i land 3 = 0 then begin
      (* RotWord + SubWord + Rcon of the previous word. *)
      w.(q) <- w.(q - 16) lxor sbox_arr.(w.(q - 3)) lxor rcon_arr.((i / 4) - 1);
      w.(q + 1) <- w.(q - 15) lxor sbox_arr.(w.(q - 2));
      w.(q + 2) <- w.(q - 14) lxor sbox_arr.(w.(q - 1));
      w.(q + 3) <- w.(q - 13) lxor sbox_arr.(w.(q - 4))
    end
    else
      for j = 0 to 3 do
        w.(q + j) <- w.(q - 16 + j) lxor w.(q - 4 + j)
      done
  done;
  w

let add_round_key st rk round =
  for i = 0 to 15 do
    st.(i) <- st.(i) lxor rk.((16 * round) + i)
  done

let sub_bytes st box =
  for i = 0 to 15 do
    st.(i) <- box.(st.(i))
  done

(* State is column-major: byte (r, c) at index 4*c + r. *)
let inv_shift_rows st =
  let g r c = st.((4 * c) + r) in
  let tmp = Array.copy st in
  let s r c v = tmp.((4 * c) + r) <- v in
  for r = 1 to 3 do
    for c = 0 to 3 do
      s r c (g r ((c - r + 4) mod 4))
    done
  done;
  Array.blit tmp 0 st 0 16

let inv_mix_columns st =
  for c = 0 to 3 do
    let a0 = st.(4 * c) and a1 = st.((4 * c) + 1) in
    let a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
    st.(4 * c) <- gmul a0 14 lxor gmul a1 11 lxor gmul a2 13 lxor gmul a3 9;
    st.((4 * c) + 1) <- gmul a0 9 lxor gmul a1 14 lxor gmul a2 11 lxor gmul a3 13;
    st.((4 * c) + 2) <- gmul a0 13 lxor gmul a1 9 lxor gmul a2 14 lxor gmul a3 11;
    st.((4 * c) + 3) <- gmul a0 11 lxor gmul a1 13 lxor gmul a2 9 lxor gmul a3 14
  done

let check_block what s =
  if String.length s <> 16 then
    invalid_arg (Printf.sprintf "Aes128.%s: block must be 16 bytes" what)

(* [xtime] of every byte: MixColumns below reads it instead of calling
   [gmul]. *)
let xtime_tab = Array.init 256 xtime

let encrypt_block rk pt =
  check_block "encrypt_block" pt;
  let st = Array.init 16 (fun i -> Char.code pt.[i] lxor rk.(i)) in
  let tmp = Array.make 16 0 in
  for round = 1 to 10 do
    (* SubBytes and ShiftRows in one pass: row [r] of column [c] comes
       from column [c + r]. *)
    for c = 0 to 3 do
      for r = 0 to 3 do
        tmp.((4 * c) + r) <- sbox_arr.(st.((4 * ((c + r) land 3)) + r))
      done
    done;
    let k = 16 * round in
    if round < 10 then
      (* MixColumns and AddRoundKey: 2a xor 3b = xtime (a xor b) xor b. *)
      for c = 0 to 3 do
        let i = 4 * c in
        let a0 = tmp.(i) and a1 = tmp.(i + 1) in
        let a2 = tmp.(i + 2) and a3 = tmp.(i + 3) in
        let all = a0 lxor a1 lxor a2 lxor a3 in
        st.(i) <- a0 lxor all lxor xtime_tab.(a0 lxor a1) lxor rk.(k + i);
        st.(i + 1) <- a1 lxor all lxor xtime_tab.(a1 lxor a2) lxor rk.(k + i + 1);
        st.(i + 2) <- a2 lxor all lxor xtime_tab.(a2 lxor a3) lxor rk.(k + i + 2);
        st.(i + 3) <- a3 lxor all lxor xtime_tab.(a3 lxor a0) lxor rk.(k + i + 3)
      done
    else
      for i = 0 to 15 do
        st.(i) <- tmp.(i) lxor rk.(k + i)
      done
  done;
  String.init 16 (fun i -> Char.chr st.(i))

let decrypt_block rk ct =
  check_block "decrypt_block" ct;
  let st = Array.init 16 (fun i -> Char.code ct.[i]) in
  add_round_key st rk 10;
  for round = 9 downto 1 do
    inv_shift_rows st;
    sub_bytes st inv_sbox;
    add_round_key st rk round;
    inv_mix_columns st
  done;
  inv_shift_rows st;
  sub_bytes st inv_sbox;
  add_round_key st rk 0;
  String.init 16 (fun i -> Char.chr st.(i))

let encrypt_ecb rk msg =
  if String.length msg mod 16 <> 0 then
    invalid_arg "Aes128.encrypt_ecb: message must be a multiple of 16 bytes";
  String.concat ""
    (List.init
       (String.length msg / 16)
       (fun i -> encrypt_block rk (String.sub msg (16 * i) 16)))

let sbox = sbox_arr
let rcon = rcon_arr
