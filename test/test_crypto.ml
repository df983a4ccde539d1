(* AES-128 and SHA-256 known-answer tests (FIPS vectors). *)

open Helpers

let hex s =
  let n = String.length s / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let to_hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
                      (List.init (String.length s) (String.get s)))

(* FIPS-197 Appendix C.1 / B. *)
let test_aes_fips_c1 () =
  let key = Crypto.Aes128.expand (hex "000102030405060708090a0b0c0d0e0f") in
  let ct = Crypto.Aes128.encrypt_block key (hex "00112233445566778899aabbccddeeff") in
  check_string "FIPS-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a" (to_hex ct)

let test_aes_fips_b () =
  let key = Crypto.Aes128.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let ct = Crypto.Aes128.encrypt_block key (hex "3243f6a8885a308d313198a2e0370734") in
  check_string "FIPS-197 B" "3925841d02dc09fbdc118597196a0b32" (to_hex ct)

(* NIST SP 800-38A ECB-AES128 vectors. *)
let test_aes_sp800_38a () =
  let key = Crypto.Aes128.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let cases =
    [ ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
      ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
      ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
      ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4") ]
  in
  List.iter
    (fun (pt, expected) ->
      check_string pt expected (to_hex (Crypto.Aes128.encrypt_block key (hex pt))))
    cases

let test_aes_decrypt_inverse () =
  let key = Crypto.Aes128.expand (hex "000102030405060708090a0b0c0d0e0f") in
  let pt = hex "00112233445566778899aabbccddeeff" in
  check_string "decrypt (encrypt pt) = pt" (to_hex pt)
    (to_hex (Crypto.Aes128.decrypt_block key (Crypto.Aes128.encrypt_block key pt)))

let prop_aes_roundtrip =
  let open QCheck in
  Test.make ~name:"AES decrypt inverts encrypt" ~count:100
    (pair (string_of_size (Gen.return 16)) (string_of_size (Gen.return 16)))
    (fun (k, pt) ->
      let key = Crypto.Aes128.expand k in
      Crypto.Aes128.decrypt_block key (Crypto.Aes128.encrypt_block key pt) = pt)

(* The straightforward AES-128 the table-driven one must agree with:
   nested round keys, ShiftRows through a copy and MixColumns by [gmul],
   GF(2^8) multiplication by shift-and-add. It shares only the S-box and
   the round constants, which the known-answer tests above pin. *)
module Naive = struct
  let xtime b = if b land 0x80 <> 0 then ((b lsl 1) lxor 0x1b) land 0xff else b lsl 1

  let gmul a b =
    let rec go a b acc =
      if b = 0 then acc
      else
        let acc = if b land 1 <> 0 then acc lxor a else acc in
        go (xtime a) (b lsr 1) acc
    in
    go a b 0

  let sbox = Crypto.Aes128.sbox

  let expand k =
    let w = Array.make_matrix 44 4 0 in
    for i = 0 to 3 do
      for j = 0 to 3 do
        w.(i).(j) <- Char.code k.[(4 * i) + j]
      done
    done;
    for i = 4 to 43 do
      let t = Array.copy w.(i - 1) in
      if i mod 4 = 0 then begin
        let t0 = t.(0) in
        t.(0) <- sbox.(t.(1)) lxor Crypto.Aes128.rcon.((i / 4) - 1);
        t.(1) <- sbox.(t.(2));
        t.(2) <- sbox.(t.(3));
        t.(3) <- sbox.(t0)
      end;
      for j = 0 to 3 do
        w.(i).(j) <- w.(i - 4).(j) lxor t.(j)
      done
    done;
    Array.init 11 (fun r -> Array.init 16 (fun b -> w.((4 * r) + (b / 4)).(b mod 4)))

  let add_round_key st rk = Array.iteri (fun i k -> st.(i) <- st.(i) lxor k) rk

  (* State is column-major: byte (r, c) at index 4*c + r. *)
  let shift_rows st =
    let tmp = Array.copy st in
    for r = 1 to 3 do
      for c = 0 to 3 do
        tmp.((4 * c) + r) <- st.((4 * ((c + r) mod 4)) + r)
      done
    done;
    Array.blit tmp 0 st 0 16

  let mix_columns st =
    for c = 0 to 3 do
      let a0 = st.(4 * c) and a1 = st.((4 * c) + 1) in
      let a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
      st.(4 * c) <- gmul a0 2 lxor gmul a1 3 lxor a2 lxor a3;
      st.((4 * c) + 1) <- a0 lxor gmul a1 2 lxor gmul a2 3 lxor a3;
      st.((4 * c) + 2) <- a0 lxor a1 lxor gmul a2 2 lxor gmul a3 3;
      st.((4 * c) + 3) <- gmul a0 3 lxor a1 lxor a2 lxor gmul a3 2
    done

  let encrypt_block rk pt =
    let st = Array.init 16 (fun i -> Char.code pt.[i]) in
    add_round_key st rk.(0);
    for round = 1 to 10 do
      Array.iteri (fun i x -> st.(i) <- sbox.(x)) st;
      shift_rows st;
      if round < 10 then mix_columns st;
      add_round_key st rk.(round)
    done;
    String.init 16 (fun i -> Char.chr st.(i))
end

let test_naive_reference_fips () =
  let key = Naive.expand (hex "000102030405060708090a0b0c0d0e0f") in
  check_string "naive FIPS-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (to_hex (Naive.encrypt_block key (hex "00112233445566778899aabbccddeeff")))

let prop_aes_matches_naive =
  let open QCheck in
  Test.make ~name:"AES matches the naive reference" ~count:2000
    (pair (string_of_size (Gen.return 16)) (string_of_size (Gen.return 16)))
    (fun (k, pt) ->
      Crypto.Aes128.encrypt_block (Crypto.Aes128.expand k) pt
      = Naive.encrypt_block (Naive.expand k) pt)

let test_aes_ecb_multiblock () =
  let key = Crypto.Aes128.expand (String.make 16 'k') in
  let msg = String.init 48 (fun i -> Char.chr (i land 0xff)) in
  let ct = Crypto.Aes128.encrypt_ecb key msg in
  check_int "length preserved" 48 (String.length ct);
  check_string "block 0 = encrypt of first block"
    (to_hex (Crypto.Aes128.encrypt_block key (String.sub msg 0 16)))
    (to_hex (String.sub ct 0 16))

let test_aes_bad_sizes () =
  check_bool "bad key size" true
    (try ignore (Crypto.Aes128.expand "short"); false
     with Invalid_argument _ -> true);
  let key = Crypto.Aes128.expand (String.make 16 'x') in
  check_bool "bad block size" true
    (try ignore (Crypto.Aes128.encrypt_block key "tiny"); false
     with Invalid_argument _ -> true)

(* FIPS 180-4 vectors. *)
let test_sha256_vectors () =
  check_string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Crypto.Sha256.hexdigest "abc");
  check_string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Crypto.Sha256.hexdigest "");
  check_string "two-block message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Crypto.Sha256.hexdigest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_string "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Crypto.Sha256.hexdigest (String.make 1_000_000 'a'))

let test_sha256_padding_boundaries () =
  (* Lengths around the 55/56/64-byte padding boundaries must not crash
     and must be distinct. *)
  let digests =
    List.map (fun n -> Crypto.Sha256.hexdigest (String.make n 'x')) [ 54; 55; 56; 57; 63; 64; 65 ]
  in
  let uniq = List.sort_uniq compare digests in
  check_int "all distinct" (List.length digests) (List.length uniq)

let () =
  Alcotest.run "crypto"
    [
      ( "aes128",
        [
          Alcotest.test_case "FIPS-197 C.1" `Quick test_aes_fips_c1;
          Alcotest.test_case "FIPS-197 B" `Quick test_aes_fips_b;
          Alcotest.test_case "SP800-38A ECB" `Quick test_aes_sp800_38a;
          Alcotest.test_case "decrypt inverse" `Quick test_aes_decrypt_inverse;
          Alcotest.test_case "multi-block ECB" `Quick test_aes_ecb_multiblock;
          Alcotest.test_case "size validation" `Quick test_aes_bad_sizes;
          Alcotest.test_case "naive reference FIPS-197" `Quick
            test_naive_reference_fips;
          qtest prop_aes_roundtrip;
          qtest prop_aes_matches_naive;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS 180-4 vectors" `Slow test_sha256_vectors;
          Alcotest.test_case "padding boundaries" `Quick
            test_sha256_padding_boundaries;
        ] );
    ]
