open Tep_bignum

type public_key = { n : Nat.t; e : Nat.t; mont : Zmod.Montgomery.ctx option }

type private_key = {
  pn : Nat.t;
  pe : Nat.t;
  d : Nat.t;
  p : Nat.t;
  q : Nat.t;
  dp : Nat.t; (* d mod p-1 *)
  dq : Nat.t; (* d mod q-1 *)
  qinv : Nat.t; (* q^{-1} mod p *)
  mont_p : Zmod.Montgomery.ctx;
  mont_q : Zmod.Montgomery.ctx;
  mont_n : Zmod.Montgomery.ctx; (* raw_sign's fault check, and the public key *)
}

type keypair = { public : public_key; private_ : private_key }

let default_bits = 1024

let public_of_private k = { n = k.pn; e = k.pe; mont = Some k.mont_n }

(* Montgomery form needs an odd modulus above 1; any other modulus a
   parsed key may carry verifies by division-based reduction. *)
let make_public n e =
  let odd = Nat.compare n Nat.one > 0 && not (Nat.is_even n) in
  { n; e; mont = (if odd then Some (Zmod.Montgomery.create n) else None) }

let key_bytes pk = (Nat.num_bits pk.n + 7) / 8

let make_private ~n ~e ~d ~p ~q =
  (* a factor of 1 would make the CRT exponent a remainder mod 0 *)
  if Nat.compare p Nat.one <= 0 || Nat.compare q Nat.one <= 0 then
    invalid_arg "Rsa.make_private: p, q must exceed 1";
  let dp = Nat.rem d (Nat.sub p Nat.one) in
  let dq = Nat.rem d (Nat.sub q Nat.one) in
  let qinv =
    match Zmod.modinv q p with
    | Some x -> x
    | None -> invalid_arg "Rsa.make_private: p, q not coprime"
  in
  {
    pn = n;
    pe = e;
    d;
    p;
    q;
    dp;
    dq;
    qinv;
    mont_p = Zmod.Montgomery.create p;
    mont_q = Zmod.Montgomery.create q;
    mont_n = Zmod.Montgomery.create n;
  }

let generate ?(bits = default_bits) ?(e = 65537) drbg =
  if bits < 128 then invalid_arg "Rsa.generate: modulus too small";
  if e land 1 = 0 || e < 3 then invalid_arg "Rsa.generate: bad public exponent";
  let e_nat = Nat.of_int e in
  let src = Drbg.byte_source drbg in
  let half = bits / 2 in
  let rec gen_prime () =
    let p = Prime.generate src ~bits:half in
    (* e must be invertible mod p-1. *)
    if Nat.is_one (Zmod.gcd e_nat (Nat.sub p Nat.one)) then p else gen_prime ()
  in
  let rec attempt () =
    let p = gen_prime () in
    let q = gen_prime () in
    if Nat.equal p q then attempt ()
    else begin
      let n = Nat.mul p q in
      if Nat.num_bits n <> bits then attempt ()
      else begin
        let phi = Nat.mul (Nat.sub p Nat.one) (Nat.sub q Nat.one) in
        match Zmod.modinv e_nat phi with
        | None -> attempt ()
        | Some d ->
            let p, q = if Nat.compare p q > 0 then (p, q) else (q, p) in
            let priv = make_private ~n ~e:e_nat ~d ~p ~q in
            { public = public_of_private priv; private_ = priv }
      end
    end
  in
  attempt ()

(* CRT exponentiation: m^d mod n from residues mod p and q, checked
   against the public exponent before it is returned. *)
let raw_sign key m =
  let m = Nat.rem m key.pn in
  let m1 = Zmod.Montgomery.pow key.mont_p m key.dp in
  let m2 = Zmod.Montgomery.pow key.mont_q m key.dq in
  (* h = qinv * (m1 - m2) mod p *)
  let diff =
    if Nat.compare m1 m2 >= 0 then Nat.sub m1 m2
    else Nat.sub key.p (Nat.rem (Nat.sub m2 m1) key.p)
  in
  let h = Nat.rem (Nat.mul key.qinv diff) key.p in
  let s = Nat.add m2 (Nat.mul h key.q) in
  (* A wrong half (a damaged dp or dq, or a fault in either
     exponentiation) would make s right mod one prime and wrong mod the
     other, and gcd(s^e - m, n) would then give anyone holding s that
     prime (Boneh, DeMillo & Lipton).  So s never leaves unchecked. *)
  if not (Nat.equal (Zmod.Montgomery.pow key.mont_n s key.pe) m) then
    failwith "Rsa.raw_sign: fault check failed (s^e <> m mod n)";
  s

let raw_public pk m =
  match pk.mont with
  | Some ctx -> Zmod.Montgomery.pow ctx m pk.e
  | None -> Zmod.modpow m pk.e pk.n

(* DER DigestInfo prefixes (RFC 3447 §9.2 notes). *)
let digestinfo_prefix = function
  | Digest_algo.MD5 ->
      "\x30\x20\x30\x0c\x06\x08\x2a\x86\x48\x86\xf7\x0d\x02\x05\x05\x00\x04\x10"
  | Digest_algo.SHA1 -> "\x30\x21\x30\x09\x06\x05\x2b\x0e\x03\x02\x1a\x05\x00\x04\x14"
  | Digest_algo.SHA256 ->
      "\x30\x31\x30\x0d\x06\x09\x60\x86\x48\x01\x65\x03\x04\x02\x01\x05\x00\x04\x20"

let emsa_pkcs1_v1_5 algo len msg =
  let t = digestinfo_prefix algo ^ Digest_algo.digest algo msg in
  let tlen = String.length t in
  if len < tlen + 11 then invalid_arg "Rsa.emsa_pkcs1_v1_5: key too small";
  (* 0x00 0x01 FF..FF 0x00 T *)
  "\x00\x01" ^ String.make (len - tlen - 3) '\xff' ^ "\x00" ^ t

let sign ?(algo = Digest_algo.SHA1) key msg =
  let len = (Nat.num_bits key.pn + 7) / 8 in
  let em = emsa_pkcs1_v1_5 algo len msg in
  let m = Nat.of_bytes_be em in
  let s = raw_sign key m in
  Nat.to_bytes_be_padded len s

let verify ?(algo = Digest_algo.SHA1) pk ~msg ~signature =
  let len = key_bytes pk in
  if String.length signature <> len then false
  else begin
    let s = Nat.of_bytes_be signature in
    if Nat.compare s pk.n >= 0 then false
    else begin
      let m = raw_public pk s in
      let em = Nat.to_bytes_be_padded len m in
      match emsa_pkcs1_v1_5 algo len msg with
      | expected -> Hmac.equal_constant_time em expected
      | exception Invalid_argument _ -> false
    end
  end

(* RSAES-PKCS1-v1_5 (RFC 3447 §7.2): EM = 00 02 PS 00 M with PS at
   least eight nonzero random bytes.  Used by the wire handshake to
   transport a session-key share; there the ciphertext is covered by
   the client's transcript signature, which the server verifies
   *before* decrypting, so decryption never runs on attacker-chosen
   ciphertexts (no Bleichenbacher padding oracle). *)
let encrypt drbg pk msg =
  let len = key_bytes pk in
  let mlen = String.length msg in
  if mlen > len - 11 then invalid_arg "Rsa.encrypt: message too long for key";
  let ps = Bytes.of_string (Drbg.generate drbg (len - mlen - 3)) in
  for i = 0 to Bytes.length ps - 1 do
    while Bytes.get ps i = '\x00' do
      Bytes.set ps i (Drbg.generate drbg 1).[0]
    done
  done;
  let em = "\x00\x02" ^ Bytes.unsafe_to_string ps ^ "\x00" ^ msg in
  Nat.to_bytes_be_padded len (raw_public pk (Nat.of_bytes_be em))

let decrypt key c =
  let len = (Nat.num_bits key.pn + 7) / 8 in
  if String.length c <> len then None
  else begin
    let cn = Nat.of_bytes_be c in
    if Nat.compare cn key.pn >= 0 then None
    else begin
      let em = Nat.to_bytes_be_padded len (raw_sign key cn) in
      if len < 11 || em.[0] <> '\x00' || em.[1] <> '\x02' then None
      else
        (* the 00 separator must leave >= 8 bytes of PS before it *)
        match String.index_from_opt em 2 '\x00' with
        | Some z when z >= 10 -> Some (String.sub em (z + 1) (len - z - 1))
        | _ -> None
    end
  end

let public_to_string pk =
  Printf.sprintf "rsa-pub:%s:%s" (Nat.to_hex pk.n) (Nat.to_hex pk.e)

let public_of_string s =
  match String.split_on_char ':' s with
  | [ "rsa-pub"; n; e ] -> (
      try Some (make_public (Nat.of_hex n) (Nat.of_hex e))
      with Invalid_argument _ -> None)
  | _ -> None

let private_to_string k =
  Printf.sprintf "rsa-priv:%s:%s:%s:%s:%s" (Nat.to_hex k.pn) (Nat.to_hex k.pe)
    (Nat.to_hex k.d) (Nat.to_hex k.p) (Nat.to_hex k.q)

let private_of_string s =
  match String.split_on_char ':' s with
  | [ "rsa-priv"; n; e; d; p; q ] -> (
      try
        Some
          (make_private ~n:(Nat.of_hex n) ~e:(Nat.of_hex e) ~d:(Nat.of_hex d)
             ~p:(Nat.of_hex p) ~q:(Nat.of_hex q))
      with Invalid_argument _ -> None)
  | _ -> None

let fingerprint pk =
  String.sub (Digest_algo.hex Digest_algo.SHA256 (public_to_string pk)) 0 16
