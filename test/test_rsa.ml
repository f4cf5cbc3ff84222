(* RSA key generation, PKCS#1 v1.5 signatures, serialisation. *)
open Tep_bignum
open Tep_crypto

let drbg = Drbg.create ~seed:"test-rsa"

(* One shared 1024-bit keypair (generation is the slow part). *)
let kp = Rsa.generate drbg
let kp512 = Rsa.generate ~bits:512 drbg

let test_key_shape () =
  Alcotest.(check int) "1024-bit modulus" 1024 (Nat.num_bits kp.Rsa.public.Rsa.n);
  Alcotest.(check int) "128-byte signatures" 128 (Rsa.key_bytes kp.Rsa.public);
  Alcotest.(check int) "512-bit modulus" 512 (Nat.num_bits kp512.Rsa.public.Rsa.n);
  Alcotest.(check string)
    "e = 65537" "10001"
    (Nat.to_hex kp.Rsa.public.Rsa.e)

let test_sign_verify () =
  List.iter
    (fun msg ->
      let s = Rsa.sign kp.Rsa.private_ msg in
      Alcotest.(check int) "sig length" 128 (String.length s);
      Alcotest.(check bool)
        "verifies" true
        (Rsa.verify kp.Rsa.public ~msg ~signature:s))
    [ ""; "x"; "hello provenance"; String.make 10_000 'q' ]

let test_wrong_message () =
  let s = Rsa.sign kp.Rsa.private_ "message one" in
  Alcotest.(check bool)
    "other message fails" false
    (Rsa.verify kp.Rsa.public ~msg:"message two" ~signature:s)

let test_corrupted_signature () =
  let s = Rsa.sign kp.Rsa.private_ "msg" in
  for pos = 0 to 127 do
    let bad = Bytes.of_string s in
    Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor 0x40));
    if pos mod 17 = 0 then
      Alcotest.(check bool)
        (Printf.sprintf "flip byte %d" pos)
        false
        (Rsa.verify kp.Rsa.public ~msg:"msg" ~signature:(Bytes.to_string bad))
  done

let test_wrong_key () =
  let s = Rsa.sign kp.Rsa.private_ "msg" in
  Alcotest.(check bool)
    "other key fails" false
    (Rsa.verify kp512.Rsa.public ~msg:"msg" ~signature:s)

let test_wrong_length_signature () =
  Alcotest.(check bool)
    "short sig" false
    (Rsa.verify kp.Rsa.public ~msg:"m" ~signature:"short");
  Alcotest.(check bool)
    "sig >= n rejected" false
    (Rsa.verify kp.Rsa.public ~msg:"m"
       ~signature:(Nat.to_bytes_be_padded 128 kp.Rsa.public.Rsa.n))

let test_algo_choice () =
  let s256 = Rsa.sign ~algo:Digest_algo.SHA256 kp.Rsa.private_ "m" in
  Alcotest.(check bool)
    "sha256 verifies with sha256" true
    (Rsa.verify ~algo:Digest_algo.SHA256 kp.Rsa.public ~msg:"m" ~signature:s256);
  Alcotest.(check bool)
    "sha256 fails as sha1" false
    (Rsa.verify ~algo:Digest_algo.SHA1 kp.Rsa.public ~msg:"m" ~signature:s256)

let test_raw_roundtrip () =
  (* raw_public (raw_sign m) = m for m < n: the CRT path agrees with
     the plain exponentiation. *)
  let src = Drbg.byte_source drbg in
  for _ = 1 to 5 do
    let m = Nat.rem (Prime.random_bits src 1000) kp.Rsa.public.Rsa.n in
    let s = Rsa.raw_sign kp.Rsa.private_ m in
    Alcotest.(check string)
      "roundtrip" (Nat.to_hex m)
      (Nat.to_hex (Rsa.raw_public kp.Rsa.public s))
  done

let test_emsa_shape () =
  let em = Rsa.emsa_pkcs1_v1_5 Digest_algo.SHA1 128 "msg" in
  Alcotest.(check int) "length" 128 (String.length em);
  Alcotest.(check char) "leading 00" '\x00' em.[0];
  Alcotest.(check char) "block type 01" '\x01' em.[1];
  Alcotest.(check char) "ff padding" '\xff' em.[2];
  Alcotest.check_raises "too small"
    (Invalid_argument "Rsa.emsa_pkcs1_v1_5: key too small") (fun () ->
      ignore (Rsa.emsa_pkcs1_v1_5 Digest_algo.SHA256 32 "m"))

let test_serialisation () =
  (match Rsa.public_of_string (Rsa.public_to_string kp.Rsa.public) with
  | Some pk ->
      Alcotest.(check string)
        "public roundtrip"
        (Rsa.public_to_string kp.Rsa.public)
        (Rsa.public_to_string pk)
  | None -> Alcotest.fail "public roundtrip");
  (match Rsa.private_of_string (Rsa.private_to_string kp.Rsa.private_) with
  | Some sk ->
      let s = Rsa.sign sk "roundtrip" in
      Alcotest.(check bool)
        "private roundtrip signs" true
        (Rsa.verify kp.Rsa.public ~msg:"roundtrip" ~signature:s)
  | None -> Alcotest.fail "private roundtrip");
  Alcotest.(check bool) "garbage public" true (Rsa.public_of_string "junk" = None);
  Alcotest.(check bool) "garbage private" true (Rsa.private_of_string "junk" = None)

(* A key whose d was damaged on disk still loads, but its CRT halves
   are wrong: sign and decrypt must raise rather than hand out a value
   whose gcd with n factors the key. *)
let test_fault_check () =
  let fields = String.split_on_char ':' (Rsa.private_to_string kp.Rsa.private_) in
  let tampered =
    List.mapi
      (fun i f -> if i = 3 then Nat.to_hex (Nat.add (Nat.of_hex f) Nat.two) else f)
      fields
  in
  match Rsa.private_of_string (String.concat ":" tampered) with
  | None -> Alcotest.fail "a tampered d still parses"
  | Some sk ->
      let raises name f =
        match f () with
        | _ -> Alcotest.failf "%s returned a value" name
        | exception Failure _ -> ()
      in
      raises "sign" (fun () -> ignore (Rsa.sign sk "m"));
      raises "decrypt" (fun () ->
          ignore (Rsa.decrypt sk (Rsa.encrypt drbg kp.Rsa.public "m")))

let test_fingerprint () =
  Alcotest.(check int) "16 hex chars" 16 (String.length (Rsa.fingerprint kp.Rsa.public));
  Alcotest.(check bool)
    "distinct keys, distinct fingerprints" false
    (String.equal (Rsa.fingerprint kp.Rsa.public) (Rsa.fingerprint kp512.Rsa.public))

let test_determinism () =
  (* Same DRBG seed -> same keypair (reproducible experiments). *)
  let k1 = Rsa.generate ~bits:512 (Drbg.create ~seed:"fixed") in
  let k2 = Rsa.generate ~bits:512 (Drbg.create ~seed:"fixed") in
  Alcotest.(check string)
    "same key"
    (Rsa.public_to_string k1.Rsa.public)
    (Rsa.public_to_string k2.Rsa.public)

let test_invalid_params () =
  Alcotest.check_raises "tiny modulus"
    (Invalid_argument "Rsa.generate: modulus too small") (fun () ->
      ignore (Rsa.generate ~bits:64 drbg));
  Alcotest.check_raises "even exponent"
    (Invalid_argument "Rsa.generate: bad public exponent") (fun () ->
      ignore (Rsa.generate ~e:4 drbg))

let to_hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* Known answers: s = m^d mod n is unique, so any exponentiation
   kernel must reproduce these signatures byte for byte.  The keys are
   the DRBG-seeded [kp] and [kp512] above, pinned by fingerprint so a
   key-generation change fails here rather than as a signature
   mismatch. *)
let test_known_answers () =
  Alcotest.(check string) "1024-bit key" "9f2709a74224f78a"
    (Rsa.fingerprint kp.Rsa.public);
  Alcotest.(check string) "512-bit key" "cd7f3eadaf7675e2"
    (Rsa.fingerprint kp512.Rsa.public);
  List.iter
    (fun (name, key, pk, algo, msg, want) ->
      let s = Rsa.sign ~algo key msg in
      Alcotest.(check string) name want (to_hex s);
      Alcotest.(check bool) (name ^ " verifies") true
        (Rsa.verify ~algo pk ~msg ~signature:s))
    [
      ( "1024 sha1 empty", kp.Rsa.private_, kp.Rsa.public, Digest_algo.SHA1, "",
        "120bc32aa4db083dbd4227a5b226f91f565984c5c62637973f6c7614ed00d18d\
         e78905574426015d38309dbb0f552ba8f0d073051beb470ad09f2c249d34feba\
         b2fa8599ac496435744470d41d2bb192fc0bf0ddedb339eefefc4e7a1dba379c\
         8c72081f6128c568a1ba56129f18a6379f969505929c3018ab169fef63ab80aa" );
      ( "1024 sha1", kp.Rsa.private_, kp.Rsa.public, Digest_algo.SHA1,
        "provenance",
        "7d87ee0cd56e59aeae534f1ea38c4bf9bfa7683a1a68cfddd3708129606f9bf6\
         514222c0c456a43f5f6054afb83c5ebba67f1157798a0029d0651b3d919d3471\
         ed2ea9402a5fafdae78ee3479b353aa0a6e9302661024ca04bb5d3b7f51b90da\
         772a3f1556609229403e3c8048eaa08198073f3475e5219b450c83d7e583e130" );
      ( "1024 sha256", kp.Rsa.private_, kp.Rsa.public, Digest_algo.SHA256,
        "provenance",
        "4e8242be13cc02c087f8f5551a8bf19ebd9e5785e3771f3af03c57ada5c99697\
         912f62616c524e32744ec053a5d53f4c63ff79ae03adc139021b7ec9d5394eb7\
         0225268ae1d88bc455c784a66cc8894cf630016016a16944e6e6a8a217de6ed6\
         3c69b5bc19166b08c73e11f5f3ab7c8b499b5545aeef407d258b7614af9a6d02" );
      ( "512 sha1", kp512.Rsa.private_, kp512.Rsa.public, Digest_algo.SHA1,
        "provenance",
        "4fe25e77997c36fb6c7b0c0ea6e301fa1400288e15fa875aa7000a7d792a1f40\
         80df5bbea21c483c8b07e9dc43915d0e2d88c29d1ddf14ccdff003728e0ac006" );
      ( "512 sha256", kp512.Rsa.private_, kp512.Rsa.public,
        Digest_algo.SHA256, "",
        "892152937308c71b9e88660e26176dd27ccce43f5cd15a599b742f9c9671e5e9\
         ff0a43b4104c18a3f12f9ed7ab1f2971599cb0245072aaaec6ed9775d0d9e2b3" );
    ]

(* A key carries its own modulus's Montgomery context: a parsed key
   verifies like the generated one, also on another domain, and
   [raw_public] agrees with [Zmod.modpow] for whatever modulus and
   exponent a parsed key holds, an even modulus included. *)
let test_keys_carry_context () =
  let s = Rsa.sign kp512.Rsa.private_ "context" in
  let key n e =
    match
      Rsa.public_of_string
        (Printf.sprintf "rsa-pub:%s:%s" (Nat.to_hex n) (Nat.to_hex e))
    with
    | Some pk -> pk
    | None -> Alcotest.fail "public_of_string"
  in
  let pub = kp512.Rsa.public in
  let parsed =
    match Rsa.public_of_string (Rsa.public_to_string pub) with
    | Some pk -> pk
    | None -> Alcotest.fail "public roundtrip"
  in
  Alcotest.(check bool) "parsed key verifies" true
    (Rsa.verify parsed ~msg:"context" ~signature:s);
  Alcotest.(check bool) "fresh domain" true
    (Domain.join
       (Domain.spawn (fun () -> Rsa.verify parsed ~msg:"context" ~signature:s)));
  let m = Nat.of_bytes_be s in
  List.iter
    (fun (name, n, e) ->
      Alcotest.(check string) name
        (Nat.to_hex (Zmod.modpow m e n))
        (Nat.to_hex (Rsa.raw_public (key n e) m)))
    [
      ("own modulus", pub.Rsa.n, pub.Rsa.e);
      ("other modulus", kp.Rsa.public.Rsa.n, pub.Rsa.e);
      ("other exponent", pub.Rsa.n, Nat.of_int 3);
      ("even modulus", Nat.add pub.Rsa.n Nat.one, pub.Rsa.e);
    ];
  Alcotest.(check bool) "even modulus has no context" true
    (Option.is_none (key (Nat.add pub.Rsa.n Nat.one) pub.Rsa.e).Rsa.mont)

let prop_sign_verify_512 =
  QCheck2.Test.make ~name:"sign/verify roundtrip (512-bit)" ~count:25
    QCheck2.Gen.(string_size ~gen:char (int_range 0 200))
    (fun msg ->
      let s = Rsa.sign kp512.Rsa.private_ msg in
      Rsa.verify kp512.Rsa.public ~msg ~signature:s)

let prop_tamper_detected =
  QCheck2.Test.make ~name:"any appended byte breaks verification" ~count:25
    QCheck2.Gen.(pair (string_size ~gen:char (int_range 1 100)) char)
    (fun (msg, extra) ->
      let s = Rsa.sign kp512.Rsa.private_ msg in
      not (Rsa.verify kp512.Rsa.public ~msg:(msg ^ String.make 1 extra) ~signature:s))

let test_encrypt_decrypt () =
  List.iter
    (fun msg ->
      let c = Rsa.encrypt drbg kp512.Rsa.public msg in
      Alcotest.(check int)
        "ciphertext is key-sized" (Rsa.key_bytes kp512.Rsa.public)
        (String.length c);
      (match Rsa.decrypt kp512.Rsa.private_ c with
      | Some m -> Alcotest.(check string) "round trip" msg m
      | None -> Alcotest.fail "decryption failed");
      (* padding is randomised: a second encryption differs *)
      Alcotest.(check bool)
        "probabilistic padding" true
        (msg = "" || Rsa.encrypt drbg kp512.Rsa.public msg <> c))
    [ ""; "x"; String.make 32 '\x2a'; String.make 53 '\x00' ];
  (* 512-bit key: 64-byte modulus, so 53 bytes is the largest message *)
  match Rsa.encrypt drbg kp512.Rsa.public (String.make 54 'y') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-long message must be rejected"

let test_decrypt_rejects () =
  let c = Rsa.encrypt drbg kp512.Rsa.public "secret" in
  (* wrong length *)
  Alcotest.(check bool)
    "short ciphertext" true
    (Rsa.decrypt kp512.Rsa.private_ (String.sub c 0 10) = None);
  (* a tampered ciphertext never yields the plaintext (with this
     deterministic DRBG it fails padding outright) *)
  let flipped =
    String.mapi
      (fun i ch -> if i = 0 then Char.chr (Char.code ch lxor 1) else ch)
      c
  in
  (match Rsa.decrypt kp512.Rsa.private_ flipped with
  | None -> ()
  | Some m -> Alcotest.(check bool) "tampered ciphertext" true (m <> "secret"));
  (* value >= modulus *)
  Alcotest.(check bool)
    "out of range" true
    (Rsa.decrypt kp512.Rsa.private_ (String.make 64 '\xff') = None)

let () =
  Alcotest.run "rsa"
    [
      ( "unit",
        [
          Alcotest.test_case "key shape" `Quick test_key_shape;
          Alcotest.test_case "sign/verify" `Quick test_sign_verify;
          Alcotest.test_case "wrong message" `Quick test_wrong_message;
          Alcotest.test_case "corrupted signature" `Quick
            test_corrupted_signature;
          Alcotest.test_case "wrong key" `Quick test_wrong_key;
          Alcotest.test_case "wrong-length signature" `Quick
            test_wrong_length_signature;
          Alcotest.test_case "algo choice" `Quick test_algo_choice;
          Alcotest.test_case "raw roundtrip" `Quick test_raw_roundtrip;
          Alcotest.test_case "emsa shape" `Quick test_emsa_shape;
          Alcotest.test_case "serialisation" `Quick test_serialisation;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint;
          Alcotest.test_case "fault check" `Quick test_fault_check;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "keys carry their context" `Quick
            test_keys_carry_context;
          Alcotest.test_case "invalid params" `Quick test_invalid_params;
          Alcotest.test_case "encrypt/decrypt" `Quick test_encrypt_decrypt;
          Alcotest.test_case "decrypt rejects garbage" `Quick
            test_decrypt_rejects;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sign_verify_512; prop_tamper_detected ] );
    ]
