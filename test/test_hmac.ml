(* HMAC against RFC 2202 (MD5/SHA-1) and RFC 4231 (SHA-256) vectors. *)
open Tep_crypto

let check = Alcotest.(check string)

let test_rfc2202_sha1 () =
  check "case 1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (Hmac.hex ~algo:Digest_algo.SHA1 ~key:(String.make 20 '\x0b') "Hi There");
  check "case 2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (Hmac.hex ~algo:Digest_algo.SHA1 ~key:"Jefe" "what do ya want for nothing?");
  check "case 3" "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
    (Hmac.hex ~algo:Digest_algo.SHA1 ~key:(String.make 20 '\xaa')
       (String.make 50 '\xdd'));
  (* case 6: key longer than block size *)
  check "case 6" "aa4ae5e15272d00e95705637ce8a3b55ed402112"
    (Hmac.hex ~algo:Digest_algo.SHA1 ~key:(String.make 80 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_rfc2202_md5 () =
  check "case 1" "9294727a3638bb1c13f48ef8158bfc9d"
    (Hmac.hex ~algo:Digest_algo.MD5 ~key:(String.make 16 '\x0b') "Hi There");
  check "case 2" "750c783e6ab0b503eaa86e310a5db738"
    (Hmac.hex ~algo:Digest_algo.MD5 ~key:"Jefe" "what do ya want for nothing?")

let test_rfc4231_sha256 () =
  check "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.hex ~algo:Digest_algo.SHA256 ~key:(String.make 20 '\x0b') "Hi There");
  check "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.hex ~algo:Digest_algo.SHA256 ~key:"Jefe"
       "what do ya want for nothing?");
  check "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.hex ~algo:Digest_algo.SHA256 ~key:(String.make 20 '\xaa')
       (String.make 50 '\xdd'))

let test_verify () =
  let key = "secret" and msg = "payload" in
  let tag = Hmac.mac ~algo:Digest_algo.SHA256 ~key msg in
  Alcotest.(check bool)
    "good" true
    (Hmac.verify ~algo:Digest_algo.SHA256 ~key ~msg ~tag);
  Alcotest.(check bool)
    "bad msg" false
    (Hmac.verify ~algo:Digest_algo.SHA256 ~key ~msg:"other" ~tag);
  Alcotest.(check bool)
    "bad key" false
    (Hmac.verify ~algo:Digest_algo.SHA256 ~key:"wrong" ~msg ~tag)

(* The precomputed key schedule (ipad/opad folded once per session)
   must be byte-identical to the one-shot path for every key shape:
   empty, short, block-sized, longer than a block. *)
let test_keyed_context () =
  let keys =
    [ ""; "Jefe"; String.make 20 '\x0b'; String.make 64 '\x55';
      String.make 80 '\xaa' ]
  in
  let msgs =
    [ ""; "Hi There"; "what do ya want for nothing?"; String.make 50 '\xdd' ]
  in
  List.iter
    (fun key ->
      let ctx = Hmac.context ~algo:Digest_algo.SHA256 ~key in
      List.iter
        (fun msg ->
          check "keyed context matches one-shot"
            (Hmac.mac ~algo:Digest_algo.SHA256 ~key msg)
            (Hmac.mac_with ctx msg))
        msgs)
    keys

let test_constant_time_equal () =
  Alcotest.(check bool) "equal" true (Hmac.equal_constant_time "abc" "abc");
  Alcotest.(check bool) "diff" false (Hmac.equal_constant_time "abc" "abd");
  Alcotest.(check bool) "len" false (Hmac.equal_constant_time "ab" "abc");
  Alcotest.(check bool) "empty" true (Hmac.equal_constant_time "" "")

let prop_context_equivalence =
  QCheck2.Test.make ~name:"precomputed context = one-shot mac" ~count:200
    QCheck2.Gen.(
      pair
        (string_size ~gen:char (int_range 0 100))
        (string_size ~gen:char (int_range 0 200)))
    (fun (key, msg) ->
      String.equal
        (Hmac.mac ~algo:Digest_algo.SHA256 ~key msg)
        (Hmac.mac_with (Hmac.context ~algo:Digest_algo.SHA256 ~key) msg))

let prop_key_sensitivity =
  QCheck2.Test.make ~name:"different keys, different tags" ~count:200
    QCheck2.Gen.(
      triple (string_size ~gen:char (int_range 0 40))
        (string_size ~gen:char (int_range 0 40))
        (string_size ~gen:char (int_range 0 60)))
    (fun (k1, k2, msg) ->
      QCheck2.assume (not (String.equal k1 k2));
      not
        (String.equal
           (Hmac.mac ~algo:Digest_algo.SHA256 ~key:k1 msg)
           (Hmac.mac ~algo:Digest_algo.SHA256 ~key:k2 msg)))

(* RFC 2104 spelled out from the one-shot digest, independent of the
   key-schedule and midstate code in [Hmac]. *)
let reference_hmac algo ~key msg =
  let key =
    if String.length key > 64 then Digest_algo.digest algo key else key
  in
  let pad byte =
    String.init 64 (fun i ->
        let k = if i < String.length key then Char.code key.[i] else 0 in
        Char.chr (k lxor byte))
  in
  Digest_algo.digest algo
    (pad 0x5c ^ Digest_algo.digest algo (pad 0x36 ^ msg))

let prop_reference =
  QCheck2.Test.make ~name:"mac_with (context) = reference HMAC" ~count:300
    QCheck2.Gen.(
      triple
        (oneofl Digest_algo.all)
        (string_size ~gen:char (int_range 0 150))
        (string_size ~gen:char (int_range 0 200)))
    ~print:(fun (algo, key, msg) ->
      Printf.sprintf "%s key=%d bytes msg=%d bytes" (Digest_algo.name algo)
        (String.length key) (String.length msg))
    (fun (algo, key, msg) ->
      String.equal
        (reference_hmac algo ~key msg)
        (Hmac.mac_with (Hmac.context ~algo ~key) msg))

(* One context shared by two domains tagging at once — the sealed
   session pattern — gives every tag the sequential run gives. *)
let test_shared_context_domains () =
  List.iter
    (fun algo ->
      let ctx = Hmac.context ~algo ~key:"session key" in
      let msgs = List.init 400 (fun i -> String.make (i mod 150) (Char.chr (i land 0xff))) in
      let expected = List.map (reference_hmac algo ~key:"session key") msgs in
      let tag_all () = List.map (Hmac.mac_with ctx) msgs in
      let other = Domain.spawn tag_all in
      let mine = tag_all () in
      let theirs = Domain.join other in
      Alcotest.(check (list string)) "this domain" expected mine;
      Alcotest.(check (list string)) "other domain" expected theirs)
    Digest_algo.all

let () =
  Alcotest.run "hmac"
    [
      ( "vectors",
        [
          Alcotest.test_case "rfc2202 sha1" `Quick test_rfc2202_sha1;
          Alcotest.test_case "rfc2202 md5" `Quick test_rfc2202_md5;
          Alcotest.test_case "rfc4231 sha256" `Quick test_rfc4231_sha256;
        ] );
      ( "unit",
        [
          Alcotest.test_case "verify" `Quick test_verify;
          Alcotest.test_case "keyed context" `Quick test_keyed_context;
          Alcotest.test_case "constant-time equal" `Quick
            test_constant_time_equal;
          Alcotest.test_case "shared context, two domains" `Quick
            test_shared_context_domains;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_key_sensitivity;
          QCheck_alcotest.to_alcotest prop_context_equivalence;
          QCheck_alcotest.to_alcotest prop_reference;
        ] );
    ]
