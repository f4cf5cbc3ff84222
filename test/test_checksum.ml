(* Checksum payloads and signature verification. *)
open Tep_tree
open Tep_core

let drbg = Tep_crypto.Drbg.create ~seed:"test-checksum"
let ca = Tep_crypto.Pki.create_ca ~name:"CA" drbg
let dir = Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
let alice = Participant.create ~ca ~name:"alice" drbg
let bob = Participant.create ~ca ~name:"bob" drbg
let () = Participant.Directory.register dir alice
let () = Participant.Directory.register dir bob

let oid = Oid.of_int 7

let test_payload_arities () =
  let p =
    Checksum.payload ~kind:Record.Insert ~seq_id:0 ~output_oid:oid
      ~input_hashes:[] ~output_hash:"h" ~prev_checksums:[]
  in
  Alcotest.(check bool) "insert ok" true (String.length p > 0);
  Alcotest.check_raises "insert with input"
    (Invalid_argument "Checksum.payload: insert takes no inputs") (fun () ->
      ignore
        (Checksum.payload ~kind:Record.Insert ~seq_id:0 ~output_oid:oid
           ~input_hashes:[ "x" ] ~output_hash:"h" ~prev_checksums:[]));
  Alcotest.check_raises "aggregate arity"
    (Invalid_argument "Checksum.payload: aggregate needs one prev per input")
    (fun () ->
      ignore
        (Checksum.payload ~kind:Record.Aggregate ~seq_id:1 ~output_oid:oid
           ~input_hashes:[ "a"; "b" ] ~output_hash:"h" ~prev_checksums:[ "c" ]))

let test_payload_distinct () =
  (* payloads differ whenever any component differs *)
  let base ~seq ~oid ~ih ~oh ~prev =
    Checksum.payload ~kind:Record.Update ~seq_id:seq ~output_oid:oid
      ~input_hashes:[ ih ] ~output_hash:oh ~prev_checksums:[ prev ]
  in
  let p0 = base ~seq:1 ~oid ~ih:"i" ~oh:"o" ~prev:"c" in
  Alcotest.(check bool) "seq" false (String.equal p0 (base ~seq:2 ~oid ~ih:"i" ~oh:"o" ~prev:"c"));
  Alcotest.(check bool) "oid" false
    (String.equal p0 (base ~seq:1 ~oid:(Oid.of_int 8) ~ih:"i" ~oh:"o" ~prev:"c"));
  Alcotest.(check bool) "input" false (String.equal p0 (base ~seq:1 ~oid ~ih:"j" ~oh:"o" ~prev:"c"));
  Alcotest.(check bool) "output" false (String.equal p0 (base ~seq:1 ~oid ~ih:"i" ~oh:"p" ~prev:"c"));
  Alcotest.(check bool) "prev" false (String.equal p0 (base ~seq:1 ~oid ~ih:"i" ~oh:"o" ~prev:"d"))

let test_payload_framing () =
  (* field-boundary shifts must not collide *)
  let p1 =
    Checksum.payload ~kind:Record.Update ~seq_id:1 ~output_oid:oid
      ~input_hashes:[ "ab" ] ~output_hash:"c" ~prev_checksums:[ "d" ]
  in
  let p2 =
    Checksum.payload ~kind:Record.Update ~seq_id:1 ~output_oid:oid
      ~input_hashes:[ "a" ] ~output_hash:"bc" ~prev_checksums:[ "d" ]
  in
  Alcotest.(check bool) "no collision" false (String.equal p1 p2)

let test_kinds_distinct () =
  let upd =
    Checksum.payload ~kind:Record.Update ~seq_id:0 ~output_oid:oid
      ~input_hashes:[ "h" ] ~output_hash:"o" ~prev_checksums:[]
  in
  let imp =
    Checksum.payload ~kind:Record.Import ~seq_id:0 ~output_oid:oid
      ~input_hashes:[ "h" ] ~output_hash:"o" ~prev_checksums:[]
  in
  Alcotest.(check bool) "update <> import" false (String.equal upd imp)

let mk_record participant ~tamper =
  let input_hashes = [ "input-hash" ] in
  let output_hash = "output-hash" in
  let payload =
    Checksum.payload ~kind:Record.Update ~seq_id:1 ~output_oid:oid
      ~input_hashes ~output_hash ~prev_checksums:[ "prev" ]
  in
  let checksum = Checksum.sign participant payload in
  {
    Record.seq_id = 1;
    participant = (if tamper then "bob" else Participant.name participant);
    kind = Record.Update;
    inherited = false;
    input_oids = [ oid ];
    input_hashes;
    output_oid = oid;
    output_hash;
    output_value = None;
    prev_checksums = [ "prev" ];
    checksum;
  }

let test_verify_record_ok () =
  match Checksum.verify_record dir (mk_record alice ~tamper:false) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_verify_record_wrong_signer () =
  (* alice signed but record claims bob: R8/R1 *)
  match Checksum.verify_record dir (mk_record alice ~tamper:true) with
  | Ok () -> Alcotest.fail "forged attribution accepted"
  | Error _ -> ()

let test_verify_record_unknown_participant () =
  let r = { (mk_record alice ~tamper:false) with Record.participant = "eve" } in
  match Checksum.verify_record dir r with
  | Ok () -> Alcotest.fail "unknown participant accepted"
  | Error e ->
      Alcotest.(check string) "msg" "unknown participant eve" e

let test_verify_record_tampered_field () =
  let r = { (mk_record alice ~tamper:false) with Record.output_hash = "evil" } in
  match Checksum.verify_record dir r with
  | Ok () -> Alcotest.fail "tampered record accepted"
  | Error _ -> ()

(* The CA check runs once, at registration: a certificate that fails
   it never enters the directory, so its subject's records read as
   unknown; a re-registered certificate keeps verifying. *)
let test_certs_checked_at_registration () =
  let drbg = Tep_crypto.Drbg.create ~seed:"test-checksum-registration" in
  let ca = Tep_crypto.Pki.create_ca ~name:"CA2" drbg in
  let d = Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca) in
  let carol = Participant.create ~ca ~name:"carol" drbg in
  let dave = Participant.create ~ca ~name:"dave" drbg in
  let flipped =
    let cert = Participant.certificate dave in
    let sg = Bytes.of_string cert.Tep_crypto.Pki.signature in
    Bytes.set sg 0 (Char.chr (Char.code (Bytes.get sg 0) lxor 1));
    { cert with Tep_crypto.Pki.signature = Bytes.to_string sg }
  in
  (match Participant.Directory.register_certificate d flipped with
  | Ok () -> Alcotest.fail "a certificate with a flipped signature byte entered"
  | Error e ->
      Alcotest.(check string) "refusal" "certificate for dave does not verify" e);
  let expect_error name msg r =
    match Checksum.verify_record d r with
    | Ok () -> Alcotest.fail (name ^ ": accepted")
    | Error e -> Alcotest.(check string) name msg e
  in
  expect_error "refused subject" "unknown participant dave"
    (mk_record dave ~tamper:false);
  let r = mk_record carol ~tamper:false in
  let verifies name =
    match Checksum.verify_record d r with
    | Ok () -> ()
    | Error e -> Alcotest.fail (name ^ ": " ^ e)
  in
  Participant.Directory.register d carol;
  verifies "registered";
  (match
     Participant.Directory.register_certificate d (Participant.certificate carol)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  verifies "re-registered";
  expect_error "unknown name" "unknown participant nobody"
    { r with Record.participant = "nobody" }

let test_verify_wrong_key () =
  let payload = "data" in
  let c = Checksum.sign alice payload in
  Alcotest.(check bool) "right key" true
    (Checksum.verify (Participant.public_key alice) ~payload ~checksum:c);
  Alcotest.(check bool) "wrong key" false
    (Checksum.verify (Participant.public_key bob) ~payload ~checksum:c)

let () =
  Alcotest.run "checksum"
    [
      ( "unit",
        [
          Alcotest.test_case "payload arities" `Quick test_payload_arities;
          Alcotest.test_case "payload distinct" `Quick test_payload_distinct;
          Alcotest.test_case "payload framing" `Quick test_payload_framing;
          Alcotest.test_case "kinds distinct" `Quick test_kinds_distinct;
          Alcotest.test_case "verify ok" `Quick test_verify_record_ok;
          Alcotest.test_case "wrong signer" `Quick
            test_verify_record_wrong_signer;
          Alcotest.test_case "unknown participant" `Quick
            test_verify_record_unknown_participant;
          Alcotest.test_case "tampered field" `Quick
            test_verify_record_tampered_field;
          Alcotest.test_case "wrong key" `Quick test_verify_wrong_key;
          Alcotest.test_case "certificates are checked at registration" `Quick
            test_certs_checked_at_registration;
        ] );
    ]
