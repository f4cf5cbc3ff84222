(* End-to-end service tests.

   The loopback transport drives the server's connection state machine
   directly — same frames, codecs and session sealing as a socket —
   so most tests run deterministically in-process.  One test runs the
   full daemon loop over a real Unix-domain socket.

   The acceptance bar: reports received over the wire render
   byte-identically to the in-process Verifier/Audit on the same
   history, including after tampering. *)
open Tep_store
open Tep_tree
open Tep_core
open Tep_wire
module Server = Tep_server.Server
module Client = Tep_client.Client
module Fault = Tep_fault.Fault

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let make_env () =
  let drbg = Tep_crypto.Drbg.create ~seed:"service" in
  let ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"CA" drbg in
  let directory =
    Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
  in
  let alice = Participant.create ~bits:512 ~ca ~name:"alice" drbg in
  Participant.Directory.register directory alice;
  let db = Database.create ~name:"svc" in
  ignore
    (Database.create_table db ~name:"stock" (Schema.all_int [ "sku"; "qty" ]));
  let engine = Engine.create ~directory db in
  (engine, ca, directory, alice, drbg)

let make_server ?max_payload ?checkpoint engine alice =
  Server.create ?max_payload
    ~drbg:(Tep_crypto.Drbg.create ~seed:"server")
    ~participants:[ ("alice", alice) ]
    [ (engine, checkpoint) ]

let make_client server =
  Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"client") server

(* The server's counters as an operator reads them, over a fresh
   loopback session: Ping's process-wide totals and the per-shard
   Shard_stats entries. *)
let counters server alice =
  let c =
    Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"counters") server
  in
  ok (Client.authenticate c alice);
  let h = ok (Client.ping c) in
  let shards = ok (Client.shard_stats c) in
  Client.close c;
  (h, shards)

let health server alice = fst (counters server alice)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let op_insert sku qty =
  Message.Op_insert
    { table = "stock"; cells = [| Value.Int sku; Value.Int qty |] }

let stock_rows engine =
  Table.row_count (Database.get_table_exn (Engine.backend engine) "stock")

let local_report engine oid =
  Format.asprintf "%a" Verifier.pp_report (ok (Engine.verify_object engine oid))

let records_bytes records = String.concat "|" (List.map Record.encoded records)

(* Mutate the first cell behind the engine's back, like `provdb tamper`. *)
let tamper_first_cell engine =
  let forest = Engine.forest engine in
  match
    List.concat_map (Forest.children forest) (Forest.roots forest)
    |> List.concat_map (Forest.children forest)
    |> List.concat_map (Forest.children forest)
  with
  | cell :: _ -> ignore (Forest.update forest cell (Value.Text "TAMPERED"))
  | [] -> Alcotest.fail "no cells"

(* ------------------------------------------------------------------ *)
(* Loopback happy path                                                 *)
(* ------------------------------------------------------------------ *)

let test_loopback_session () =
  let engine, _, directory, alice, _ = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  Alcotest.(check bool) "authenticated" true (Client.authenticated c);
  (* submit: insert, update, delete *)
  let row, records = ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |]) in
  Alcotest.(check bool) "insert emits records" true (records > 0);
  let row2, _ = ok (Client.insert c ~table:"stock" [| Value.Int 2; Value.Int 20 |]) in
  ignore (ok (Client.update c ~table:"stock" ~row ~col:1 (Value.Int 9)));
  ignore (ok (Client.delete c ~table:"stock" ~row:row2));
  (* root hash over the wire = in-process root hash *)
  Alcotest.(check string) "root hash" (Engine.root_hash engine)
    (ok (Client.root_hash c));
  (* provenance query: records byte-identical to in-process deliver *)
  let m = Engine.mapping engine in
  let row_oid =
    match Tree_view.row_oid m "stock" row with
    | Some o -> o
    | None -> Alcotest.fail "row oid"
  in
  let remote_records = ok (Client.query c ~oid:row_oid ()) in
  let _, local_records = ok (Engine.deliver engine row_oid) in
  Alcotest.(check string) "query records byte-identical"
    (records_bytes local_records) (records_bytes remote_records);
  (* aggregate *)
  let agg_oid, _ = ok (Client.aggregate c [ row_oid ]) in
  let agg_records = ok (Client.query c ~oid:agg_oid ()) in
  Alcotest.(check bool) "aggregate has provenance" true (agg_records <> []);
  (* verify: report byte-identical to the in-process verifier *)
  let report, store_audit = ok (Client.verify c ()) in
  Alcotest.(check string) "verify report byte-identical"
    (local_report engine (Engine.root_oid engine))
    (Message.render_report report);
  (match store_audit with
  | Some a -> Alcotest.(check bool) "store audit clean" true (Message.report_ok a)
  | None -> Alcotest.fail "whole-db verify must include a store audit");
  (* targeted verify *)
  let cell_report, none_audit = ok (Client.verify c ~oid:row_oid ()) in
  Alcotest.(check string) "targeted verify byte-identical"
    (local_report engine row_oid)
    (Message.render_report cell_report);
  Alcotest.(check bool) "targeted verify has no store audit" true
    (none_audit = None);
  (* audit: byte-identical to a local incremental audit from empty *)
  let remote_audit, examined, objects = ok (Client.audit c) in
  let local_audit, local_cp, local_examined =
    Audit.incremental_audit ~algo:(Engine.algo engine) ~directory Audit.empty
      (Engine.provstore engine)
  in
  Alcotest.(check string) "audit report byte-identical"
    (Format.asprintf "%a" Verifier.pp_report local_audit)
    (Message.render_report remote_audit);
  Alcotest.(check int) "examined" local_examined examined;
  Alcotest.(check int) "objects" (Audit.objects local_cp) objects;
  (* second audit examines only what is new (nothing) *)
  let _, examined2, _ = ok (Client.audit c) in
  Alcotest.(check int) "incremental audit examines nothing new" 0 examined2;
  Client.close c

let test_loopback_tamper_detected () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |]));
  let report, _ = ok (Client.verify c ()) in
  Alcotest.(check bool) "clean before tampering" true (Message.report_ok report);
  tamper_first_cell engine;
  let report, _ = ok (Client.verify c ()) in
  Alcotest.(check bool) "tampering detected over the wire" false
    (Message.report_ok report);
  (* and the report still matches the in-process verifier byte-for-byte *)
  Alcotest.(check string) "tamper report byte-identical"
    (local_report engine (Engine.root_oid engine))
    (Message.render_report report)

let test_checkpoint_rpc () =
  let engine, _, _, alice, _ = make_env () in
  (* without checkpointing configured the RPC fails cleanly *)
  let bare = make_server engine alice in
  let c = make_client bare in
  ok (Client.authenticate c alice);
  (match Client.checkpoint c with
  | Error e ->
      Alcotest.(check bool) "reports failed" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "checkpoint without config must fail");
  (* with a checkpoint directory + WAL it writes a generation *)
  let dir = Filename.temp_file "tep_service_ckpt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let wal = Wal.open_file (Filename.concat dir "wal.log") in
  let server = make_server ~checkpoint:(dir, wal) engine alice in
  let c2 = make_client server in
  ok (Client.authenticate c2 alice);
  ignore (ok (Client.insert c2 ~table:"stock" [| Value.Int 5; Value.Int 50 |]));
  let generation, _lsn = ok (Client.checkpoint c2) in
  Alcotest.(check bool) "generation written" true (generation >= 0);
  Alcotest.(check bool) "generation file exists" true
    (Sys.file_exists (Recovery.generation_path ~dir generation))

(* ------------------------------------------------------------------ *)
(* Authentication failures                                             *)
(* ------------------------------------------------------------------ *)

let test_auth_unknown_participant () =
  let engine, ca, _, alice, drbg = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  let mallory = Participant.create ~bits:512 ~ca ~name:"mallory" drbg in
  match Client.authenticate c mallory with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown participant must be rejected"

let test_auth_wrong_key () =
  let engine, ca, _, alice, drbg = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  (* same name, different keypair: the server checks the signature
     against the registered certificate, not the claimed identity *)
  let fake_alice = Participant.create ~bits:512 ~ca ~name:"alice" drbg in
  match Client.authenticate c fake_alice with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong key must be rejected"

(* Raw-frame driving of the connection state machine, for cases the
   well-behaved client cannot produce. *)
let clear_frame req =
  Frame.to_string ~kind:Frame.Clear (Message.request_to_string req)

let parse_one s =
  match Frame.parse s 0 with
  | Frame.Frame { kind; payload; consumed } ->
      Alcotest.(check int) "single frame" (String.length s) consumed;
      (kind, payload)
  | _ -> Alcotest.fail "expected one complete frame"

let decode_resp payload = fst (Message.decode_response payload 0)

(* Established-channel messages are [varint cid · response] (framing
   v2); raw-frame tests strip the correlation id before decoding. *)
let decode_sealed_resp msg =
  match Message.read_cid msg with
  | Some (_, off) -> fst (Message.decode_response msg off)
  | None -> Alcotest.fail "sealed message missing correlation id"

(* Open and decode the single sealed response in [s]. *)
let open_sealed_resp key ~seq s =
  match parse_one s with
  | Frame.Sealed, payload -> (
      match Session.open_ ~key ~dir:Session.To_client ~seq payload with
      | Ok msg -> decode_sealed_resp msg
      | Error e -> Alcotest.fail ("response failed to open: " ^ e))
  | _ -> Alcotest.fail "expected a sealed response"

let expect_error name s code =
  match parse_one s with
  | _, payload -> (
      match decode_resp payload with
      | Message.Error_resp { code = c; _ } ->
          Alcotest.(check string) name
            (Message.error_code_name code)
            (Message.error_code_name c)
      | _ -> Alcotest.fail (name ^ ": expected an error response"))

(* Drive the Hello → Challenge leg by hand; returns the server nonce. *)
let hello conn name =
  let client_nonce = String.make Session.nonce_len 'n' in
  let resp =
    Tep_server.Server.feed conn
      (clear_frame (Message.Hello { name; nonce = client_nonce }))
  in
  let server_nonce =
    match parse_one resp with
    | Frame.Clear, payload -> (
        match decode_resp payload with
        | Message.Challenge { nonce } -> nonce
        | _ -> Alcotest.fail "expected a challenge")
    | _ -> Alcotest.fail "challenge must be clear"
  in
  (client_nonce, server_nonce)

(* Drive the full handshake by hand; returns the session key and the
   sealed Auth_ok payload (for key-secrecy assertions). *)
let handshake_frames conn p =
  let name = Participant.name p in
  let client_nonce, server_nonce = hello conn name in
  let drbg = Tep_crypto.Drbg.create ~seed:("handshake-" ^ name) in
  let secret = Tep_crypto.Drbg.generate drbg Session.key_share_len in
  let key_share =
    Tep_crypto.Rsa.encrypt drbg (Participant.public_key p) secret
  in
  let transcript =
    Session.transcript ~name ~client_nonce ~server_nonce ~key_share
  in
  let signature = Participant.sign p transcript in
  let key = Session.derive_key ~transcript ~signature ~secret in
  let resp =
    Tep_server.Server.feed conn
      (clear_frame (Message.Auth { signature; key_share }))
  in
  let auth_ok =
    match parse_one resp with
    | Frame.Sealed, payload -> payload
    | _ -> Alcotest.fail "Auth_ok must be sealed"
  in
  (match Session.open_ ~key ~dir:Session.To_client ~seq:0 auth_ok with
  | Ok msg -> (
      match decode_sealed_resp msg with
      | Message.Auth_ok _ -> ()
      | _ -> Alcotest.fail "expected Auth_ok")
  | Error e -> Alcotest.fail ("Auth_ok failed to open: " ^ e));
  (key, `Wire_visible (transcript, signature), auth_ok)

let handshake conn p =
  let key, _, _ = handshake_frames conn p in
  key

(* The review-critical property: every handshake byte that crosses
   the wire (name, nonces, ciphertext, signature) is insufficient to
   derive the session key — the secret travels RSA-encrypted to the
   participant's certificate key. *)
let test_key_not_derivable_from_wire () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let conn = Tep_server.Server.conn server in
  let _key, `Wire_visible (transcript, signature), auth_ok =
    handshake_frames conn alice
  in
  List.iter
    (fun guess ->
      let eve = Session.derive_key ~transcript ~signature ~secret:guess in
      match Session.open_ ~key:eve ~dir:Session.To_client ~seq:0 auth_ok with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.fail "key derived from wire-visible data opened a frame")
    [ ""; String.make Session.key_share_len '\x00'; transcript; signature ]

(* A signed Auth whose key share is not a well-formed RSA ciphertext
   must be rejected, not crash the decryptor. *)
let test_bad_key_share_rejected () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let conn = Tep_server.Server.conn server in
  let name = Participant.name alice in
  let client_nonce, server_nonce = hello conn name in
  let key_share = "not an rsa ciphertext" in
  let transcript =
    Session.transcript ~name ~client_nonce ~server_nonce ~key_share
  in
  let signature = Participant.sign alice transcript in
  let resp =
    Tep_server.Server.feed conn
      (clear_frame (Message.Auth { signature; key_share }))
  in
  expect_error "bad key share" resp Message.Auth_failed

(* Tampering with the encrypted key share breaks the signature that
   covers it — the server refuses before ever decrypting. *)
let test_tampered_key_share_rejected () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let conn = Tep_server.Server.conn server in
  let name = Participant.name alice in
  let client_nonce, server_nonce = hello conn name in
  let drbg = Tep_crypto.Drbg.create ~seed:"tampered-share" in
  let secret = Tep_crypto.Drbg.generate drbg Session.key_share_len in
  let key_share =
    Tep_crypto.Rsa.encrypt drbg (Participant.public_key alice) secret
  in
  let transcript =
    Session.transcript ~name ~client_nonce ~server_nonce ~key_share
  in
  let signature = Participant.sign alice transcript in
  let flipped =
    String.mapi
      (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c)
      key_share
  in
  let resp =
    Tep_server.Server.feed conn
      (clear_frame (Message.Auth { signature; key_share = flipped }))
  in
  expect_error "tampered key share" resp Message.Auth_failed

let test_pre_auth_request_rejected () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let conn = Tep_server.Server.conn server in
  (* a clear Query before the handshake *)
  let resp = Tep_server.Server.feed conn (clear_frame (Message.Query None)) in
  expect_error "pre-auth request" resp Message.Auth_required;
  Alcotest.(check string) "connection dead" ""
    (Tep_server.Server.feed conn (clear_frame (Message.Query None)))

let test_sealed_frame_pre_auth_rejected () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let conn = Tep_server.Server.conn server in
  let resp =
    Tep_server.Server.feed conn (Frame.to_string ~kind:Frame.Sealed "garbage")
  in
  expect_error "sealed pre-auth" resp Message.Auth_required

let test_bad_mac_and_replay_rejected () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let conn = Tep_server.Server.conn server in
  let key = handshake conn alice in
  (* sealed with the wrong sequence number (replay/reorder) *)
  let sealed =
    Session.seal ~key ~dir:Session.To_server ~seq:5
      (Message.request_to_string Message.Root_hash)
  in
  let resp =
    Tep_server.Server.feed conn (Frame.to_string ~kind:Frame.Sealed sealed)
  in
  (* the error still arrives sealed: the session key exists *)
  (match open_sealed_resp key ~seq:1 resp with
  | Message.Error_resp { code = Message.Auth_failed; _ } -> ()
  | _ -> Alcotest.fail "expected auth-failed");
  Alcotest.(check string) "connection dead" ""
    (Tep_server.Server.feed conn (clear_frame Message.Root_hash))

(* The retired rid-less Submit tag (0x03) on a live session is a
   malformed request: the peer gets a sealed Bad_request and the
   session dies, exactly like any other undecodable payload. *)
let test_retired_submit_tag_rejected () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let conn = Tep_server.Server.conn server in
  let key = handshake conn alice in
  let op = Buffer.create 32 in
  Message.encode_op op
    (Message.Op_insert { table = "stock"; cells = [| Value.Int 1 |] });
  let sealed =
    Session.seal ~key ~dir:Session.To_server ~seq:0
      (Message.with_cid 1 ("\x03" ^ Buffer.contents op))
  in
  let resp =
    Tep_server.Server.feed conn (Frame.to_string ~kind:Frame.Sealed sealed)
  in
  (match open_sealed_resp key ~seq:1 resp with
  | Message.Error_resp { code = Message.Bad_request; message } ->
      Alcotest.(check string) "message" "malformed request" message
  | _ -> Alcotest.fail "expected bad-request");
  Alcotest.(check int) "nothing executed" 0 (health server alice).Client.h_ops;
  Alcotest.(check string) "connection dead" ""
    (Tep_server.Server.feed conn (clear_frame Message.Root_hash))

let test_clear_frame_post_auth_rejected () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let conn = Tep_server.Server.conn server in
  let _key = handshake conn alice in
  let resp = Tep_server.Server.feed conn (clear_frame Message.Root_hash) in
  match parse_one resp with
  | Frame.Sealed, _ -> () (* sealed error response; connection dies *)
  | _ -> Alcotest.fail "expected a sealed error response"

(* ------------------------------------------------------------------ *)
(* Malformed input and fault injection                                 *)
(* ------------------------------------------------------------------ *)

let test_corrupt_frame_rejected () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let conn = Tep_server.Server.conn server in
  let resp = Tep_server.Server.feed conn "not a frame at all" in
  expect_error "corrupt frame" resp Message.Bad_request;
  Alcotest.(check string) "connection dead" ""
    (Tep_server.Server.feed conn (clear_frame (Message.Query None)))

let test_oversized_frame_rejected () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server ~max_payload:64 engine alice in
  let conn = Tep_server.Server.conn server in
  let resp =
    Tep_server.Server.feed conn
      (Frame.to_string ~kind:Frame.Clear (String.make 100 'x'))
  in
  expect_error "oversized frame" resp Message.Too_large

let test_torn_read_then_recovers () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let conn = Tep_server.Server.conn server in
  Fault.reset ();
  let hello =
    clear_frame (Message.Hello { name = "alice"; nonce = String.make 16 'n' })
  in
  (* half the bytes are torn off in flight: no response yet *)
  Fault.arm "wire.server.read" (Fault.Torn_write 0.5);
  let torn_len = String.length hello / 2 in
  Alcotest.(check string) "torn read: no frame yet" ""
    (Tep_server.Server.feed conn (String.sub hello 0 torn_len));
  Fault.reset ();
  (* the peer retransmits the missing tail; the frame completes *)
  let resp =
    Tep_server.Server.feed conn
      (String.sub hello (torn_len / 2) (String.length hello - torn_len / 2))
  in
  (match parse_one resp with
  | Frame.Clear, payload -> (
      match decode_resp payload with
      | Message.Challenge _ -> ()
      | _ -> Alcotest.fail "expected a challenge after reassembly")
  | _ -> Alcotest.fail "expected a clear challenge")

let test_bit_flip_rejected () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let hello =
    clear_frame (Message.Hello { name = "alice"; nonce = String.make 16 'n' })
  in
  (* A flipped bit in the length field leaves the parser waiting for a
     frame that never completes; a flip anywhere else trips the CRC.
     Either way a corrupted frame must never be accepted, and across a
     handful of deterministic seeds the CRC path must fire. *)
  let rejected = ref 0 in
  for i = 0 to 15 do
    let conn = Tep_server.Server.conn server in
    Fault.reset ();
    Fault.seed (Printf.sprintf "bitflip-%d" i);
    Fault.arm "wire.server.read" Fault.Bit_flip;
    let resp = Tep_server.Server.feed conn hello in
    Fault.reset ();
    match resp with
    | "" -> () (* length garbled: parser is stuck waiting, not fooled *)
    | s -> (
        match parse_one s with
        | Frame.Clear, payload -> (
            match decode_resp payload with
            | Message.Error_resp { code = Message.Bad_request; _ } ->
                incr rejected;
                Alcotest.(check string) "connection dead" ""
                  (Tep_server.Server.feed conn hello)
            | Message.Challenge _ ->
                Alcotest.fail "corrupted frame was accepted"
            | _ -> Alcotest.fail "unexpected response to corrupted frame")
        | _ -> Alcotest.fail "unexpected sealed response")
  done;
  Alcotest.(check bool) "frame CRC fired at least once" true (!rejected > 0)

(* A response that would exceed the frame limit degrades to an
   in-band Too_large error instead of an oversized frame the client
   must treat as abusive; the session stays usable. *)
let test_oversized_response_degrades () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server ~max_payload:220 engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |]));
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 2; Value.Int 20 |]));
  (match Client.query c () with
  | Ok _ -> Alcotest.fail "oversized Records response must not be framed"
  | Error e ->
      Alcotest.(check bool)
        ("too-large error, got: " ^ e)
        true
        (String.length e >= 9 && String.sub e 0 9 = "too-large"));
  (* the connection survives: small responses still flow *)
  Alcotest.(check string) "root hash still served" (Engine.root_hash engine)
    (ok (Client.root_hash c));
  Client.close c

(* ------------------------------------------------------------------ *)
(* Real Unix-domain socket                                             *)
(* ------------------------------------------------------------------ *)

let test_unix_socket_end_to_end () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let path = Filename.temp_file "tep_service" ".sock" in
  Sys.remove path;
  let stop = Stdlib.Atomic.make false in
  let th =
    Thread.create (fun () -> Server.serve_unix server ~path ~stop) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Stdlib.Atomic.set stop true;
      Server.wake server;
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c =
        ok
          (Client.connect_unix
             ~drbg:(Tep_crypto.Drbg.create ~seed:"sock-client")
             path)
      in
      ok (Client.authenticate c alice);
      let _row, records =
        ok (Client.insert c ~table:"stock" [| Value.Int 7; Value.Int 70 |])
      in
      Alcotest.(check bool) "socket insert emits records" true (records > 0);
      let report, _ = ok (Client.verify c ()) in
      Alcotest.(check string) "socket verify byte-identical"
        (local_report engine (Engine.root_oid engine))
        (Message.render_report report);
      Alcotest.(check string) "socket root hash" (Engine.root_hash engine)
        (ok (Client.root_hash c));
      Client.close c)

(* Past max_connections concurrent sockets, new connections are
   rejected with an advisory error instead of being served; the slot
   frees when a connection closes. *)
let test_connection_cap () =
  let engine, _, _, alice, _ = make_env () in
  let server =
    Server.create ~max_connections:1
      ~drbg:(Tep_crypto.Drbg.create ~seed:"cap-server")
      ~participants:[ ("alice", alice) ]
      [ (engine, None) ]
  in
  let path = Filename.temp_file "tep_service_cap" ".sock" in
  Sys.remove path;
  let stop = Stdlib.Atomic.make false in
  let th = Thread.create (fun () -> Server.serve_unix server ~path ~stop) () in
  Fun.protect
    ~finally:(fun () ->
      Stdlib.Atomic.set stop true;
      Server.wake server;
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let connect seed =
        ok
          (Client.connect_unix ~drbg:(Tep_crypto.Drbg.create ~seed) path)
      in
      let c1 = connect "cap-c1" in
      ok (Client.authenticate c1 alice);
      (* the cap is held by c1: a second connection must not succeed *)
      let c2 = connect "cap-c2" in
      (match Client.authenticate c2 alice with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "over-capacity connection must be rejected");
      Client.close c2;
      Client.close c1;
      (* the slot frees once the server notices c1 closed *)
      let rec retry n =
        let c3 = connect (Printf.sprintf "cap-c3-%d" n) in
        match Client.authenticate c3 alice with
        | Ok () -> Client.close c3
        | Error e ->
            Client.close c3;
            if n = 0 then Alcotest.fail ("slot never freed: " ^ e)
            else begin
              Thread.delay 0.05;
              retry (n - 1)
            end
      in
      retry 100)

(* ------------------------------------------------------------------ *)
(* Pipelining and dispatch concurrency                                 *)
(* ------------------------------------------------------------------ *)

let parse_frames s =
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else
      match Frame.parse s off with
      | Frame.Frame { kind; payload; consumed } ->
          go (off + consumed) ((kind, payload) :: acc)
      | _ -> Alcotest.fail "expected a run of complete frames"
  in
  go 0 []

(* Several requests in flight on one connection; responses collected
   newest-first, so the earlier ones must be stashed by correlation
   id and handed out when their own collect comes. *)
let test_pipelined_out_of_order () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  let cid_a =
    ok (Client.insert_async c ~table:"stock" [| Value.Int 1; Value.Int 10 |])
  in
  let cid_b =
    ok (Client.insert_async c ~table:"stock" [| Value.Int 2; Value.Int 20 |])
  in
  let cid_c = ok (Client.request_async c Message.Root_hash) in
  Alcotest.(check bool) "cids distinct" true (cid_a <> cid_b && cid_b <> cid_c);
  (match ok (Client.collect c cid_c) with
  | Message.Root { hash } ->
      Alcotest.(check string) "pipelined root hash" (Engine.root_hash engine)
        hash
  | _ -> Alcotest.fail "expected Root");
  let row_b, _, _ = ok (Client.collect_submitted c cid_b) in
  let row_a, _, _ = ok (Client.collect_submitted c cid_a) in
  (match (row_a, row_b) with
  | Some a, Some b ->
      Alcotest.(check bool) "rows follow request order" true (a < b)
  | _ -> Alcotest.fail "inserts must return rows");
  (* the session survives out-of-order collection; blocking calls and
     the byte-identity acceptance bar still hold on the same wire *)
  let report, _ = ok (Client.verify c ()) in
  Alcotest.(check string) "verify byte-identical after pipelining"
    (local_report engine (Engine.root_oid engine))
    (Message.render_report report);
  Client.close c

(* Two pipelined Submits arriving in one input chunk must coalesce
   into a single group commit (one signing pass, one WAL unit), while
   each response still echoes its own correlation id. *)
let test_pipelined_submits_coalesce () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let conn = Tep_server.Server.conn server in
  let key = handshake conn alice in
  let submit cid seq cells =
    let op = Message.Op_insert { table = "stock"; cells } in
    let msg =
      Message.with_cid cid
        (Message.request_to_string
           (Message.Submit_idem { rid = Printf.sprintf "coalesce-%d" cid; op }))
    in
    Frame.to_string ~kind:Frame.Sealed
      (Session.seal ~key ~dir:Session.To_server ~seq msg)
  in
  let chunk =
    submit 1 0 [| Value.Int 1; Value.Int 10 |]
    ^ submit 2 1 [| Value.Int 2; Value.Int 20 |]
  in
  let before, before_shards = counters server alice in
  let frames = parse_frames (Tep_server.Server.feed conn chunk) in
  Alcotest.(check int) "two responses" 2 (List.length frames);
  List.iteri
    (fun i (kind, payload) ->
      if kind <> Frame.Sealed then Alcotest.fail "expected sealed responses";
      (* the server's seq 0 went to Auth_ok *)
      match Session.open_ ~key ~dir:Session.To_client ~seq:(i + 1) payload with
      | Error e -> Alcotest.fail ("response failed to open: " ^ e)
      | Ok msg -> (
          match Message.read_cid msg with
          | None -> Alcotest.fail "response missing correlation id"
          | Some (cid, off) -> (
              Alcotest.(check int) "cid echoes request order" (i + 1) cid;
              match fst (Message.decode_response msg off) with
              | Message.Submitted { row = Some _; records; _ } ->
                  Alcotest.(check bool) "records emitted" true (records > 0)
              | _ -> Alcotest.fail "expected Submitted")))
    frames;
  let after, after_shards = counters server alice in
  Alcotest.(check int) "one group commit" 1
    (after.Client.h_batches - before.Client.h_batches);
  Alcotest.(check int) "carrying both ops" 2
    (after.Client.h_ops - before.Client.h_ops);
  (match (before_shards, after_shards) with
  | [ b ], [ a ] ->
      Alcotest.(check bool) "signing time recorded" true
        (a.Message.ss_sign_wall_us > b.Message.ss_sign_wall_us
        && a.Message.ss_sign_cpu_us > b.Message.ss_sign_cpu_us)
  | _ -> Alcotest.fail "expected one shard");
  (* one commit, yet both rows have provenance the verifier accepts *)
  match Engine.verify_object engine (Engine.root_oid engine) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("verify after coalesced commit: " ^ e)

(* The read/write split: a verify held in flight (slow-verify
   failpoint) must not serialise other connections' read-only
   requests behind it.  Under the old single-mutex dispatch the root
   hash below would wait out the full delay. *)
let test_concurrent_readers_not_serialised () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let c1 = make_client server in
  let c2 =
    Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"client-reader") server
  in
  ok (Client.authenticate c1 alice);
  ok (Client.authenticate c2 alice);
  ignore (ok (Client.insert c1 ~table:"stock" [| Value.Int 1; Value.Int 10 |]));
  Fault.reset ();
  Fault.arm "server.dispatch.verify" (Fault.Delay 0.4);
  let verify_done = ref 0. in
  let th =
    Thread.create
      (fun () ->
        let report, _ = ok (Client.verify c1 ()) in
        verify_done := Unix.gettimeofday ();
        Alcotest.(check bool) "slow verify still clean" true
          (Message.report_ok report))
      ()
  in
  Thread.delay 0.1;
  (* the verify is now asleep inside the shared read lock *)
  let t0 = Unix.gettimeofday () in
  Alcotest.(check string) "root hash served during the verify"
    (Engine.root_hash engine)
    (ok (Client.root_hash c2));
  ignore (ok (Client.query c2 ()));
  let reads_done = Unix.gettimeofday () in
  Thread.join th;
  Fault.reset ();
  Alcotest.(check bool) "reads overlapped the in-flight verify" true
    (reads_done -. t0 < 0.25 && reads_done < !verify_done)

(* Ping is lock-light: it reads atomics only, never a shard's rwlock,
   so it answers while a commit holds the write lock.  The commit is
   held in its signing stage (a delay on [engine.commit.sign]); a
   second client's Ping must return before that commit does.  Only
   the order is checked, not how long anything took. *)
let test_ping_during_commit () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let c1 = make_client server in
  let c2 =
    Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"client-ping") server
  in
  ok (Client.authenticate c1 alice);
  ok (Client.authenticate c2 alice);
  let site = "engine.commit.sign" in
  Fault.reset ();
  Fault.arm site (Fault.Delay 1.0);
  let committed = Stdlib.Atomic.make false in
  let inserted = ref (Error "the writer never ran") in
  let writer =
    Thread.create
      (fun () ->
        inserted :=
          Client.insert c1 ~table:"stock" [| Value.Int 1; Value.Int 10 |];
        Stdlib.Atomic.set committed true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while Fault.hit_count site < 1 && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  let reached = Fault.hit_count site >= 1 in
  let h = ok (Client.ping c2) in
  let answered_first = not (Stdlib.Atomic.get committed) in
  Thread.join writer;
  Fault.reset ();
  Alcotest.(check bool) "commit reached its signing stage" true reached;
  Alcotest.(check bool) "Ping answered before the commit finished" true
    answered_first;
  Alcotest.(check int) "the in-flight batch is already counted" 1
    h.Client.h_batches;
  Alcotest.(check int) "its op left the queue" 0 h.Client.queued_ops;
  ignore (ok !inserted);
  Client.close c1;
  Client.close c2

(* Root_hash reads each shard's published root without a lock, so it
   answers while a commit holds the write lock, with the root of the
   last commit.  Set up like "ping during commit", after an earlier
   write whose root no read has fetched yet. *)
let test_root_hash_during_commit () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let c1 = make_client server in
  let c2 =
    Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"client-root") server
  in
  ok (Client.authenticate c1 alice);
  ok (Client.authenticate c2 alice);
  ignore (ok (Client.insert c1 ~table:"stock" [| Value.Int 1; Value.Int 10 |]));
  let committed_root = Engine.root_hash engine in
  let site = "engine.commit.sign" in
  Fault.reset ();
  Fault.arm site (Fault.Delay 1.0);
  let committed = Stdlib.Atomic.make false in
  let inserted = ref (Error "the writer never ran") in
  let writer =
    Thread.create
      (fun () ->
        inserted :=
          Client.insert c1 ~table:"stock" [| Value.Int 2; Value.Int 20 |];
        Stdlib.Atomic.set committed true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while Fault.hit_count site < 1 && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  let reached = Fault.hit_count site >= 1 in
  let root = ok (Client.root_hash c2) in
  let answered_first = not (Stdlib.Atomic.get committed) in
  Thread.join writer;
  Fault.reset ();
  Alcotest.(check bool) "commit reached its signing stage" true reached;
  Alcotest.(check bool) "Root_hash answered before the commit finished" true
    answered_first;
  Alcotest.(check string) "the root of the last commit" committed_root root;
  ignore (ok !inserted);
  Alcotest.(check string) "then the new commit's root" (Engine.root_hash engine)
    (ok (Client.root_hash c2));
  Client.close c1;
  Client.close c2

(* A server that owns its durability: one shard over a WAL in a fresh
   directory, checkpointed once while empty so that recovery has a
   generation to start from. *)
let durable_env seed =
  let drbg = Tep_crypto.Drbg.create ~seed in
  let ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"CA" drbg in
  let directory =
    Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
  in
  let alice = Participant.create ~bits:512 ~ca ~name:"alice" drbg in
  Participant.Directory.register directory alice;
  let db = Database.create ~name:"svc" in
  ignore
    (Database.create_table db ~name:"stock" (Schema.all_int [ "sku"; "qty" ]));
  let dir = Filename.temp_file seed "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let wal = Wal.open_file (Filename.concat dir "wal.log") in
  let engine = Engine.create ~wal ~directory db in
  ignore (ok (Recovery.checkpoint ~dir ~wal engine));
  (directory, alice, dir, wal, engine)

(* What `provdb recover` does once the daemon is gone: close the old
   log, then rebuild the engine from the newest generation and the WAL
   tail. *)
let recover_from ~directory ~dir wal =
  Wal.close wal;
  let engine, wal, report = ok (Recovery.recover ~dir ~directory ()) in
  Alcotest.(check bool) "recovered hash verified" true
    report.Recovery.hash_verified;
  (engine, wal)

(* A fenced shard refuses the request as wal-failed, naming the way
   out. *)
let check_fenced what = function
  | Ok _ -> Alcotest.failf "%s answered by a fenced shard" what
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s refused naming provdb recover, got: %s" what e)
        true
        (contains e "wal-failed" && contains e "provdb recover")

(* Group commit atomicity: while every WAL flush fails, submits from
   two concurrent connections must all be rejected — durability cannot
   be confirmed for any op of a failing batch.  The engine's memory
   already holds them, so the shard is fenced until recovery, which
   comes back without them and takes new writes. *)
let test_group_commit_wal_failure_atomic () =
  let directory, alice, dir, wal, engine = durable_env "service-gc" in
  let server = make_server ~checkpoint:(dir, wal) engine alice in
  let c1 = make_client server in
  let c2 =
    Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"client-2") server
  in
  ok (Client.authenticate c1 alice);
  ok (Client.authenticate c2 alice);
  Fault.reset ();
  Fault.arm "wal.flush" (Fault.Transient 50);
  let r1 = ref (Error "unset") and r2 = ref (Error "unset") in
  let th1 =
    Thread.create
      (fun () ->
        r1 := Client.insert c1 ~table:"stock" [| Value.Int 1; Value.Int 10 |])
      ()
  in
  let th2 =
    Thread.create
      (fun () ->
        r2 := Client.insert c2 ~table:"stock" [| Value.Int 2; Value.Int 20 |])
      ()
  in
  Thread.join th1;
  Thread.join th2;
  Fault.reset ();
  (match (!r1, !r2) with
  | Error _, Error _ -> ()
  | _ -> Alcotest.fail "a submit survived a failing WAL flush");
  (* fenced: the next submit and a read are refused *)
  check_fenced "insert"
    (Client.insert c1 ~table:"stock" [| Value.Int 3; Value.Int 30 |]);
  check_fenced "verify" (Client.verify c1 ());
  Client.close c1;
  Client.close c2;
  (* recovered: neither failed op, and the rebuilt engine is usable *)
  let recovered, rwal = recover_from ~directory ~dir wal in
  Alcotest.(check int) "no failed op recovered" 0 (stock_rows recovered);
  let server = make_server ~checkpoint:(dir, rwal) recovered alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  let _row, records =
    ok (Client.insert c ~table:"stock" [| Value.Int 3; Value.Int 30 |])
  in
  Alcotest.(check bool) "recovered engine takes writes" true (records > 0);
  let report, _ = ok (Client.verify c ()) in
  Alcotest.(check bool) "verify clean after recovery" true
    (Message.report_ok report);
  Client.close c;
  Wal.close rwal

(* Connect retry backoff: reproducible from the client's DRBG seed,
   decorrelated between seeds, pinned to the historical 2^i schedule
   when no DRBG is supplied, always within the +/-50% jitter window. *)
let test_retry_jitter_deterministic () =
  List.iteri
    (fun i d ->
      Alcotest.(check (float 1e-9))
        "no drbg: historical schedule"
        (0.05 *. (2. ** float_of_int i))
        d)
    (Client.retry_delays ());
  let schedule seed =
    Client.retry_delays ~drbg:(Tep_crypto.Drbg.create ~seed) ()
  in
  let a = schedule "jitter-a" in
  Alcotest.(check (list (float 1e-12)))
    "same seed, same schedule" a (schedule "jitter-a");
  Alcotest.(check bool) "different seeds decorrelate" true
    (a <> schedule "jitter-b");
  List.iteri
    (fun i d ->
      let base = 0.05 *. (2. ** float_of_int i) in
      Alcotest.(check bool)
        "jitter stays within [0.5x, 1.5x)" true
        (d >= 0.5 *. base && d < 1.5 *. base))
    a

(* ------------------------------------------------------------------ *)
(* Fault tolerance: dedup, admission, breaker, drain, capacity         *)
(* ------------------------------------------------------------------ *)

(* A blind client retry of a write it already got an answer for: the
   dedup table must replay the cached response, not the operation. *)
let test_duplicate_request_id () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  let before = ok (Client.ping c) in
  let row1, _, _ = ok (Client.submit_idem c ~rid:"dup-0" (op_insert 1 10)) in
  let row2, _, _ = ok (Client.submit_idem c ~rid:"dup-0" (op_insert 1 10)) in
  Alcotest.(check (option int)) "retry echoes the cached row" row1 row2;
  Alcotest.(check int) "executed exactly once" 1 (stock_rows engine);
  let after = ok (Client.ping c) in
  Alcotest.(check int) "dedup hit visible in Ping" 1
    (after.Client.dedup_hits - before.Client.dedup_hits);
  Alcotest.(check int) "only one op reached the engine" 1
    (after.Client.h_ops - before.Client.h_ops);
  Client.close c

(* Two requests with the same rid inside one pipelined chunk: the
   second must alias the first's slot within the batch instead of
   deadlocking on its own pending entry or executing twice. *)
let test_duplicate_rid_in_one_batch () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let conn = Tep_server.Server.conn server in
  let key = handshake conn alice in
  let submit cid seq =
    let msg =
      Message.with_cid cid
        (Message.request_to_string
           (Message.Submit_idem { rid = "batch-dup"; op = op_insert 1 10 }))
    in
    Frame.to_string ~kind:Frame.Sealed
      (Session.seal ~key ~dir:Session.To_server ~seq msg)
  in
  let frames =
    parse_frames (Tep_server.Server.feed conn (submit 1 0 ^ submit 2 1))
  in
  Alcotest.(check int) "two responses" 2 (List.length frames);
  let rows =
    List.mapi
      (fun i (kind, payload) ->
        if kind <> Frame.Sealed then Alcotest.fail "expected sealed responses";
        match Session.open_ ~key ~dir:Session.To_client ~seq:(i + 1) payload with
        | Error e -> Alcotest.fail ("response failed to open: " ^ e)
        | Ok msg -> (
            match Message.read_cid msg with
            | None -> Alcotest.fail "response missing correlation id"
            | Some (_, off) -> (
                match fst (Message.decode_response msg off) with
                | Message.Submitted { row = Some r; _ } -> r
                | _ -> Alcotest.fail "expected Submitted")))
      frames
  in
  (match rows with
  | [ a; b ] -> Alcotest.(check int) "duplicate aliases the same row" a b
  | _ -> assert false);
  Alcotest.(check int) "executed exactly once" 1 (stock_rows engine);
  let h = health server alice in
  Alcotest.(check int) "in-batch alias counted as a dedup hit" 1
    h.Client.dedup_hits;
  Alcotest.(check int) "one op committed" 1 h.Client.h_ops

(* A WAL flush failure must surface as its typed wire error and tick
   the wal_failures counter — an operator can tell a sick disk from a
   logic bug without reading logs.  The shard is then fenced: Ping and
   Shard_stats still answer, every other request is refused naming
   `provdb recover`, and recovery comes back without the failed op. *)
let test_wal_failure_typed_and_counted () =
  let directory, alice, dir, wal, engine = durable_env "service-walfail" in
  let server = make_server ~checkpoint:(dir, wal) engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  Fault.reset ();
  Fault.arm "wal.flush" (Fault.Transient 10);
  (match Client.submit_idem c ~rid:"wal-0" (op_insert 1 10) with
  | Ok _ -> Alcotest.fail "a submit survived a failing WAL flush"
  | Error e ->
      Alcotest.(check bool)
        ("typed wal error, got: " ^ e)
        true (contains e "wal"));
  Fault.reset ();
  let h = ok (Client.ping c) in
  Alcotest.(check int) "wal failure counted in Ping" 1 h.Client.wal_failures;
  ignore (ok (Client.shard_stats c));
  (* a wal-failed outcome must NOT be cached in the dedup table: the
     client was told nothing durable happened, so the same rid retried
     re-executes — and meets the fence *)
  check_fenced "retry" (Client.submit_idem c ~rid:"wal-0" (op_insert 1 10));
  let h = ok (Client.ping c) in
  Alcotest.(check int) "the retry re-executed (no dedup replay)" 0
    h.Client.dedup_hits;
  Alcotest.(check int) "a refusal is not a WAL failure" 1 h.Client.wal_failures;
  check_fenced "root hash" (Client.root_hash c);
  check_fenced "verify" (Client.verify c ());
  check_fenced "checkpoint" (Client.checkpoint c);
  Client.close c;
  Alcotest.(check int) "the fenced engine still holds the failed op" 1
    (stock_rows engine);
  let recovered, rwal = recover_from ~directory ~dir wal in
  Alcotest.(check int) "recovery drops the failed op" 0 (stock_rows recovered);
  Wal.close rwal

(* Exactly once across a WAL failure: the failed attempt's frames
   never reach the log, so after recovery the same rid retried against
   a fresh server applies the write once, and a second recovery finds
   that one row. *)
let test_wal_failed_retry_applies_once () =
  let directory, alice, dir, wal, engine = durable_env "service-walonce" in
  let server = make_server ~checkpoint:(dir, wal) engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  Fault.reset ();
  Fault.arm "wal.flush" (Fault.Transient 10);
  (match Client.submit_idem c ~rid:"wal-0" (op_insert 1 10) with
  | Ok _ -> Alcotest.fail "a submit survived a failing WAL flush"
  | Error _ -> ());
  Fault.reset ();
  Client.close c;
  let recovered, rwal = recover_from ~directory ~dir wal in
  let server = make_server ~checkpoint:(dir, rwal) recovered alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  ignore (ok (Client.submit_idem c ~rid:"wal-0" (op_insert 1 10)));
  Client.close c;
  Alcotest.(check int) "one row after the retry" 1 (stock_rows recovered);
  let again, wal2 = recover_from ~directory ~dir rwal in
  Alcotest.(check int) "one row after a second recovery" 1 (stock_rows again);
  Wal.close wal2

(* Admission control: a shed write carries the typed overload error
   with the retry hint, ticks the shed counter, and never blocks
   reads; lifting the limit restores writes. *)
let test_admission_shed_and_recover () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  Server.set_admission ~max_queue_ops:(-1) ~retry_after_ms:7 server;
  (match Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |] with
  | Ok _ -> Alcotest.fail "shed-all admission accepted a write"
  | Error e ->
      Alcotest.(check bool)
        ("typed overload with retry hint, got: " ^ e)
        true
        (contains e "overloaded" && contains e "retry after 7 ms"));
  let h = ok (Client.ping c) in
  Alcotest.(check int) "shed counted in Ping" 1 h.Client.shed;
  Alcotest.(check string) "reads are never shed" (Engine.root_hash engine)
    (ok (Client.root_hash c));
  Server.set_admission ~max_queue_ops:512 server;
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |]));
  Alcotest.(check int) "write accepted once admission recovers" 1
    (stock_rows engine);
  Client.close c

(* The client circuit breaker: consecutive overload rejections trip
   it, tripped writes fail fast without touching the server, a failed
   half-open probe re-opens it, a successful probe closes it. *)
let test_circuit_breaker () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  let clock = ref 1000.0 in
  Client.set_breaker ~threshold:2 ~cooldown:10.0 ~now:(fun () -> !clock) c;
  Server.set_admission ~max_queue_ops:(-1) server;
  let must_fail label =
    match Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |] with
    | Ok _ -> Alcotest.fail (label ^ ": write must fail")
    | Error e -> e
  in
  ignore (must_fail "shed 1");
  ignore (must_fail "shed 2");
  Alcotest.(check bool) "two consecutive rejections trip the breaker" true
    (Client.breaker_state c = `Open);
  let e = must_fail "tripped" in
  Alcotest.(check bool)
    ("tripped writes fail fast, got: " ^ e)
    true
    (contains e "circuit breaker");
  let h = ok (Client.ping c) in
  Alcotest.(check int) "the fast-fail never reached the server" 2
    h.Client.shed;
  Alcotest.(check string) "reads bypass the breaker" (Engine.root_hash engine)
    (ok (Client.root_hash c));
  (* cooldown elapses; the half-open probe hits a still-shedding
     server and re-opens the breaker *)
  clock := !clock +. 11.0;
  let e = must_fail "failed probe" in
  Alcotest.(check bool)
    ("the probe reached the server, got: " ^ e)
    true (contains e "overloaded");
  Alcotest.(check bool) "failed probe re-opens" true
    (Client.breaker_state c = `Open);
  (* next cooldown: the server has recovered; the probe succeeds and
     the breaker closes *)
  Server.set_admission ~max_queue_ops:512 server;
  clock := !clock +. 11.0;
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 2; Value.Int 20 |]));
  Alcotest.(check bool) "successful probe closes the breaker" true
    (Client.breaker_state c = `Closed);
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 3; Value.Int 30 |]));
  Client.close c

(* Drain: a draining server refuses new writes with the terminal
   shutting-down error (not the retryable overload), keeps serving
   reads and health probes, and quiesces. *)
let test_drain_refuses_writes () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |]));
  Server.begin_drain server;
  (match Client.insert c ~table:"stock" [| Value.Int 2; Value.Int 20 |] with
  | Ok _ -> Alcotest.fail "draining server accepted a write"
  | Error e ->
      Alcotest.(check bool)
        ("terminal shutting-down error, got: " ^ e)
        true (contains e "draining"));
  Alcotest.(check string) "reads stay up during the drain"
    (Engine.root_hash engine)
    (ok (Client.root_hash c));
  let h = ok (Client.ping c) in
  Alcotest.(check bool) "pong reports the drain" true
    (h.Client.draining && not h.Client.ready);
  Alcotest.(check bool) "quiesce settles" true (Server.quiesce ~timeout:2. server);
  Alcotest.(check int) "no write leaked past the drain" 1 (stock_rows engine);
  Client.close c

(* Connection dropped mid-submit, over a real socket: the crash
   failpoint kills the server side of the connection on the next bytes
   it reads, so the client's write is in flight when the transport
   dies.  The client must transparently reconnect, re-authenticate and
   replay the idempotent write — exactly once. *)
let test_reconnect_replays_dropped_submit () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  let path = Filename.temp_file "tep_service_drop" ".sock" in
  Sys.remove path;
  let stop = Stdlib.Atomic.make false in
  let th = Thread.create (fun () -> Server.serve_unix server ~path ~stop) () in
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      Stdlib.Atomic.set stop true;
      Server.wake server;
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c =
        ok
          (Client.connect_unix
             ~drbg:(Tep_crypto.Drbg.create ~seed:"drop-client")
             path)
      in
      ok (Client.authenticate c alice);
      ignore
        (ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |]));
      Fault.reset ();
      Fault.arm "wire.server.read" Fault.Crash_point;
      let row, _, _ = ok (Client.submit_idem c ~rid:"drop-0" (op_insert 2 20)) in
      Fault.reset ();
      Alcotest.(check bool) "replayed insert returns a row" true (row <> None);
      Alcotest.(check int) "exactly once across the drop" 2 (stock_rows engine);
      (* the replayed session is fully usable *)
      Alcotest.(check string) "root hash after the replay"
        (Engine.root_hash engine)
        (ok (Client.root_hash c));
      Client.close c)

(* Regression for the capacity-accounting leak: every connection exit
   path — clean close, over-capacity rejection, handler death — must
   return its slot, so the active gauge settles back to zero and the
   capacity stays usable. *)
let test_capacity_returns_to_zero () =
  let engine, _, _, alice, _ = make_env () in
  let server =
    Server.create ~max_connections:2
      ~drbg:(Tep_crypto.Drbg.create ~seed:"cap0-server")
      ~participants:[ ("alice", alice) ]
      [ (engine, None) ]
  in
  let path = Filename.temp_file "tep_service_cap0" ".sock" in
  Sys.remove path;
  let stop = Stdlib.Atomic.make false in
  let th = Thread.create (fun () -> Server.serve_unix server ~path ~stop) () in
  Fun.protect
    ~finally:(fun () ->
      Stdlib.Atomic.set stop true;
      Server.wake server;
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let connect seed =
        ok (Client.connect_unix ~drbg:(Tep_crypto.Drbg.create ~seed) path)
      in
      (* a freed slot may take a beat to release: retry the connect *)
      let rec auth_connect seed n =
        let c = connect (Printf.sprintf "%s-%d" seed n) in
        match Client.authenticate c alice with
        | Ok () -> c
        | Error e ->
            Client.close c;
            if n = 0 then Alcotest.fail ("no capacity: " ^ e)
            else begin
              Thread.delay 0.05;
              auth_connect seed (n - 1)
            end
      in
      for round = 0 to 2 do
        let c1 = auth_connect (Printf.sprintf "cap0-a%d" round) 100 in
        let c2 = auth_connect (Printf.sprintf "cap0-b%d" round) 100 in
        (* both slots held: the next connection is rejected — and its
           rejection must not consume a slot *)
        let c3 = connect (Printf.sprintf "cap0-c%d" round) in
        (match Client.authenticate c3 alice with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "over-capacity connection accepted");
        Client.close c3;
        Client.close c2;
        Client.close c1
      done;
      let rec settle n =
        if Server.active_connections server = 0 then ()
        else if n = 0 then
          Alcotest.failf "connection slots leaked: %d still held"
            (Server.active_connections server)
        else begin
          Thread.delay 0.05;
          settle (n - 1)
        end
      in
      settle 100;
      (* the freed capacity is actually usable *)
      let c = auth_connect "cap0-final" 100 in
      Client.close c)

(* Three loopback clients, each streaming 20 inserts with up to 5 in
   flight, race through one server.  Returns every request's outcome;
   the breaker is lifted so that an overload answer reaches the caller
   as the server's typed error, never as a local fast-fail. *)
let pipelined_burst ~seed server alice =
  let clients = 3 and per_client = 20 and window = 5 in
  let outcomes = Array.make clients [] in
  let run ci =
    let c =
      Client.loopback
        ~drbg:(Tep_crypto.Drbg.create ~seed:(Printf.sprintf "%s-%d" seed ci))
        server
    in
    Client.set_breaker ~threshold:max_int c;
    let out = ref [] in
    (match Client.authenticate c alice with
    | Error e -> out := [ Error ("auth: " ^ e) ]
    | Ok () ->
        let inflight = Queue.create () in
        let collect () =
          out :=
            Result.map ignore (Client.collect_submitted c (Queue.pop inflight))
            :: !out
        in
        for i = 0 to per_client - 1 do
          (match
             Client.insert_async c ~table:"stock" [| Value.Int ci; Value.Int i |]
           with
          | Ok cid -> Queue.push cid inflight
          | Error e -> out := Error e :: !out);
          if Queue.length inflight >= window then collect ()
        done;
        while not (Queue.is_empty inflight) do
          collect ()
        done);
    Client.close c;
    outcomes.(ci) <- !out
  in
  List.iter Thread.join (List.init clients (Thread.create run));
  List.concat (Array.to_list outcomes)

(* Overlapping submits from concurrent pipelined clients all land in
   group commits, and the history they leave verifies over the wire
   byte-identically to the in-process verifier, before and after
   tampering.  The same burst against a 4-op admission queue may be
   shed, but only with the typed overload error, and every refused
   request is counted.  Whether the burst overruns the queue is up to
   the scheduler, so nothing asserts that shedding happened. *)
let test_concurrent_pipelined_clients () =
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  List.iter ok (pipelined_burst ~seed:"pipe" server alice);
  Alcotest.(check int) "every op through the batcher" 60
    (health server alice).Client.h_ops;
  let c = make_client server in
  ok (Client.authenticate c alice);
  let report, _ = ok (Client.verify c ()) in
  Alcotest.(check bool) "pipelined history verifies" true
    (Message.report_ok report);
  Alcotest.(check string) "report byte-identical"
    (local_report engine (Engine.root_oid engine))
    (Message.render_report report);
  tamper_first_cell engine;
  let report, _ = ok (Client.verify c ()) in
  Alcotest.(check bool) "tampering detected" false (Message.report_ok report);
  Alcotest.(check string) "tamper report byte-identical"
    (local_report engine (Engine.root_oid engine))
    (Message.render_report report);
  Client.close c;
  let engine, _, _, alice, _ = make_env () in
  let server = make_server engine alice in
  Server.set_admission ~max_queue_ops:4 server;
  let failures =
    List.filter_map
      (function Ok () -> None | Error e -> Some e)
      (pipelined_burst ~seed:"shed" server alice)
  in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        ("only typed overload errors, got: " ^ e)
        true (contains e "overloaded"))
    failures;
  Alcotest.(check int) "every failure counted as shed" (List.length failures)
    (health server alice).Client.shed

let () =
  Alcotest.run "service"
    [
      ( "loopback",
        [
          Alcotest.test_case "session end-to-end" `Quick test_loopback_session;
          Alcotest.test_case "tamper detected" `Quick
            test_loopback_tamper_detected;
          Alcotest.test_case "checkpoint rpc" `Quick test_checkpoint_rpc;
        ] );
      ( "auth",
        [
          Alcotest.test_case "unknown participant" `Quick
            test_auth_unknown_participant;
          Alcotest.test_case "wrong key" `Quick test_auth_wrong_key;
          Alcotest.test_case "key not derivable from wire" `Quick
            test_key_not_derivable_from_wire;
          Alcotest.test_case "bad key share" `Quick test_bad_key_share_rejected;
          Alcotest.test_case "tampered key share" `Quick
            test_tampered_key_share_rejected;
          Alcotest.test_case "pre-auth request" `Quick
            test_pre_auth_request_rejected;
          Alcotest.test_case "pre-auth sealed frame" `Quick
            test_sealed_frame_pre_auth_rejected;
          Alcotest.test_case "bad MAC / replay" `Quick
            test_bad_mac_and_replay_rejected;
          Alcotest.test_case "clear frame post-auth" `Quick
            test_clear_frame_post_auth_rejected;
          Alcotest.test_case "retired submit tag" `Quick
            test_retired_submit_tag_rejected;
        ] );
      ( "faults",
        [
          Alcotest.test_case "corrupt frame" `Quick test_corrupt_frame_rejected;
          Alcotest.test_case "oversized frame" `Quick
            test_oversized_frame_rejected;
          Alcotest.test_case "torn read" `Quick test_torn_read_then_recovers;
          Alcotest.test_case "bit flip" `Quick test_bit_flip_rejected;
          Alcotest.test_case "oversized response degrades" `Quick
            test_oversized_response_degrades;
        ] );
      ( "socket",
        [
          Alcotest.test_case "unix socket end-to-end" `Quick
            test_unix_socket_end_to_end;
          Alcotest.test_case "connection cap" `Quick test_connection_cap;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "out-of-order collect" `Quick
            test_pipelined_out_of_order;
          Alcotest.test_case "submits coalesce" `Quick
            test_pipelined_submits_coalesce;
          Alcotest.test_case "concurrent readers" `Quick
            test_concurrent_readers_not_serialised;
          Alcotest.test_case "ping during commit" `Quick test_ping_during_commit;
          Alcotest.test_case "root hash during commit" `Quick
            test_root_hash_during_commit;
          Alcotest.test_case "group-commit WAL failure" `Quick
            test_group_commit_wal_failure_atomic;
          Alcotest.test_case "retry jitter" `Quick
            test_retry_jitter_deterministic;
          Alcotest.test_case "concurrent pipelined clients" `Quick
            test_concurrent_pipelined_clients;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "duplicate request id" `Quick
            test_duplicate_request_id;
          Alcotest.test_case "duplicate rid in one batch" `Quick
            test_duplicate_rid_in_one_batch;
          Alcotest.test_case "wal-failed retry applies once" `Quick
            test_wal_failed_retry_applies_once;
          Alcotest.test_case "wal failure typed + counted" `Quick
            test_wal_failure_typed_and_counted;
          Alcotest.test_case "admission shedding" `Quick
            test_admission_shed_and_recover;
          Alcotest.test_case "circuit breaker" `Quick test_circuit_breaker;
          Alcotest.test_case "drain refuses writes" `Quick
            test_drain_refuses_writes;
          Alcotest.test_case "reconnect replays dropped submit" `Quick
            test_reconnect_replays_dropped_submit;
          Alcotest.test_case "capacity returns to zero" `Quick
            test_capacity_returns_to_zero;
        ] );
    ]
