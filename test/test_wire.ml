(* Wire protocol unit + property tests: frame round-trips and
   incremental parsing, the chunked frame reader against one-shot
   parsing, streaming-CRC equivalence, session sealing
   (tamper / replay / reflection rejection), request/response codec
   round-trips over every variant, and byte-level mutation fuzz —
   a corrupted frame must be rejected, never surface as valid. *)
open Tep_store
open Tep_tree
open Tep_core
open Tep_wire

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let payloads =
  [ ""; "x"; "hello world"; String.make 1000 '\x00'; "\xff\x00TW1\x00" ]

let test_frame_roundtrip () =
  List.iter
    (fun kind ->
      List.iter
        (fun p ->
          let s = Frame.to_string ~kind p in
          match Frame.parse s 0 with
          | Frame.Frame { kind = k; payload; consumed } ->
              Alcotest.(check bool) "kind" true (k = kind);
              Alcotest.(check string) "payload" p payload;
              Alcotest.(check int) "consumed" (String.length s) consumed
          | _ -> Alcotest.fail "expected a complete frame")
        payloads)
    [ Frame.Clear; Frame.Sealed ]

let test_frame_incremental () =
  let s = Frame.to_string ~kind:Frame.Clear "incremental payload" in
  (* every strict prefix wants more bytes; the full string parses *)
  for n = 0 to String.length s - 1 do
    match Frame.parse (String.sub s 0 n) 0 with
    | Frame.Need_more k ->
        Alcotest.(check bool) "need positive" true (k > 0);
        Alcotest.(check bool) "never overshoots" true
          (k <= String.length s - n)
    | _ -> Alcotest.fail (Printf.sprintf "prefix %d should need more" n)
  done;
  (* two frames back to back parse in sequence from an offset *)
  let s2 = s ^ Frame.to_string ~kind:Frame.Sealed "second" in
  match Frame.parse s2 0 with
  | Frame.Frame { consumed; _ } -> (
      match Frame.parse s2 consumed with
      | Frame.Frame { payload; _ } ->
          Alcotest.(check string) "second frame" "second" payload
      | _ -> Alcotest.fail "second frame should parse")
  | _ -> Alcotest.fail "first frame should parse"

let test_frame_oversized () =
  let s = Frame.to_string ~kind:Frame.Clear (String.make 100 'a') in
  match Frame.parse ~max_payload:50 s 0 with
  | Frame.Oversized n -> Alcotest.(check int) "declared length" 100 n
  | _ -> Alcotest.fail "expected Oversized"

let test_frame_bad_magic () =
  (match Frame.parse "XXXXXXXXXXXX" 0 with
  | Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic must be Corrupt");
  match Frame.parse "TW1Zxxxxxxxxx" 0 with
  | Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad kind must be Corrupt"

(* Any single byte mutation of a valid frame must never parse back to
   the original payload — and must never raise. *)
let prop_frame_mutation =
  QCheck2.Test.make ~name:"frame byte mutation never yields the payload"
    ~count:1000
    QCheck2.Gen.(
      triple
        (string_size ~gen:char (int_range 0 60))
        (int_range 0 1_000_000) (int_range 1 255))
    (fun (payload, pos, delta) ->
      let s = Frame.to_string ~kind:Frame.Clear payload in
      let pos = pos mod String.length s in
      let mutated =
        String.mapi
          (fun i c ->
            if i = pos then Char.chr ((Char.code c + delta) land 0xff) else c)
          s
      in
      match Frame.parse mutated 0 with
      | Frame.Frame { payload = p; _ } -> p <> payload
      | Frame.Need_more _ | Frame.Oversized _ | Frame.Corrupt _ -> true)

(* ------------------------------------------------------------------ *)
(* Frame reader                                                        *)
(* ------------------------------------------------------------------ *)

let reader_max = 256

(* What one-shot [Frame.parse] makes of a whole stream: its frames in
   order, then the outcome that stopped it ([Need_more] at the end). *)
let parse_all s =
  let rec go off acc =
    match Frame.parse ~max_payload:reader_max s off with
    | Frame.Frame { kind; payload; consumed } ->
        go (off + consumed) ((kind, payload) :: acc)
    | stop -> (List.rev acc, stop)
  in
  go 0 []

(* The same stream pushed into a reader in chunks of the given sizes
   (the rest in one piece once they run out), pulling after each push. *)
let read_chunked s chunks =
  let r = Frame.reader ~max_payload:reader_max () in
  let rec drain acc =
    match Frame.pull r with
    | Frame.Frame { kind; payload; _ } -> drain ((kind, payload) :: acc)
    | stop -> (acc, stop)
  in
  let rec go off chunks acc =
    match drain acc with
    | acc, Frame.Need_more _ when off < String.length s ->
        let left = String.length s - off in
        let n, rest =
          match chunks with c :: rest -> (min c left, rest) | [] -> (left, [])
        in
        Frame.push r (String.sub s off n);
        go (off + n) rest acc
    | acc, stop -> (List.rev acc, stop)
  in
  go 0 chunks []

(* Valid frames, optionally with one oversized frame inserted or one
   byte of one frame flipped, split into arbitrary chunks: the reader
   must yield exactly the frames, and stop with exactly the outcome,
   of one-shot parsing. *)
let prop_reader_chunking =
  QCheck2.Test.make ~name:"chunked reader = one-shot parse" ~count:500
    QCheck2.Gen.(
      let frame =
        pair bool (string_size ~gen:char (int_range 0 reader_max))
      in
      let damage =
        oneof
          [
            pure `None;
            map2 (fun i n -> `Oversized (i, n)) nat (int_range 1 100);
            map3 (fun i off d -> `Flip (i, off, d)) nat nat (int_range 1 255);
          ]
      in
      triple (list_size (int_range 0 8) frame) damage
        (list_size (int_range 0 64) (int_range 1 64)))
    (fun (frames, damage, chunks) ->
      let encoded =
        List.map
          (fun (sealed, p) ->
            let kind = if sealed then Frame.Sealed else Frame.Clear in
            Frame.to_string ~kind p)
          frames
      in
      let n = List.length encoded in
      let encoded =
        match damage with
        | `None -> encoded
        | `Oversized (i, extra) ->
            let big =
              Frame.to_string ~kind:Frame.Clear
                (String.make (reader_max + extra) 'o')
            in
            let i = i mod (n + 1) in
            List.filteri (fun j _ -> j < i) encoded
            @ (big :: List.filteri (fun j _ -> j >= i) encoded)
        | `Flip (_, _, _) when n = 0 -> encoded
        | `Flip (i, off, d) ->
            List.mapi
              (fun j f ->
                if j <> i mod n then f
                else
                  let off = off mod String.length f in
                  String.mapi
                    (fun k c ->
                      if k = off then Char.chr (Char.code c lxor d) else c)
                    f)
              encoded
      in
      let stream = String.concat "" encoded in
      read_chunked stream chunks = parse_all stream)

(* ------------------------------------------------------------------ *)
(* Streaming CRC                                                       *)
(* ------------------------------------------------------------------ *)

let prop_crc_streaming =
  QCheck2.Test.make ~name:"streamed CRC equals one-shot CRC" ~count:500
    QCheck2.Gen.(
      pair (string_size ~gen:char (int_range 0 300)) (int_range 0 1_000_000))
    (fun (s, cut) ->
      let one_shot = Tep_crypto.Crc32.digest s in
      let cut = if String.length s = 0 then 0 else cut mod String.length s in
      let ctx = Tep_crypto.Crc32.init () in
      Tep_crypto.Crc32.feed_sub ctx s 0 cut;
      Tep_crypto.Crc32.feed ctx (String.sub s cut (String.length s - cut));
      Tep_crypto.Crc32.finalize ctx = one_shot)

(* ------------------------------------------------------------------ *)
(* Session sealing                                                     *)
(* ------------------------------------------------------------------ *)

let transcript =
  Session.transcript ~name:"alice" ~client_nonce:(String.make 16 'c')
    ~server_nonce:(String.make 16 's')
    ~key_share:(String.make 64 'k')

let key =
  Session.derive_key ~transcript ~signature:"not a real signature"
    ~secret:(String.make Session.key_share_len '\x2a')

let test_seal_roundtrip () =
  let msg = "the request body" in
  let sealed = Session.seal ~key ~dir:Session.To_server ~seq:7 msg in
  (match Session.open_ ~key ~dir:Session.To_server ~seq:7 sealed with
  | Ok m -> Alcotest.(check string) "round trip" msg m
  | Error e -> Alcotest.fail e);
  (* replay at a different sequence number *)
  (match Session.open_ ~key ~dir:Session.To_server ~seq:8 sealed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong seq must be rejected");
  (* reflection back in the other direction *)
  (match Session.open_ ~key ~dir:Session.To_client ~seq:7 sealed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong direction must be rejected");
  (* wrong key *)
  let key2 =
    Session.derive_key ~transcript:"other" ~signature:"other" ~secret:"other"
  in
  (match Session.open_ ~key:key2 ~dir:Session.To_server ~seq:7 sealed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong key must be rejected");
  (* too short to carry a tag *)
  match Session.open_ ~key ~dir:Session.To_server ~seq:0 "short" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short payload must be rejected"

(* A client and a server channel over one key: each end's seals open
   at the other end in order, a frame opened twice (a replay) or
   reflected back to its sender is rejected, and a rejected frame does
   not advance the receive counter. *)
let test_channel () =
  let client = Session.channel ~key ~sends:Session.To_server in
  let server = Session.channel ~key ~sends:Session.To_client in
  let opens ch sealed what =
    match Session.open_next ch sealed with
    | Ok m -> Alcotest.(check string) what "m" (String.sub m 0 1)
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let rejects ch sealed what =
    match Session.open_next ch sealed with
    | Ok _ -> Alcotest.failf "%s was accepted" what
    | Error _ -> ()
  in
  let r0 = Session.seal_next client "m0" in
  let r1 = Session.seal_next client "m1" in
  opens server r0 "first request";
  rejects server r0 "a replayed request";
  opens server r1 "second request";
  let a0 = Session.seal_next server "m0" in
  rejects server a0 "a response reflected to the server";
  rejects client r1 "a request reflected to the client";
  opens client a0 "first response";
  (* the same sequence numbers as the explicit-seq primitives *)
  Alcotest.(check string) "seq 2 to the server"
    (Session.seal ~key ~dir:Session.To_server ~seq:2 "m2")
    (Session.seal_next client "m2")

(* The key derivation hashes in the transported secret: the same
   wire-visible transcript and signature with a wrong secret must
   yield a key that opens nothing. *)
let test_key_requires_secret () =
  let sealed = Session.seal ~key ~dir:Session.To_server ~seq:0 "msg" in
  let eve =
    Session.derive_key ~transcript ~signature:"not a real signature"
      ~secret:(String.make Session.key_share_len '\x00')
  in
  match Session.open_ ~key:eve ~dir:Session.To_server ~seq:0 sealed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "key derived without the secret must be rejected"

let prop_seal_mutation =
  QCheck2.Test.make ~name:"sealed-frame byte mutation is rejected" ~count:500
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 255))
    (fun (pos, delta) ->
      let msg = "an authenticated message" in
      let sealed = Session.seal ~key ~dir:Session.To_client ~seq:3 msg in
      let pos = pos mod String.length sealed in
      let mutated =
        String.mapi
          (fun i c ->
            if i = pos then Char.chr ((Char.code c + delta) land 0xff) else c)
          sealed
      in
      match Session.open_ ~key ~dir:Session.To_client ~seq:3 mutated with
      | Error _ -> true
      | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Message codecs                                                      *)
(* ------------------------------------------------------------------ *)

let sample_record =
  {
    Record.seq_id = 3;
    participant = "alice";
    kind = Record.Update;
    inherited = true;
    input_oids = [ Oid.of_int 4 ];
    input_hashes = [ String.make 20 '\x01' ];
    output_oid = Oid.of_int 4;
    output_hash = String.make 20 '\x02';
    output_value = Some (Value.Int 42);
    prev_checksums = [ "prev \x00 checksum" ];
    checksum = "checksum bytes";
  }

let sample_report =
  {
    Message.rp_records = 12;
    rp_objects = 4;
    rp_signatures = 12;
    rp_violations = [ "violation one"; "violation two" ];
  }

let clean_report =
  { Message.rp_records = 9; rp_objects = 3; rp_signatures = 9; rp_violations = [] }

let submit op = Message.Submit_idem { rid = "r"; op }

let sample_requests =
  [
    Message.Hello { name = "alice"; nonce = String.make 16 '\x07' };
    Message.Auth
      { signature = String.make 64 '\x55'; key_share = String.make 64 '\xa1' };
    submit
      (Message.Op_insert
         { table = "stock"; cells = [| Value.Text "W-1"; Value.Int 9; Value.Null |] });
    submit
      (Message.Op_update
         { table = "stock"; row = 3; col = 1; value = Value.Float 2.5 });
    submit
      (Message.Op_aggregate
         { inputs = [ Oid.of_int 1; Oid.of_int 2 ]; value = Value.Text "agg" });
    Message.Query None;
    Message.Query (Some (Oid.of_int 17));
    Message.Verify None;
    Message.Verify (Some (Oid.of_int 0));
    Message.Audit;
    Message.Root_hash;
    Message.Shard_stats;
    Message.Submit_idem
      {
        rid = "f0e1d2c3b4a59687";
        op = Message.Op_insert { table = "stock"; cells = [| Value.Int 1 |] };
      };
    Message.Submit_idem
      { rid = ""; op = Message.Op_delete { table = "stock"; row = 2 } };
    Message.Checkpoint_idem { rid = "retry \x00 me" };
    Message.Ping;
    Message.Lineage { kind = Message.L_why; oid = Oid.of_int 8 };
    Message.Lineage { kind = Message.L_inputs; oid = Oid.of_int 0 };
    Message.Lineage { kind = Message.L_depth; oid = Oid.of_int 123456 };
    Message.Lineage { kind = Message.L_impact; oid = Oid.of_int 2 };
    Message.Annotated_query { table = "stock"; where = "qty > 50"; agg = "" };
    Message.Annotated_query
      { table = "t"; where = ""; agg = "sum(qty)" };
    Message.Prove { table = "stock"; row = 0; col = None };
    Message.Prove { table = "orders"; row = 12345; col = Some 2 };
    Message.Audit_sample { seed = "sweep-1"; alpha_ppm = 100_000 };
    Message.Audit_sample { seed = ""; alpha_ppm = 1_000_000 };
  ]

let sample_responses =
  [
    Message.Challenge { nonce = String.make 16 '\x09' };
    Message.Auth_ok { server = "provdbd" };
    Message.Submitted { row = Some 5; oid = None; records = 4 };
    Message.Submitted { row = None; oid = Some (Oid.of_int 31); records = 2 };
    Message.Records [];
    Message.Records [ sample_record; sample_record ];
    Message.Verified { report = clean_report; store_audit = None };
    Message.Verified { report = sample_report; store_audit = Some clean_report };
    Message.Audited { report = sample_report; examined = 7; objects = 3 };
    Message.Checkpointed { generation = 4; lsn = 128 };
    Message.Checkpointed { generation = 1; lsn = -1 };
    Message.Root { hash = String.make 32 '\xee' };
    Message.Error_resp { code = Message.Auth_required; message = "who?" };
    Message.Error_resp { code = Message.Failed; message = "" };
    Message.Error_resp { code = Message.Wal_failed; message = "wal: fsync" };
    Message.Error_resp { code = Message.Shutting_down; message = "draining" };
    Message.Pong
      {
        ready = true;
        draining = false;
        active = 3;
        queued_ops = 17;
        batches = 128;
        ops = 512;
        dedup_hits = 9;
        wal_failures = 1;
        shed = 40;
        reaped = 6;
      };
    Message.Pong
      {
        ready = false;
        draining = true;
        active = 0;
        queued_ops = 0;
        batches = 0;
        ops = 0;
        dedup_hits = 0;
        wal_failures = 0;
        shed = 0;
        reaped = 0;
      };
    Message.Overloaded_resp { retry_after_ms = 25; message = "queue full" };
    Message.Overloaded_resp { retry_after_ms = 0; message = "" };
    Message.Lineage_resp
      { poly = "\x01\x01\x01\x02\x01"; depth = 3;
        oids = [ Oid.of_int 2; Oid.of_int 5 ] };
    Message.Lineage_resp { poly = ""; depth = 0; oids = [] };
    Message.Annotated_resp
      {
        arows =
          [
            (2, [| Value.Text "W-1"; Value.Int 9 |], "\x01\x01\x01\x02\x01");
            (5, [| Value.Null |], "");
          ];
        avalue = Some (Value.Int 107);
        annot = "opaque annotation bytes \x00\xff";
      };
    Message.Annotated_resp { arows = []; avalue = None; annot = "" };
    Message.Shard_stats_resp
      [
        {
          Message.ss_batches = 3;
          ss_ops = 17;
          ss_sign_wall_us = 1503;
          ss_sign_cpu_us = 5021;
          ss_queued = 0;
          ss_root_recomputes = 2;
          ss_root_hits = 9;
          ss_proofs_served = 40;
          ss_proof_cache_hits = 31;
          ss_proof_cache_misses = 9;
          ss_proof_bytes = 5532;
        };
        {
          Message.ss_batches = 0;
          ss_ops = 0;
          ss_sign_wall_us = 0;
          ss_sign_cpu_us = 0;
          ss_queued = 0;
          ss_root_recomputes = 0;
          ss_root_hits = 0;
          ss_proofs_served = 0;
          ss_proof_cache_hits = 0;
          ss_proof_cache_misses = 0;
          ss_proof_bytes = 0;
        };
      ];
    Message.Proof_resp
      {
        shard = 1;
        shard_roots = [ String.make 20 '\x0a'; String.make 20 '\x0b' ];
        items =
          [
            ("opaque proof bytes \x00\xff", [ sample_record ]);
            ("", []);
          ];
      };
    Message.Proof_resp { shard = 0; shard_roots = []; items = [] };
    Message.Audit_sample_resp
      { report = sample_report; sampled = 12; population = 480 };
    Message.Audit_sample_resp
      { report = clean_report; sampled = 0; population = 0 };
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let s = Message.request_to_string req in
      let req', consumed = Message.decode_request s 0 in
      Alcotest.(check int) "consumed all" (String.length s) consumed;
      Alcotest.(check string) "stable re-encoding" s
        (Message.request_to_string req'))
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      let s = Message.response_to_string resp in
      let resp', consumed = Message.decode_response s 0 in
      Alcotest.(check int) "consumed all" (String.length s) consumed;
      Alcotest.(check string) "stable re-encoding" s
        (Message.response_to_string resp'))
    sample_responses

(* The exact decoders take a whole message from an offset; trailing
   bytes and malformed input are an [Error], never an exception. *)
let test_exact_decoders () =
  let check_exact name encode decode_exact xs =
    List.iter
      (fun x ->
        let s = encode x in
        (match decode_exact ("xy" ^ s) 2 with
        | Ok x' -> Alcotest.(check string) (name ^ " at an offset") s (encode x')
        | Error e -> Alcotest.fail e);
        match decode_exact (s ^ "\x00") 0 with
        | Ok _ -> Alcotest.failf "%s: a trailing byte was accepted" name
        | Error _ -> ())
      xs;
    match decode_exact "\xff" 0 with
    | Ok _ -> Alcotest.failf "%s: a bad tag was accepted" name
    | Error _ -> ()
  in
  check_exact "request" Message.request_to_string Message.decode_request_exact
    sample_requests;
  check_exact "response" Message.response_to_string
    Message.decode_response_exact sample_responses

(* The retired tags must be rejected as malformed, never decoded as
   some other message: the rid-less v1 writes (0x03 Submit, 0x07
   Checkpoint) and the Stats pair (0x09 request, 0x89 response). *)
let test_retired_write_tags () =
  let op_body = Buffer.create 16 in
  Message.encode_op op_body
    (Message.Op_insert { table = "stock"; cells = [| Value.Int 1 |] });
  let op_body = Buffer.contents op_body in
  let rejects name decode payload =
    match decode payload 0 with
    | exception (Failure _ | Invalid_argument _) -> ()
    | _ -> Alcotest.failf "%s must not decode" name
  in
  List.iter
    (fun (name, payload) -> rejects name Message.decode_request payload)
    [
      ("tag 0x03", "\x03" ^ op_body);
      ("tag 0x07", "\x07");
      ("tag 0x09", "\x09");
    ];
  rejects "tag 0x89" Message.decode_response "\x89\x0c\x30\x00\x00"

(* Known answers: the exact bytes of one instance of every request and
   response whose format is frozen, so a codec refactor cannot change
   the wire silently.  Shard_stats_resp is not pinned: the response
   roundtrip above covers it. *)
let kat_requests =
  [
    Message.Hello { name = "alice"; nonce = "0123456789abcdef" };
    Message.Auth { signature = "sig\x00\xff"; key_share = "share" };
    Message.Query None;
    Message.Query (Some (Oid.of_int 300));
    Message.Verify None;
    Message.Verify (Some (Oid.of_int 0));
    Message.Audit;
    Message.Root_hash;
    Message.Submit_idem
      {
        rid = "r1";
        op =
          Message.Op_insert
            {
              table = "stock";
              cells = [| Value.Text "W-1"; Value.Int (-9); Value.Null |];
            };
      };
    Message.Submit_idem
      {
        rid = "r2";
        op =
          Message.Op_update
            { table = "stock"; row = 3; col = 1; value = Value.Float 2.5 };
      };
    Message.Submit_idem
      { rid = ""; op = Message.Op_delete { table = "stock"; row = 200 } };
    Message.Submit_idem
      {
        rid = "r4";
        op =
          Message.Op_aggregate
            {
              inputs = [ Oid.of_int 1; Oid.of_int 130 ];
              value = Value.Text "agg";
            };
      };
    Message.Checkpoint_idem { rid = "retry \x00 me" };
    Message.Ping;
    Message.Shard_stats;
    Message.Lineage { kind = Message.L_why; oid = Oid.of_int 8 };
    Message.Lineage { kind = Message.L_impact; oid = Oid.of_int 123456 };
    Message.Annotated_query
      { table = "stock"; where = "qty > 50"; agg = "sum(qty)" };
    Message.Prove { table = "stock"; row = 0; col = None };
    Message.Prove { table = "orders"; row = 12345; col = Some 2 };
    Message.Audit_sample { seed = "sweep-1"; alpha_ppm = 100_000 };
  ]

let kat_responses =
  [
    Message.Challenge { nonce = "nonce" };
    Message.Auth_ok { server = "provdbd" };
    Message.Submitted { row = Some 5; oid = None; records = 4 };
    Message.Submitted { row = None; oid = Some (Oid.of_int 31); records = 2 };
    Message.Records [ sample_record ];
    Message.Verified { report = clean_report; store_audit = None };
    Message.Verified { report = sample_report; store_audit = Some clean_report };
    Message.Audited { report = sample_report; examined = 7; objects = 3 };
    Message.Checkpointed { generation = 4; lsn = -1 };
    Message.Root { hash = "\xee\x01" };
    Message.Pong
      {
        ready = true;
        draining = false;
        active = 3;
        queued_ops = 17;
        batches = 128;
        ops = 512;
        dedup_hits = 9;
        wal_failures = 1;
        shed = 40;
        reaped = 6;
      };
    Message.Overloaded_resp { retry_after_ms = 25; message = "queue full" };
    Message.Lineage_resp
      { poly = "\x01\x02"; depth = 3; oids = [ Oid.of_int 2; Oid.of_int 500 ] };
    Message.Annotated_resp
      {
        arows =
          [ (2, [| Value.Text "W-1"; Value.Int 9 |], "\x01"); (5, [||], "") ];
        avalue = Some (Value.Int 107);
        annot = "annot";
      };
    Message.Annotated_resp { arows = []; avalue = None; annot = "" };
    Message.Proof_resp
      {
        shard = 1;
        shard_roots = [ "root-a"; "root-b" ];
        items = [ ("proof\x00", [ sample_record ]); ("", []) ];
      };
    Message.Audit_sample_resp { report = sample_report; sampled = 12; population = 480 };
    Message.Error_resp { code = Message.Wal_failed; message = "wal: fsync" };
  ]

let kat_request_hex =
  [
    "0105616c6963651030313233343536373839616263646566";
    "020573696700ff057368617265";
    "0400";
    "0401ac02";
    "0500";
    "050100";
    "06";
    "08";
    "0a027231010573746f636b030503572d31031100";
    "0a027232020573746f636b0301044004000000000000";
    "0a00030573746f636bc801";
    "0a02723404020182010503616767";
    "0b0a72657472792000206d65";
    "0c";
    "0d";
    "0e0108";
    "0e04c0c407";
    "0f0573746f636b08717479203e2035300873756d2871747929";
    "100573746f636b0000";
    "10066f7264657273b9600102";
    "110773776565702d31a08d06";
  ]

let kat_response_hex =
  [
    "81056e6f6e6365";
    "820770726f76646264";
    "8301050004";
    "8300011f02";
    "8401520305616c696365020101040114010101010101010101010101010101010101010104140202020202020202020202020202020202020202010354010f70726576200020636865636b73756d0e636865636b73756d206279746573";
    "850903090000";
    "850c040c020d76696f6c6174696f6e206f6e650d76696f6c6174696f6e2074776f0109030900";
    "860c040c020d76696f6c6174696f6e206f6e650d76696f6c6174696f6e2074776f0703";
    "870400";
    "8802ee01";
    "8a010003118001800409012806";
    "8b190a71756575652066756c6c";
    "8d020102030202f403";
    "8e0202020503572d31031201010500000103d60105616e6e6f74";
    "8e000000";
    "8f010206726f6f742d6106726f6f742d62020670726f6f660001520305616c696365020101040114010101010101010101010101010101010101010104140202020202020202020202020202020202020202010354010f70726576200020636865636b73756d0e636865636b73756d2062797465730000";
    "900c040c020d76696f6c6174696f6e206f6e650d76696f6c6174696f6e2074776f0ce003";
    "ff060a77616c3a206673796e63";
  ]

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let test_known_answers () =
  let check encode decode values hexes =
    Alcotest.(check int) "one hex per value" (List.length values)
      (List.length hexes);
    List.iter2
      (fun v h ->
        let s = encode v in
        Alcotest.(check string) "pinned bytes" h (hex s);
        let v', consumed = decode s 0 in
        Alcotest.(check int) "consumed all" (String.length s) consumed;
        Alcotest.(check string) "decodes back" h (hex (encode v')))
      values hexes
  in
  check Message.request_to_string Message.decode_request kat_requests
    kat_request_hex;
  check Message.response_to_string Message.decode_response kat_responses
    kat_response_hex

(* The wire report must render byte-identically to the in-process
   verifier's formatter — that is what lets a remote client print the
   same report the server computed. *)
let test_report_rendering () =
  let reports =
    [
      {
        Verifier.violations = [];
        records_checked = 12;
        objects_checked = 5;
        signatures_checked = 12;
      };
      {
        Verifier.violations =
          [
            Verifier.No_provenance (Oid.of_int 7);
            Verifier.Duplicate_seq { oid = Oid.of_int 2; seq = 5 };
            Verifier.Object_mismatch
              {
                oid = Oid.of_int 1;
                expected = String.make 20 '\x03';
                actual = String.make 20 '\x04';
              };
          ];
        records_checked = 3;
        objects_checked = 1;
        signatures_checked = 3;
      };
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check string)
        "render_report = pp_report"
        (Format.asprintf "%a" Verifier.pp_report r)
        (Message.render_report (Message.report_of_verifier r)))
    reports

let gen_bytes = QCheck2.Gen.(string_size ~gen:char (int_range 0 200))

let survives f =
  match f () with
  | _ -> true
  | exception (Failure _ | Invalid_argument _) -> true
  | exception _ -> false

let fuzz name f =
  QCheck2.Test.make ~name ~count:2000 gen_bytes (fun s -> survives (fun () -> f s))

let fuzz_decoders =
  [
    fuzz "Message.decode_request" (fun s -> ignore (Message.decode_request s 0));
    fuzz "Message.decode_response" (fun s ->
        ignore (Message.decode_response s 0));
    fuzz "Frame.parse" (fun s ->
        match Frame.parse s 0 with
        | Frame.Need_more _ | Frame.Frame _ | Frame.Oversized _
        | Frame.Corrupt _ ->
            ());
    fuzz "Frame.parse with magic prefix" (fun s ->
        match Frame.parse ("TW1" ^ s) 0 with
        | Frame.Need_more _ | Frame.Frame _ | Frame.Oversized _
        | Frame.Corrupt _ ->
            ());
  ]

let () =
  Alcotest.run "wire"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "incremental" `Quick test_frame_incremental;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          Alcotest.test_case "bad magic/kind" `Quick test_frame_bad_magic;
          qtest prop_frame_mutation;
          qtest prop_reader_chunking;
          qtest prop_crc_streaming;
        ] );
      ( "session",
        [
          Alcotest.test_case "seal/open" `Quick test_seal_roundtrip;
          Alcotest.test_case "key requires secret" `Quick
            test_key_requires_secret;
          Alcotest.test_case "channel" `Quick test_channel;
          qtest prop_seal_mutation;
        ] );
      ( "messages",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "exact decoders" `Quick test_exact_decoders;
          Alcotest.test_case "retired write tags" `Quick
            test_retired_write_tags;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
        ]
        @ List.map qtest fuzz_decoders );
    ]
