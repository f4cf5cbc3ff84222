(* Adversarial-input fuzzing: every decoder must reject arbitrary
   bytes with a clean error (Failure / Error result), never crash or
   loop; and every field of every record is tamper-sensitive. *)
open Tep_store
open Tep_tree
open Tep_core

let gen_bytes = QCheck2.Gen.(string_size ~gen:char (int_range 0 200))

(* A decoder "survives" if it either parses or raises Failure /
   Invalid_argument — anything else (eg. out-of-bounds, stack
   overflow, division) fails the property. *)
let survives f =
  match f () with
  | _ -> true
  | exception (Failure _ | Invalid_argument _) -> true
  | exception _ -> false

let fuzz ?(gen = gen_bytes) name f =
  QCheck2.Test.make ~name ~count:2000 gen (fun s -> survives (fun () -> f s))

(* Random bytes rarely get past a text parser's first token; drawing
   from the grammar's own alphabet reaches the deeper states. *)
let gen_over alphabet =
  QCheck2.Gen.(
    string_size
      ~gen:(map (String.get alphabet) (int_range 0 (String.length alphabet - 1)))
      (int_range 0 200))

(* [s] as the length-framed body a binary decoder expects after [magic] *)
let framed magic s =
  let buf = Buffer.create (String.length s + 16) in
  Value.add_string buf (magic ^ s);
  Buffer.contents buf

let fuzz_decoders =
  [
    fuzz "Value.decode" (fun s -> ignore (Value.decode s 0));
    fuzz "Schema.decode" (fun s -> ignore (Schema.decode s 0));
    fuzz "Table.decode" (fun s -> ignore (Table.decode s 0));
    fuzz "Database.decode" (fun s -> ignore (Database.decode s 0));
    fuzz "Wal.decode_entry" (fun s -> ignore (Wal.decode_entry s 0));
    fuzz "Subtree.decode" (fun s -> ignore (Subtree.decode s 0));
    fuzz "Forest.decode" (fun s -> ignore (Forest.decode s 0));
    fuzz "Tree_view.decode" (fun s -> ignore (Tree_view.decode s 0));
    fuzz "Record.decode" (fun s -> ignore (Record.decode s 0));
    fuzz "Snapshot.of_string" (fun s ->
        match Snapshot.of_string s with Ok _ | Error _ -> ());
    fuzz "Provstore.of_string" (fun s ->
        match Provstore.of_string s with Ok _ | Error _ -> ());
    fuzz "Bundle.of_string" (fun s ->
        match Bundle.of_string s with Ok _ | Error _ -> ());
    fuzz "Audit.of_string" (fun s ->
        match Audit.of_string s with Ok _ | Error _ -> ());
    fuzz "Proof.decode" (fun s -> ignore (Proof.decode s 0));
    (* the total decoder must never raise at all — wire input is
       adversarial, and an escaping exception would kill the client
       transport or the server connection *)
    QCheck2.Test.make ~name:"Proof.of_encoded total" ~count:2000 gen_bytes
      (fun s ->
        match Proof.of_encoded s with Ok _ | Error _ -> true);
    QCheck2.Test.make ~name:"Proof.of_encoded 'Q'-prefixed total"
      ~count:2000 gen_bytes
      (fun s ->
        match Proof.of_encoded ("Q" ^ s) with Ok _ | Error _ -> true);
    fuzz "Pki.certificate_of_string" (fun s ->
        ignore (Tep_crypto.Pki.certificate_of_string s));
    fuzz "Pki.ca_of_string" (fun s -> ignore (Tep_crypto.Pki.ca_of_string s));
    fuzz "Participant.of_string" (fun s -> ignore (Participant.of_string s));
    fuzz "Rsa.public_of_string" (fun s ->
        ignore (Tep_crypto.Rsa.public_of_string s));
    fuzz "Frame.parse" (fun s -> ignore (Tep_wire.Frame.parse s 0));
    fuzz "Message.decode_request" (fun s ->
        ignore (Tep_wire.Message.decode_request s 0));
    fuzz "Message.decode_response" (fun s ->
        ignore (Tep_wire.Message.decode_response s 0));
    fuzz "Message.decode_op" (fun s -> ignore (Tep_wire.Message.decode_op s 0));
    fuzz "Polynomial.decode" (fun s ->
        ignore (Tep_prov.Polynomial.decode s 0));
    fuzz "Annot.decode" (fun s -> ignore (Tep_prov.Annot.decode s 0));
    (* past the payload magic, into the field and polynomial decoders *)
    fuzz "Annot.decode framed payload" (fun s ->
        ignore (Tep_prov.Annot.decode (framed "TEPANN1" s) 0));
    fuzz "Annot.list_of_string" (fun s ->
        match Tep_prov.Annot.list_of_string ("TEPANNOTS1" ^ s) with
        | Ok _ | Error _ -> ());
    fuzz "Xml.parse" ~gen:(gen_over "<>/=\"'!?-&;#x01 ab\n")
      (fun s -> match Xml.parse s with Ok _ | Error _ -> ());
    fuzz "Query.pred_of_string"
      ~gen:(gen_over "()'=<>!ai1.0x- \tandotrsul")
      (fun s -> match Query.pred_of_string s with Ok _ | Error _ -> ());
    fuzz "Query.agg_of_string" ~gen:(gen_over "()*countsumavgminx ")
      (fun s -> match Query.agg_of_string s with Ok _ | Error _ -> ());
    (* five hex-ish fields reach the key arithmetic, not just the split *)
    fuzz "Rsa.private_of_string" ~gen:(gen_over "0123456789abcdefg:")
      (fun s -> ignore (Tep_crypto.Rsa.private_of_string ("rsa-priv:" ^ s)));
  ]

(* WAL salvage must accept ANY byte string without an exception.  A
   log (the v2 magic, or a strict prefix of a fresh header) salvages,
   worst case to an empty entry list plus damage counters; anything
   else is refused with an [Error].  Exercised both bare and under the
   v2 magic (framed parse). *)
let salvage_tmp = lazy (Filename.temp_file "tep_fuzz_wal" ".log")

let is_v2_log s =
  String.starts_with ~prefix:"TEPWAL2\n" s
  || String.starts_with ~prefix:s "TEPWAL2\n\x00"

let salvage_of_bytes s =
  let path = Lazy.force salvage_tmp in
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  match Wal.salvage_file path with
  | Ok sv ->
      (* sanity of the damage report, not just absence of exceptions *)
      is_v2_log s
      && sv.Wal.bytes_salvaged >= 0
      && sv.Wal.bytes_salvaged <= String.length s
      && sv.Wal.skipped_frames >= 0
  | Error _ -> not (is_v2_log s) (* the file exists; I/O must succeed *)

let fuzz_salvage =
  [
    QCheck2.Test.make ~name:"Wal.salvage arbitrary bytes" ~count:2000 gen_bytes
      salvage_of_bytes;
    QCheck2.Test.make ~name:"Wal.salvage v2 magic + arbitrary bytes"
      ~count:2000 gen_bytes
      (fun s -> salvage_of_bytes ("TEPWAL2\n" ^ s));
  ]

(* Corrupting a valid encoding must either fail to parse or parse to
   something the verifier/integrity layer rejects — never silently
   yield the original. *)
let fixture =
  lazy
    (let drbg = Tep_crypto.Drbg.create ~seed:"fuzz" in
     let ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"CA" drbg in
     let dir =
       Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
     in
     let alice = Participant.create ~bits:512 ~ca ~name:"alice" drbg in
     Participant.Directory.register dir alice;
     let db = Database.create ~name:"f" in
     ignore (Database.create_table db ~name:"t" (Schema.all_int [ "a" ]));
     let eng = Engine.create ~directory:dir db in
     (match Engine.insert_row eng alice ~table:"t" [| Value.Int 1 |] with
     | Ok r -> (
         match Engine.update_cell eng alice ~table:"t" ~row:r ~col:0 (Value.Int 2) with
         | Ok () -> ()
         | Error e -> failwith e)
     | Error e -> failwith e);
     (eng, alice, dir))

let prop_bundle_bitflip =
  QCheck2.Test.make ~name:"any bundle bitflip is rejected or detected"
    ~count:150
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 7))
    (fun (pos, bit) ->
      let eng, _, _ = Lazy.force fixture in
      let b =
        match Bundle.create eng (Engine.root_oid eng) with
        | Ok b -> b
        | Error e -> failwith e
      in
      let s = Bundle.to_string b in
      let pos = pos mod String.length s in
      let flipped =
        String.mapi
          (fun i c ->
            if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
          s
      in
      match Bundle.of_string flipped with
      | Error _ -> true (* trailer caught it *)
      | Ok b' -> not (Verifier.ok (Bundle.verify b')))

(* Any single field mutation of any record must be detected. *)
type field_pick = Fseq | Fpart | Fihash | Fohash | Fprev | Fcksum | Finherited

let gen_field =
  QCheck2.Gen.oneofl [ Fseq; Fpart; Fihash; Fohash; Fprev; Fcksum; Finherited ]

let mutate_record field (r : Record.t) =
  let bump s = if s = "" then "x" else String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s in
  match field with
  | Fseq -> { r with Record.seq_id = r.Record.seq_id + 1 }
  | Fpart ->
      {
        r with
        Record.participant =
          (if r.Record.participant = "alice" then "mallory" else "alice");
      }
  | Fihash -> (
      match r.Record.input_hashes with
      | [] -> { r with Record.input_hashes = [ "injected" ] }
      | h :: rest -> { r with Record.input_hashes = bump h :: rest })
  | Fohash -> { r with Record.output_hash = bump r.Record.output_hash }
  | Fprev -> (
      match r.Record.prev_checksums with
      | [] -> { r with Record.prev_checksums = [ "injected" ] }
      | c :: rest -> { r with Record.prev_checksums = bump c :: rest })
  | Fcksum -> { r with Record.checksum = bump r.Record.checksum }
  | Finherited -> { r with Record.inherited = not r.Record.inherited }

let prop_any_field_tamper_detected =
  QCheck2.Test.make ~name:"any record-field mutation is detected" ~count:200
    QCheck2.Gen.(pair (int_range 0 1000) gen_field)
    (fun (pick, field) ->
      let eng, _, dir = Lazy.force fixture in
      let data, records =
        match Engine.deliver eng (Engine.root_oid eng) with
        | Ok x -> x
        | Error e -> failwith e
      in
      QCheck2.assume (records <> []);
      let idx = pick mod List.length records in
      let tampered =
        List.mapi (fun i r -> if i = idx then mutate_record field r else r) records
      in
      (* `inherited` is display metadata, not covered by the signature;
         every other field must trip the verifier *)
      let report = Verifier.verify ~algo:(Engine.algo eng) ~directory:dir ~data tampered in
      match field with
      | Finherited -> true
      | _ -> not (Verifier.ok report))

(* Fixed inputs that once let a non-Failure exception escape.  An
   annotated-rows response ('\x8e') whose cell count far exceeds the
   payload made Array.init allocate before any cell failed to decode,
   raising Out_of_memory; the first input is what QCHECK_SEED=887267141
   generated for the decode_response property, the second a minimal
   hand-built one (one row, value 0, 2^35 cells, one Null cell). *)
let test_decode_response_regressions () =
  List.iter
    (fun (name, s) ->
      match Tep_wire.Message.decode_response s 0 with
      | _ -> Alcotest.failf "%s: decoded" name
      | exception Failure _ -> ())
    [
      ( "seed 887267141",
        "\142\015\218\006\151\148\145\147Y\002\135\213\186\211\244O\\\t\025$\255'`\149c\182%fG\139\168\"\137\2317}\217\017\166M\140c\146\202&\153)\192\168\018\228|\162\132{\189\201\"\015k\133x\168\0180\001\198t"
      );
      ("huge cell count", "\x8e\x01\x00\x80\x80\x80\x80\x80\x01\x00");
    ]

(* A decoded exponent once expanded into that many factors before the
   term was normalised, so one varint near 2^61 exhausted memory —
   reachable from an annotation file or a server's annotated-rows
   response.  One term, coefficient 1, one factor: x0^(2^61). *)
let test_poly_huge_exponent () =
  let e = 1 lsl 61 in
  let buf = Buffer.create 16 in
  List.iter (Value.add_varint buf) [ 1; 1; 1; 0; e ];
  let p, off = Tep_prov.Polynomial.decode (Buffer.contents buf) 0 in
  Alcotest.(check int) "consumed" (Buffer.length buf) off;
  Alcotest.(check int) "degree kept as a number" e (Tep_prov.Polynomial.degree p)

(* A factor of 1 once reached [Nat.rem d 0] and escaped as
   Division_by_zero. *)
let test_rsa_unit_factor () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true
        (Tep_crypto.Rsa.private_of_string ("rsa-priv:" ^ s) = None))
    [ "b1fa1c0b3fd:::e0f:1"; "231c3d:2a35:b:1:406218a821911" ]

let () =
  Alcotest.run "fuzz"
    [
      ("decoders", List.map QCheck_alcotest.to_alcotest fuzz_decoders);
      ( "regressions",
        [
          Alcotest.test_case "Message.decode_response" `Quick
            test_decode_response_regressions;
          Alcotest.test_case "Polynomial.decode huge exponent" `Quick
            test_poly_huge_exponent;
          Alcotest.test_case "Rsa.private_of_string unit factor" `Quick
            test_rsa_unit_factor;
        ] );
      ("salvage", List.map QCheck_alcotest.to_alcotest fuzz_salvage);
      ( "integrity",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bundle_bitflip; prop_any_field_tamper_detected ] );
    ]
