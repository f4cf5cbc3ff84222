open Tep_store
open Tep_tree

(* Per-object high-water mark: seq and checksum of the last verified
   record, and a SHA-256 over the encodings of the object's records
   through it — the anchor later audits recompute from the store. *)
type hwm = { hw_seq : int; hw_checksum : string; hw_digest : string }

type checkpoint = hwm Oid.Map.t

let empty = Oid.Map.empty

let objects cp = Oid.Map.cardinal cp

let mark cp oid =
  Option.map (fun h -> (h.hw_seq, h.hw_checksum)) (Oid.Map.find_opt oid cp)

let forget cp oids =
  List.fold_left (fun cp oid -> Oid.Map.remove oid cp) cp oids

(* ------------------------------------------------------------------ *)
(* Incremental per-object verification                                 *)
(* ------------------------------------------------------------------ *)

(* One object's audit: RSA on the records past the mark only, but the
   verifier's chain rules over the whole stored chain (comparisons, no
   cryptography), so a record dropped or replaced below the mark still
   breaks a link.  The anchor check adds what only the auditor knows:
   the records through the mark are still there, byte for byte, so an
   edit that breaks only an audited record's signature is reported
   too.  One running digest covers the records through the mark and
   then the fresh ones, giving the next mark's digest. *)
let check_object ~directory ~store cp oid records =
  let prev_hwm = Oid.Map.find_opt oid cp in
  let audited, fresh =
    match prev_hwm with
    | None -> ([], records)
    | Some h -> List.partition (fun r -> r.Record.seq_id <= h.hw_seq) records
  in
  let digest = Tep_crypto.Sha256.init () in
  let feed =
    List.iter (fun r -> Tep_crypto.Sha256.update digest (Record.encoded r))
  in
  feed audited;
  let anchor =
    match prev_hwm with
    | None -> []
    | Some h ->
        if not (List.exists (fun r -> r.Record.seq_id = h.hw_seq) audited) then
          [ Verifier.Seq_gap { oid; after_seq = h.hw_seq; found_seq = -1 } ]
        else if
          String.equal
            (Tep_crypto.Sha256.final (Tep_crypto.Sha256.copy digest))
            h.hw_digest
        then []
        else
          [
            Verifier.Broken_link
              {
                oid;
                seq = h.hw_seq;
                reason = "audited records were changed (history rewrite)";
              };
          ]
  in
  let bad_signatures =
    List.filter_map
      (fun (r : Record.t) ->
        match Checksum.verify_record directory r with
        | Ok () -> None
        | Error reason ->
            Some (Verifier.Bad_signature { oid; seq = r.Record.seq_id; reason }))
      fresh
  in
  let violations =
    anchor @ bad_signatures
    @ Verifier.check_chain ~lookup:(Provstore.find_by_checksum store) oid
        records
  in
  let n = List.length fresh in
  let hwm =
    match List.rev fresh with
    | last :: _ when violations = [] ->
        feed fresh;
        Some
          {
            hw_seq = last.Record.seq_id;
            hw_checksum = last.Record.checksum;
            hw_digest = Tep_crypto.Sha256.final digest;
          }
    | _ -> prev_hwm (* a failed object keeps its old mark *)
  in
  ( {
      Verifier.violations;
      records_checked = n;
      objects_checked = 1;
      signatures_checked = n;
    },
    hwm )

let incremental_audit ?pool ~directory cp store =
  (* marked objects too: one whose every record is gone fails its
     anchor *)
  let objs =
    List.sort_uniq Oid.compare
      (Provstore.objects store @ List.map fst (Oid.Map.bindings cp))
  in
  (* Per-object checks are independent: they read only the (frozen)
     store and the directory.  Fan the sweep out across domains, then
     fold results back in oid order so the report and checkpoint are
     identical to the sequential sweep. *)
  let check oid =
    check_object ~directory ~store cp oid (Provstore.records_for store oid)
  in
  let results =
    match pool with
    | Some p -> Tep_parallel.Pool.map_list p check objs
    | None -> List.map check objs
  in
  let report = Verifier.concat (List.map fst results) in
  let cp' =
    List.fold_left2
      (fun acc oid (_, hwm) ->
        match hwm with Some h -> Oid.Map.add oid h acc | None -> acc)
      Oid.Map.empty objs results
  in
  (report, cp', report.Verifier.records_checked)

let full_audit ?pool ~directory store =
  let report, cp, _ = incremental_audit ?pool ~directory empty store in
  (report, cp)

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

let magic = "TEPAUD2"

let to_string cp =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Value.add_varint buf (Oid.Map.cardinal cp);
  Oid.Map.iter
    (fun oid h ->
      Value.add_varint buf (Oid.to_int oid);
      Value.add_varint buf h.hw_seq;
      Value.add_string buf h.hw_checksum;
      Value.add_string buf h.hw_digest)
    cp;
  Buffer.contents buf

let read r =
  Codec.magic r magic;
  let cp = ref Oid.Map.empty in
  for _ = 1 to Codec.count r do
    let oid = Oid.read r in
    let hw_seq = Codec.varint r in
    let hw_checksum = Codec.string r in
    let hw_digest = Codec.string r in
    cp := Oid.Map.add oid { hw_seq; hw_checksum; hw_digest } !cp
  done;
  !cp

let of_string s =
  if String.starts_with ~prefix:"TEPAUD1" s then
    (* its marks bind only the anchor record, not the chain *)
    Error "checkpoint: TEPAUD1 marks do not bind the audited chains"
  else Codec.exact ~what:"checkpoint" read s
