open Tep_crypto
open Tep_tree

let genesis = "\x00"

(* Length-prefixed field framing: no two distinct field lists share an
   encoding. *)
let frame fields =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "TEPCK1";
  List.iter
    (fun f ->
      Tep_store.Value.add_varint buf (String.length f);
      Buffer.add_string buf f)
    fields;
  Buffer.contents buf

(* Incremental digest of the concatenation — identical output to
   [digest (String.concat "" hashes)] without materialising the
   O(inputs) intermediate string (aggregates can cite many inputs). *)
let combined_input_hash hashes =
  let ctx = Sha256.init () in
  List.iter (Sha256.update ctx) hashes;
  Sha256.final ctx

let payload ~kind ~seq_id ~output_oid ~input_hashes ~output_hash ~prev_checksums
    =
  let seq = string_of_int seq_id in
  let oid = string_of_int (Oid.to_int output_oid) in
  let kindf = Record.kind_name kind in
  match kind with
  | Record.Insert ->
      if input_hashes <> [] || prev_checksums <> [] then
        invalid_arg "Checksum.payload: insert takes no inputs";
      frame [ kindf; seq; oid; genesis; output_hash; genesis ]
  | Record.Import -> (
      (* Like insert, but binds the pre-provenance state of the object. *)
      match (input_hashes, prev_checksums) with
      | [ h ], [] -> frame [ kindf; seq; oid; h; output_hash; genesis ]
      | _ -> invalid_arg "Checksum.payload: import takes one input, no prev")
  | Record.Update -> (
      match (input_hashes, prev_checksums) with
      | [ h ], [ c ] -> frame [ kindf; seq; oid; h; output_hash; c ]
      | [ h ], [] ->
          (* First update on an imported object whose import record is
             implicit: chain to genesis. *)
          frame [ kindf; seq; oid; h; output_hash; genesis ]
      | _ -> invalid_arg "Checksum.payload: update takes one input/prev")
  | Record.Aggregate ->
      if input_hashes = [] then
        invalid_arg "Checksum.payload: aggregate needs inputs";
      if List.length input_hashes <> List.length prev_checksums then
        invalid_arg "Checksum.payload: aggregate needs one prev per input";
      frame
        ([ kindf; seq; oid; combined_input_hash input_hashes; output_hash ]
        @ prev_checksums)

let sign = Participant.sign

let verify pk ~payload ~checksum =
  Rsa.verify ~algo:Digest_algo.SHA256 pk ~msg:payload ~signature:checksum

let verify_record dir (r : Record.t) =
  match Participant.Directory.lookup dir r.Record.participant with
  | None -> Error (Printf.sprintf "unknown participant %s" r.Record.participant)
  | Some cert -> (
      match
        payload ~kind:r.Record.kind ~seq_id:r.Record.seq_id
          ~output_oid:r.Record.output_oid ~input_hashes:r.Record.input_hashes
          ~output_hash:r.Record.output_hash
          ~prev_checksums:r.Record.prev_checksums
      with
      | exception Invalid_argument e -> Error ("malformed record: " ^ e)
      | p ->
          if verify cert.Pki.subject_key ~payload:p ~checksum:r.Record.checksum
          then Ok ()
          else
            Error
              (Printf.sprintf
                 "checksum of record (seq %d, %s, %s) does not verify"
                 r.Record.seq_id r.Record.participant
                 (Oid.to_string r.Record.output_oid)))
