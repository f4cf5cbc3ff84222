open Tep_crypto
open Tep_store
open Tep_core

type t = {
  a_id : string;
  a_table : string;
  a_pred : string;
  a_agg : string;
  a_rows : (int * Polynomial.t) list;
  a_value : Value.t option;
  a_root : string;
  a_participant : string;
  a_digest : string;
  a_signature : string;
}

(* Everything except digest and signature, canonically framed.  The
   magic domain-separates annotation signatures from record checksums
   (which frame under "TEPCK1"). *)
let payload t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "TEPANN1";
  let field = Value.add_string buf in
  field t.a_id;
  field t.a_table;
  field t.a_pred;
  field t.a_agg;
  field t.a_root;
  field t.a_participant;
  Value.add_varint buf (List.length t.a_rows);
  List.iter
    (fun (v, p) ->
      Value.add_varint buf v;
      Polynomial.encode buf p)
    t.a_rows;
  (match t.a_value with
  | None -> Buffer.add_char buf '\x00'
  | Some v ->
      Buffer.add_char buf '\x01';
      Value.encode buf v);
  Buffer.contents buf

let make ~id ~table ~pred ~agg ~rows ~value ~root participant =
  let t =
    {
      a_id = id;
      a_table = table;
      a_pred = pred;
      a_agg = agg;
      a_rows = rows;
      a_value = value;
      a_root = root;
      a_participant = Participant.name participant;
      a_digest = "";
      a_signature = "";
    }
  in
  let p = payload t in
  {
    t with
    a_digest = Digest_algo.digest Digest_algo.SHA256 p;
    a_signature = Participant.sign participant p;
  }

let verify dir t =
  let p = payload t in
  if not (String.equal (Digest_algo.digest Digest_algo.SHA256 p) t.a_digest)
  then Error (Printf.sprintf "annotation %s: digest mismatch" t.a_id)
  else
    match Participant.Directory.lookup dir t.a_participant with
    | None ->
        Error
          (Printf.sprintf "annotation %s: unknown participant %s" t.a_id
             t.a_participant)
    | Some cert ->
        if
          Rsa.verify ~algo:Digest_algo.SHA256 cert.Pki.subject_key ~msg:p
            ~signature:t.a_signature
        then Ok ()
        else
          Error
            (Printf.sprintf "annotation %s: signature does not verify" t.a_id)

let encode buf t =
  Value.add_string buf (payload t);
  Value.add_string buf t.a_digest;
  Value.add_string buf t.a_signature

let read_payload r =
  Codec.magic r "TEPANN1";
  let a_id = Codec.string r in
  let a_table = Codec.string r in
  let a_pred = Codec.string r in
  let a_agg = Codec.string r in
  let a_root = Codec.string r in
  let a_participant = Codec.string r in
  let a_rows =
    Codec.list r (fun r ->
        let v = Codec.varint r in
        (v, Polynomial.read r))
  in
  {
    a_id;
    a_table;
    a_pred;
    a_agg;
    a_rows;
    a_value = Codec.option r Value.read;
    a_root;
    a_participant;
    a_digest = "";
    a_signature = "";
  }

let read r =
  let t = Codec.framed r read_payload in
  let a_digest = Codec.string r in
  { t with a_digest; a_signature = Codec.string r }

let decode = Codec.at ~what:"annotation" read

let encoded t =
  let buf = Buffer.create 256 in
  encode buf t;
  Buffer.contents buf

let of_encoded = Codec.exact ~what:"annotation" read

let magic = "TEPANNOTS1"

let list_to_string ts =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Value.add_varint buf (List.length ts);
  List.iter (encode buf) ts;
  Buffer.contents buf

let list_of_string =
  Codec.exact ~what:"annotations" (fun r ->
      Codec.magic r magic;
      Codec.list r read)
