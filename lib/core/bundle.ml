open Tep_store
open Tep_tree
open Tep_crypto

type t = {
  algo : Digest_algo.algo;
  data : Subtree.t;
  records : Record.t list;
  certificates : Pki.certificate list;
  ca_key : Rsa.public_key;
}

let certs_for directory records =
  let names =
    List.sort_uniq compare
      (List.map (fun r -> r.Record.participant) records)
  in
  List.filter_map (Participant.Directory.lookup directory) names

let create ?deep engine oid =
  match Engine.deliver ?deep engine oid with
  | Error e -> Error e
  | Ok (data, records) ->
      let directory = Engine.directory engine in
      Ok
        {
          algo = Engine.algo engine;
          data;
          records;
          certificates = certs_for directory records;
          ca_key = Participant.Directory.ca_key directory;
        }

let of_atomic store directory oid =
  match Atomic.deliver store oid with
  | Error e -> Error e
  | Ok (data, records) ->
      Ok
        {
          algo = Atomic.algo store;
          data;
          records;
          certificates = certs_for directory records;
          ca_key = Participant.Directory.ca_key directory;
        }

let participants t =
  List.sort_uniq compare (List.map (fun r -> r.Record.participant) t.records)

let verify ?trusted_ca t =
  let ca_key = Option.value trusted_ca ~default:t.ca_key in
  let directory = Participant.Directory.create ~ca_key in
  List.iter
    (fun cert ->
      (* Invalid certificates are silently dropped; their subjects'
         records then fail signature verification. *)
      ignore (Participant.Directory.register_certificate directory cert))
    t.certificates;
  Verifier.verify ~algo:t.algo ~directory ~data:t.data t.records

let magic = "TEPBNDL1"

let to_string t =
  let buf = Buffer.create 4096 in
  Value.add_string buf (Digest_algo.name t.algo);
  Subtree.encode buf t.data;
  Value.add_varint buf (List.length t.records);
  List.iter (Record.encode buf) t.records;
  Value.add_varint buf (List.length t.certificates);
  List.iter
    (fun c -> Value.add_string buf (Pki.certificate_to_string c))
    t.certificates;
  Value.add_string buf (Rsa.public_to_string t.ca_key);
  Container.seal ~magic (Buffer.contents buf)

let read r =
  let algo_name = Codec.string r in
  match Digest_algo.of_name algo_name with
  | None -> Codec.fail r "unknown algo %s" algo_name
  | Some algo ->
      let data = Subtree.read r in
      let records = Codec.list r Record.read in
      let certificates =
        Codec.list r (fun r ->
            match Pki.certificate_of_string (Codec.string r) with
            | Some c -> c
            | None -> Codec.fail r "bad certificate")
      in
      let ca_key =
        match Rsa.public_of_string (Codec.string r) with
        | Some k -> k
        | None -> Codec.fail r "bad CA key"
      in
      { algo; data; records; certificates; ca_key }

let of_string s =
  Codec.run (fun () ->
      let r = Container.open_ ~what:"bundle" ~magic s in
      let t = read r in
      Codec.finish r;
      t)

let site = Durable.site "bundle.save"
let save t path = Durable.replace site path (to_string t)

let load path =
  match Durable.read path with
  | s -> of_string s
  | exception Sys_error e -> Error e
