type certificate = {
  subject : string;
  subject_key : Rsa.public_key;
  issuer : string;
  serial : int;
  signature : string;
}

type ca = { name : string; keys : Rsa.keypair; mutable next_serial : int }

let create_ca ?bits ~name drbg =
  { name; keys = Rsa.generate ?bits drbg; next_serial = 1 }

let ca_public_key ca = ca.keys.Rsa.public

(* Length-prefixed fields so no crafted subject can collide with a
   different (subject, key, issuer, serial) triple. *)
let tbs ~subject ~subject_key ~issuer ~serial =
  let field s = Printf.sprintf "%d:%s" (String.length s) s in
  String.concat ""
    [
      "cert-v1|";
      field subject;
      field (Rsa.public_to_string subject_key);
      field issuer;
      field (string_of_int serial);
    ]

let tbs_encoding c =
  tbs ~subject:c.subject ~subject_key:c.subject_key ~issuer:c.issuer
    ~serial:c.serial

let issue ca ~subject key =
  let serial = ca.next_serial in
  ca.next_serial <- serial + 1;
  let body = tbs ~subject ~subject_key:key ~issuer:ca.name ~serial in
  let signature = Rsa.sign ~algo:Digest_algo.SHA256 ca.keys.Rsa.private_ body in
  { subject; subject_key = key; issuer = ca.name; serial; signature }

let verify_certificate ~ca_key c =
  Rsa.verify ~algo:Digest_algo.SHA256 ca_key ~msg:(tbs_encoding c)
    ~signature:c.signature

let certificate_to_string c =
  String.concat "|"
    [
      "certser-v1";
      Digest_algo.to_hex c.subject;
      Rsa.public_to_string c.subject_key;
      Digest_algo.to_hex c.issuer;
      string_of_int c.serial;
      Digest_algo.to_hex c.signature;
    ]

let certificate_of_string s =
  match String.split_on_char '|' s with
  | [ "certser-v1"; subject; key; issuer; serial; signature ] -> (
      try
        match Rsa.public_of_string key with
        | None -> None
        | Some subject_key ->
            Some
              {
                subject = Digest_algo.of_hex subject;
                subject_key;
                issuer = Digest_algo.of_hex issuer;
                serial = int_of_string serial;
                signature = Digest_algo.of_hex signature;
              }
      with _ -> None)
  | _ -> None

let ca_to_string ca =
  String.concat "|"
    [
      "caser-v1";
      Digest_algo.to_hex ca.name;
      Rsa.private_to_string ca.keys.Rsa.private_;
      string_of_int ca.next_serial;
    ]

let ca_of_string s =
  match String.split_on_char '|' s with
  | [ "caser-v1"; name; priv; serial ] -> (
      try
        match Rsa.private_of_string priv with
        | None -> None
        | Some private_ ->
            Some
              {
                name = Digest_algo.of_hex name;
                keys = { Rsa.public = Rsa.public_of_private private_; private_ };
                next_serial = int_of_string serial;
              }
      with _ -> None)
  | _ -> None
