open Tep_crypto

type t = { name : string; keys : Rsa.keypair; cert : Pki.certificate }

let create ?bits ~ca ~name drbg =
  if name = "" then invalid_arg "Participant.create: empty name";
  let keys = Rsa.generate ?bits drbg in
  let cert = Pki.issue ca ~subject:name keys.Rsa.public in
  { name; keys; cert }

let name t = t.name
let public_key t = t.keys.Rsa.public
let certificate t = t.cert

let sign t payload = Rsa.sign ~algo:Digest_algo.SHA256 t.keys.Rsa.private_ payload
let decrypt t ciphertext = Rsa.decrypt t.keys.Rsa.private_ ciphertext

let key_fingerprint t = Rsa.fingerprint (public_key t)

let to_string t =
  String.concat "\n"
    [
      "participant-v1";
      Digest_algo.to_hex t.name;
      Rsa.private_to_string t.keys.Rsa.private_;
      Pki.certificate_to_string t.cert;
    ]

let of_string s =
  match String.split_on_char '\n' s with
  | [ "participant-v1"; name; priv; cert ] -> (
      try
        match (Rsa.private_of_string priv, Pki.certificate_of_string cert) with
        | Some private_, Some cert ->
            Some
              {
                name = Digest_algo.of_hex name;
                keys = { Rsa.public = Rsa.public_of_private private_; private_ };
                cert;
              }
        | _ -> None
      with _ -> None)
  | _ -> None

module Directory = struct
  type participant = t

  type t = {
    ca_key : Rsa.public_key;
    (* Only certificates that verify against [ca_key] get in. *)
    certs : (string, Pki.certificate) Hashtbl.t;
  }

  let create ~ca_key = { ca_key; certs = Hashtbl.create 16 }
  let ca_key t = t.ca_key

  let register_certificate t cert =
    if not (Pki.verify_certificate ~ca_key:t.ca_key cert) then
      Error
        (Printf.sprintf "certificate for %s does not verify" cert.Pki.subject)
    else
      match Hashtbl.find_opt t.certs cert.Pki.subject with
      | Some existing
        when Rsa.public_to_string existing.Pki.subject_key
             <> Rsa.public_to_string cert.Pki.subject_key ->
          Error
            (Printf.sprintf "subject %s already registered with another key"
               cert.Pki.subject)
      | _ ->
          Hashtbl.replace t.certs cert.Pki.subject cert;
          Ok ()

  let register t (p : participant) =
    match register_certificate t p.cert with
    | Ok () -> ()
    | Error e -> invalid_arg ("Participant.Directory.register: " ^ e)

  let lookup t name = Hashtbl.find_opt t.certs name

  let names t =
    List.sort Stdlib.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.certs [])
end
