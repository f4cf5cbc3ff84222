(* Per-connection authenticated sessions.

   The handshake combines a PKI challenge–response with RSA key
   transport, so the session key is never computable from bytes that
   cross the wire:

     client -> Hello { name; client_nonce }            (clear)
     server -> Challenge { server_nonce }              (clear)
     client -> Auth { signature; key_share }           (clear)
     server -> Auth_ok                                 (sealed)

   The client draws a random secret, encrypts it to the participant's
   certificate key ([key_share], RSAES-PKCS1-v1_5) and signs the
   transcript — which includes the ciphertext — with the same RSA key
   its PKI certificate binds.  Both sides derive a symmetric
   HMAC-SHA256 session key from the transcript, the signature and the
   *plaintext* secret; every subsequent frame in either direction is
   sealed: tag · message, with the tag covering direction, a
   per-direction sequence number, and the message bytes — so frames
   cannot be forged, replayed, reordered, or reflected back.

   Why this resists an on-path attacker, not just a blind one:

   - An eavesdropper sees name, nonces, signature and ciphertext, but
     the key also hashes in the decrypted secret, which only holders
     of the participant's private key can recover.
   - The server authenticates the client by verifying the transcript
     signature against the registered certificate — and it does so
     *before* decrypting, so the decryptor never runs on a ciphertext
     the key holder did not sign (no padding oracle, no malleability).
   - The client authenticates the server by the sealed Auth_ok (and
     every later response): a valid tag proves the peer decrypted the
     key share, i.e. holds the workspace copy of the participant's
     private key.  A man in the middle can neither sign (to the
     server) nor decrypt (to the client).

   Freshness comes from both nonces being bound into the transcript:
   a replayed Auth fails against a fresh server nonce. *)

open Tep_crypto

let nonce_len = 16
let key_share_len = 32 (* the transported session-key secret *)
let tag_len = 32 (* HMAC-SHA256 *)

(* Length-prefixed so no field boundary ambiguity exists between
   distinct (name, nonce, nonce, share) tuples. *)
let transcript ~name ~client_nonce ~server_nonce ~key_share =
  let buf = Buffer.create 160 in
  Buffer.add_string buf "tep-wire-auth-v2";
  Tep_store.Value.add_string buf name;
  Tep_store.Value.add_string buf client_nonce;
  Tep_store.Value.add_string buf server_nonce;
  Tep_store.Value.add_string buf key_share;
  Buffer.contents buf

let derive_key ~transcript ~signature ~secret =
  let ctx = Sha256.init () in
  Sha256.update ctx "tep-wire-key-v2";
  Sha256.update ctx transcript;
  Sha256.update ctx signature;
  Sha256.update ctx secret;
  Sha256.final ctx

type direction = To_server | To_client

let dir_byte = function To_server -> '>' | To_client -> '<'

(* A session seals every frame under one key; precomputing the HMAC
   key schedule once (per {!Hmac.context}) removes the per-frame
   pad-and-xor.  The direction byte is part of the MACed content, so
   one keyed context serves both directions. *)
type keyed = Hmac.ctx

let keyed ~key = Hmac.context ~algo:Digest_algo.SHA256 ~key

let tag_input ~dir ~seq msg =
  let buf = Buffer.create (String.length msg + 12) in
  Buffer.add_char buf (dir_byte dir);
  Tep_store.Value.add_varint buf seq;
  Buffer.add_string buf msg;
  Buffer.contents buf

let tag_keyed ctx ~dir ~seq msg = Hmac.mac_with ctx (tag_input ~dir ~seq msg)

let seal_keyed ctx ~dir ~seq msg = tag_keyed ctx ~dir ~seq msg ^ msg

let seal ~key ~dir ~seq msg = seal_keyed (keyed ~key) ~dir ~seq msg

let open_keyed ctx ~dir ~seq payload =
  if String.length payload < tag_len then Error "sealed frame too short"
  else begin
    let received = String.sub payload 0 tag_len in
    let msg = String.sub payload tag_len (String.length payload - tag_len) in
    if Hmac.equal_constant_time received (tag_keyed ctx ~dir ~seq msg) then
      Ok msg
    else Error "authentication tag mismatch"
  end

let open_ ~key ~dir ~seq payload = open_keyed (keyed ~key) ~dir ~seq payload

(* One end of an established session: the key schedule plus the two
   per-direction sequence numbers.  [seal_next]/[open_next] are the
   only places a sequence number advances, so both ends of the wire
   count frames the same way.  A failed open leaves [recv_seq]
   unchanged; the caller drops the connection. *)
type channel = {
  ctx : keyed;
  sends : direction;
  receives : direction;
  mutable send_seq : int;
  mutable recv_seq : int;
}

let channel ~key ~sends =
  let receives =
    match sends with To_server -> To_client | To_client -> To_server
  in
  { ctx = keyed ~key; sends; receives; send_seq = 0; recv_seq = 0 }

let seal_next ch msg =
  let sealed = seal_keyed ch.ctx ~dir:ch.sends ~seq:ch.send_seq msg in
  ch.send_seq <- ch.send_seq + 1;
  sealed

let open_next ch payload =
  let opened = open_keyed ch.ctx ~dir:ch.receives ~seq:ch.recv_seq payload in
  if Result.is_ok opened then ch.recv_seq <- ch.recv_seq + 1;
  opened
