(* The connection state machine: handshake, sealed dispatch and
   pipelined-submit batching behind one entry point, {!feed}: bytes in,
   response bytes out.  The event loop and the client library's
   loopback transport both drive it.

   Authentication is the {!Tep_wire.Session} challenge–response: the
   client names a PKI-registered participant and signs the handshake
   transcript with that participant's key; the server checks the
   signature against the certificate in the engine's directory.  The
   workspace keeps participant credentials server-side, so after
   authentication the server signs submitted operations with the same
   participant identity the client proved it holds. *)

module Frame = Tep_wire.Frame
module Message = Tep_wire.Message
module Session = Tep_wire.Session
module Participant = Tep_core.Participant
module Fault = Tep_fault.Fault

let error_resp = State.error_resp

(* Everything a connection reads passes through this failpoint, so
   tests can inject torn reads and bit flips into the byte stream
   without a real flaky network. *)
let read_site = "wire.server.read"
let () = Fault.register read_site

type established = { participant : Participant.t; channel : Session.channel }

type phase =
  | Expect_hello
  | Expect_auth of {
      participant : Participant.t;
      name : string;
      client_nonce : string;
      server_nonce : string;
          (* the transcript also covers the key share, which only
             arrives with the Auth frame — so the nonces wait here *)
    }
  | Established of established
  | Dead

type t = {
  server : State.t;
  reader : Frame.reader;
  mutable phase : phase;
  mutable pending : (int * string * Message.op) list;
      (* consecutive pipelined Submits (cid, rid, op), newest first,
         awaiting a flush into the batcher as one job *)
}

let create (server : State.t) =
  {
    server;
    reader = Frame.reader ~max_payload:server.max_payload ();
    phase = Expect_hello;
    pending = [];
  }

let alive c = c.phase <> Dead
let pending c = Frame.buffered c.reader > 0 || c.pending <> []

(* Frame a response in whatever protection the connection has reached:
   clear during the handshake, sealed (tagged, sequenced, correlation-
   id-prefixed) once the session key exists.  A response too large for
   the peer's frame limit degrades to a Too_large error rather than an
   oversized frame the peer must reject as abusive. *)
let frame_response ?(cid = Message.conn_cid) c resp =
  let max_payload = c.server.max_payload in
  let limit =
    max_payload - (match c.phase with Established _ -> Session.tag_len | _ -> 0)
  in
  let encode resp =
    let body = Message.response_to_string resp in
    match c.phase with
    | Established _ -> Message.with_cid cid body
    | _ -> body
  in
  let msg = encode resp in
  let msg =
    if String.length msg <= limit then msg
    else
      encode
        (error_resp Message.Too_large
           (Printf.sprintf "response of %d bytes exceeds the %d-byte frame limit"
              (String.length msg) max_payload))
  in
  match c.phase with
  | Established s ->
      Frame.to_string ~kind:Frame.Sealed (Session.seal_next s.channel msg)
  | _ -> Frame.to_string ~kind:Frame.Clear msg

let kill ?cid c resp =
  let out = frame_response ?cid c resp in
  c.phase <- Dead;
  c.pending <- [];
  Frame.reset c.reader;
  out

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

let handle_hello c ~name ~client_nonce =
  let t = c.server in
  match List.assoc_opt name t.participants with
  | None ->
      kill c (error_resp Message.Auth_failed ("unknown participant " ^ name))
  | Some participant -> (
      match Participant.Directory.lookup (State.directory t) name with
      | None ->
          kill c
            (error_resp Message.Auth_failed
               ("no verified certificate for " ^ name))
      | Some _ ->
          let server_nonce = State.gen_nonce t in
          c.phase <-
            Expect_auth { participant; name; client_nonce; server_nonce };
          frame_response c (Message.Challenge { nonce = server_nonce }))

(* Order matters: the signature (which covers the encrypted key
   share) is verified before the share is decrypted, so decryption
   only ever runs on ciphertexts the participant's key holder
   produced — never on attacker-chosen ones. *)
let handle_auth c ~participant ~name ~client_nonce ~server_nonce ~signature
    ~key_share =
  let transcript =
    Session.transcript ~name ~client_nonce ~server_nonce ~key_share
  in
  let cert = Participant.certificate participant in
  if
    not
      (Tep_crypto.Rsa.verify ~algo:Tep_crypto.Digest_algo.SHA256
         cert.Tep_crypto.Pki.subject_key ~msg:transcript ~signature)
  then kill c (error_resp Message.Auth_failed "transcript signature invalid")
  else
    match Participant.decrypt participant key_share with
    | Some secret when String.length secret = Session.key_share_len ->
        let key = Session.derive_key ~transcript ~signature ~secret in
        let channel = Session.channel ~key ~sends:Session.To_client in
        c.phase <- Established { participant; channel };
        frame_response c (Message.Auth_ok { server = "provdbd" })
    | Some _ | None ->
        kill c (error_resp Message.Auth_failed "key share rejected")

(* ------------------------------------------------------------------ *)
(* Frame handling                                                      *)
(* ------------------------------------------------------------------ *)

(* Consecutive pipelined Submits buffered on the connection join the
   batcher as one job; their responses are framed in request order,
   each echoing its own correlation id.

   Idempotency happens at this boundary.  Each buffered slot resolves
   to one of: [`Run] (execute in this batch), [`Hit] (already
   completed under this rid — answer from the dedup table), or
   [`Alias j] (same rid as an earlier slot of this very flush; aliased
   locally so a duplicate inside one batch never deadlocks on its own
   pending entry).  Only `Run slots reach the batcher. *)
let flush_pending c out =
  match (c.phase, c.pending) with
  | _, [] -> ()
  | Established s, pending ->
      c.pending <- [];
      let t = c.server in
      let ps = Array.of_list (List.rev pending) in
      let local : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let fresh_rev = ref [] in
      let plan =
        Array.mapi
          (fun i (_, rid, _) ->
            match Hashtbl.find_opt local rid with
            | Some j ->
                Dedup.note_hit t.dedup;
                `Alias j
            | None -> (
                match Dedup.claim t.dedup rid with
                | `Hit resp -> `Hit resp
                | `Run ->
                    Hashtbl.replace local rid i;
                    fresh_rev := i :: !fresh_rev;
                    `Run))
          ps
      in
      let fresh = Array.of_list (List.rev !fresh_rev) in
      let ops =
        Array.map
          (fun i ->
            let _, _, op = ps.(i) in
            op)
          fresh
      in
      let resps =
        if Array.length ops = 0 then [||]
        else Write.submit_ops t s.participant ops
      in
      (* Publish executed rids before framing: by the time a response
         leaves this connection, a retry arriving on another one
         already sees the cached outcome. *)
      let resp_of_slot : (int, Message.response) Hashtbl.t =
        Hashtbl.create 8
      in
      Array.iteri
        (fun k slot ->
          Hashtbl.replace resp_of_slot slot resps.(k);
          let _, rid, _ = ps.(slot) in
          Dedup.resolve t.dedup rid resps.(k))
        fresh;
      Array.iteri
        (fun i (cid, _, _) ->
          let resp =
            match plan.(i) with
            | `Run -> Hashtbl.find resp_of_slot i
            | `Alias j -> Hashtbl.find resp_of_slot j
            | `Hit resp -> resp
          in
          Buffer.add_string out (frame_response ~cid c resp))
        ps
  | _, _ -> c.pending <- []

(* Buffer one pipelined submit, enforcing the per-session in-flight
   cap: past [max_session_inflight] buffered ops the submit is shed
   immediately with a typed Overloaded response (its own cid), leaving
   the already-buffered ops untouched. *)
let max_session_inflight = 64

let buffer_submit c out ~cid ~rid op =
  let t = c.server in
  if List.length c.pending >= max_session_inflight then begin
    Atomic.incr t.shed;
    Buffer.add_string out
      (frame_response ~cid c (Write.overloaded t (List.length c.pending)))
  end
  else c.pending <- (cid, rid, op) :: c.pending

(* Flush the buffered submits, then answer with a dying error. *)
let fail ?cid c out code message =
  flush_pending c out;
  Buffer.add_string out (kill ?cid c (error_resp code message))

(* Established-phase sealed traffic: open the seal, split off the
   correlation id, then either defer (Submit_idem — grouped with
   adjacent pipelined submits) or flush-and-dispatch. *)
let handle_sealed c out s payload =
  match Session.open_next s.channel payload with
  | Error e -> fail c out Message.Auth_failed e
  | Ok msg -> (
      match Message.read_cid msg with
      | None -> fail c out Message.Bad_request "malformed request"
      | Some (cid, off) -> (
          match Message.decode_request_exact msg off with
          | Error _ -> fail ~cid c out Message.Bad_request "malformed request"
          | Ok (Message.Submit_idem { rid; op }) ->
              buffer_submit c out ~cid ~rid op
          | Ok (Message.Checkpoint_idem { rid }) ->
              flush_pending c out;
              let resp =
                match Dedup.claim c.server.dedup rid with
                | `Hit resp -> resp
                | `Run ->
                    let resp = Write.checkpoint c.server in
                    Dedup.resolve c.server.dedup rid resp;
                    resp
              in
              Buffer.add_string out (frame_response ~cid c resp)
          | Ok req ->
              flush_pending c out;
              let resp =
                try Read.dispatch c.server s.participant req
                with e -> error_resp Message.Failed (Printexc.to_string e)
              in
              Buffer.add_string out (frame_response ~cid c resp)))

let handle_frame c out (kind : Frame.kind) payload =
  match (c.phase, kind) with
  | Dead, _ -> ()
  | (Expect_hello | Expect_auth _), Sealed ->
      fail c out Message.Auth_required "handshake not complete"
  | Established _, Clear ->
      fail c out Message.Bad_request "clear frame on sealed session"
  | Expect_hello, Clear -> (
      match Message.decode_request_exact payload 0 with
      | Ok (Message.Hello { name; nonce }) ->
          Buffer.add_string out (handle_hello c ~name ~client_nonce:nonce)
      | Ok _ -> fail c out Message.Auth_required "hello expected"
      | Error _ -> fail c out Message.Bad_request "malformed request")
  | Expect_auth { participant; name; client_nonce; server_nonce }, Clear -> (
      match Message.decode_request_exact payload 0 with
      | Ok (Message.Auth { signature; key_share }) ->
          Buffer.add_string out
            (handle_auth c ~participant ~name ~client_nonce ~server_nonce
               ~signature ~key_share)
      | Ok _ -> fail c out Message.Auth_required "auth expected"
      | Error _ -> fail c out Message.Bad_request "malformed request")
  | Established s, Sealed -> handle_sealed c out s payload

(* Submits parsed in this pass are deferred on [c.pending] and flushed
   as one batcher job — either when a non-submit request interleaves
   (responses stay in request order) or when the parsed input runs
   out, so a blocking client's single submit flushes immediately. *)
let feed c data =
  if c.phase = Dead then ""
  else begin
    Frame.push c.reader (Fault.input read_site data);
    let out = Buffer.create 256 in
    let continue = ref true in
    while !continue && alive c do
      match Frame.pull c.reader with
      | Frame.Need_more _ -> continue := false
      | Frame.Frame { kind; payload; _ } -> handle_frame c out kind payload
      | Frame.Oversized n ->
          fail c out Message.Too_large
            (Printf.sprintf "declared payload of %d bytes exceeds limit" n)
      | Frame.Corrupt reason -> fail c out Message.Bad_request reason
    done;
    flush_pending c out;
    Buffer.contents out
  end
