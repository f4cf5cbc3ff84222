(* Client for the provenance service.

   The transport is abstract — raw bytes out, raw bytes in — with
   three implementations: Unix-domain socket, TCP, and an in-process
   loopback that feeds the server's connection state machine directly.
   Everything above the transport (framing, handshake, session
   sealing, codecs) is shared, so a loopback test exercises the same
   protocol path as a socket client.

   Two calling styles share one wire state:

   - Blocking: every typed wrapper ([insert], [verify], ...) is one
     request/response exchange, exactly as before pipelining existed.
   - Pipelined: [request_async] seals and sends a request tagged with
     a fresh correlation id and returns immediately; [collect] later
     blocks for that id's response, stashing any other responses that
     arrive first.  Several requests may be in flight on the one
     connection; the server echoes each cid, so collection order is
     free.

   Failures come back as [Error msg], never exceptions. *)

module Frame = Tep_wire.Frame
module Message = Tep_wire.Message
module Session = Tep_wire.Session
module Participant = Tep_core.Participant
module Proof = Tep_tree.Proof
module Verifier = Tep_core.Verifier

type transport = {
  send : string -> unit;
  recv : unit -> string; (* some bytes; "" means the peer closed *)
  close : unit -> unit;
}

type session = {
  channel : Session.channel;
  mutable next_cid : int; (* correlation ids; 0 is the server's *)
  stashed : (int, Message.response) Hashtbl.t;
      (* responses that arrived while collecting a different cid *)
}

(* Client-side circuit breaker (overload control).  Consecutive
   Overloaded responses (or replay-exhausted connection failures) trip
   it; while open, writes fail fast locally instead of piling onto a
   server that is already shedding.  After [cooldown] seconds one
   probe write is let through (half-open): success closes the breaker,
   another failure re-opens it.  [now] is injectable so tests can march
   time forward deterministically. *)
type breaker_state = B_closed | B_open of float (* reopen deadline *) | B_half_open

type breaker = {
  mutable b_state : breaker_state;
  mutable b_consecutive : int; (* failures since the last success *)
  mutable b_threshold : int;
  mutable b_cooldown : float;
  mutable b_now : unit -> float;
}

type t = {
  mutable transport : transport;
  reconnect : (unit -> (transport, string) result) option;
      (* transport factory: how to redial the same endpoint *)
  mutable participant : Participant.t option;
      (* who we authenticated as, for transparent re-auth *)
  drbg : Tep_crypto.Drbg.t;
  reader : Frame.reader;
  mutable session : session option;
  mutable closed : bool;
  inflight : (int, Message.request) Hashtbl.t;
      (* sent but not yet answered, by cid — the replay set *)
  breaker : breaker;
}

(* reconnect-and-replay rounds per collect *)
let max_replays = 3

let make ?drbg ?reconnect transport =
  let drbg =
    match drbg with Some d -> d | None -> Tep_crypto.Drbg.create_system ()
  in
  {
    transport;
    reconnect;
    participant = None;
    drbg;
    reader = Frame.reader ();
    session = None;
    closed = false;
    inflight = Hashtbl.create 8;
    breaker =
      {
        b_state = B_closed;
        b_consecutive = 0;
        b_threshold = 5;
        b_cooldown = 1.0;
        b_now = Unix.gettimeofday;
      };
  }

let set_breaker ?threshold ?cooldown ?now t =
  let b = t.breaker in
  Option.iter (fun v -> b.b_threshold <- v) threshold;
  Option.iter (fun v -> b.b_cooldown <- v) cooldown;
  Option.iter (fun v -> b.b_now <- v) now

let breaker_state t =
  match t.breaker.b_state with
  | B_closed -> `Closed
  | B_open _ -> `Open
  | B_half_open -> `Half_open

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.transport.close ()
  end

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

(* Same codec path, no sockets: bytes handed to [send] go straight
   through the server's [feed]; its response bytes queue for [recv].
   Reconnecting opens a fresh server-side connection state machine
   against the same server — the loopback analogue of redialing. *)
let loopback ?drbg server =
  let fresh () =
    let conn = Tep_server.Server.conn server in
    let pending = Buffer.create 256 in
    {
      send =
        (fun bytes ->
          Buffer.add_string pending (Tep_server.Server.feed conn bytes));
      recv =
        (fun () ->
          let s = Buffer.contents pending in
          Buffer.clear pending;
          s);
      close = ignore;
    }
  in
  make ?drbg ~reconnect:(fun () -> Ok (fresh ())) (fresh ())

let write_all fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let fd_transport fd =
  let chunk = Bytes.create 4096 in
  {
    send =
      (fun s ->
        (* a peer that died mid-write surfaces on the next recv as a
           clean close, same as a peer that died between frames *)
        try write_all fd s
        with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
    recv =
      (fun () ->
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ""
        | n -> Bytes.sub_string chunk 0 n
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            "");
    close = (fun () -> try Unix.close fd with Unix.Unix_error _ -> ());
  }

(* Exponential backoff with deterministic jitter across connection
   attempts: a daemon that is still binding its socket is reachable a
   few hundred ms later — but a fleet of clients cut off by a restart
   must not retry in lockstep.  Attempt [i] sleeps
   [backoff * 2^i * (0.5 + u)] with [u] in [0,1) drawn from the
   session DRBG, so the schedule is reproducible from the client's
   seed yet decorrelated between clients.  Without a DRBG, [u] pins to
   0.5 and the schedule is exactly the historical [backoff * 2^i]. *)
let jitter_factor = function
  | None -> 1.
  | Some drbg ->
      0.5 +. (float_of_int (Tep_crypto.Drbg.uniform_int drbg 1024) /. 1024.)

let retry_delays ?drbg ?(retries = 5) ?(backoff = 0.05) () =
  List.init retries (fun i ->
      backoff *. (2. ** float_of_int i) *. jitter_factor drbg)

(* A server that closes the connection mid-write (drain, cap, crash)
   must surface as EPIPE on the write — which the retry/replay
   machinery already handles — not as a process-killing SIGPIPE. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let connect_with_retry ?(retries = 5) ?(backoff = 0.05) ?drbg make_fd =
  Lazy.force ignore_sigpipe;
  let rec go attempt delay =
    match make_fd () with
    | fd -> Ok fd
    | exception Unix.Unix_error (err, _, _) ->
        if attempt >= retries then
          Error
            (Printf.sprintf "connect failed after %d attempts: %s" (attempt + 1)
               (Unix.error_message err))
        else begin
          Unix.sleepf (delay *. jitter_factor drbg);
          go (attempt + 1) (delay *. 2.)
        end
  in
  go 0 backoff

let connect_unix ?drbg ?retries ?backoff path =
  let make_fd () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  let dial () =
    Result.map fd_transport (connect_with_retry ?retries ?backoff ?drbg make_fd)
  in
  Result.map (fun tr -> make ?drbg ~reconnect:dial tr) (dial ())

let connect_tcp ?drbg ?retries ?backoff ~host ~port () =
  let make_fd () =
    let addr =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.gethostbyname host with
        | h -> h.Unix.h_addr_list.(0)
        | exception Not_found ->
            raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host)))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  let dial () =
    Result.map fd_transport (connect_with_retry ?retries ?backoff ?drbg make_fd)
  in
  Result.map (fun tr -> make ?drbg ~reconnect:dial tr) (dial ())

(* ------------------------------------------------------------------ *)
(* Frame exchange                                                      *)
(* ------------------------------------------------------------------ *)

let rec read_frame t =
  match Frame.pull t.reader with
  | Frame.Frame { kind; payload; _ } -> Ok (kind, payload)
  | Frame.Need_more _ -> (
      match t.transport.recv () with
      | "" -> Error "connection closed by server"
      | chunk ->
          Frame.push t.reader chunk;
          read_frame t)
  | Frame.Oversized n ->
      Error (Printf.sprintf "oversized frame from server (%d bytes)" n)
  | Frame.Corrupt reason -> Error ("corrupt frame from server: " ^ reason)

let error_of code message =
  Error (Printf.sprintf "%s: %s" (Message.error_code_name code) message)

let send_clear t req =
  t.transport.send
    (Frame.to_string ~kind:Frame.Clear (Message.request_to_string req))

(* A clear frame after authentication can only be the server's dying
   error report (auth failure, corrupt frame); surface it as the
   call's error. *)
let read_clear_error payload =
  match Message.decode_response_exact payload 0 with
  | Ok (Message.Error_resp { code; message }) -> error_of code message
  | Ok _ -> Error "unexpected clear frame from server"
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Authentication                                                      *)
(* ------------------------------------------------------------------ *)

let authenticate t participant =
  if t.closed then Error "client closed"
  else if t.session <> None then Error "already authenticated"
  else begin
    let name = Participant.name participant in
    let client_nonce = Tep_crypto.Drbg.generate t.drbg Session.nonce_len in
    send_clear t (Message.Hello { name; nonce = client_nonce });
    match read_frame t with
    | Error e -> Error e
    | Ok (Frame.Sealed, _) -> Error "unexpected sealed frame during handshake"
    | Ok (Frame.Clear, payload) -> (
        match Message.decode_response_exact payload 0 with
        | Error e -> Error e
        | Ok (Message.Error_resp { code; message }) -> error_of code message
        | Ok (Message.Challenge { nonce = server_nonce }) -> (
            (* Key transport: the session secret travels RSA-encrypted
               to the participant's certificate key, and the transcript
               signature covers the ciphertext — an observer of the
               handshake cannot derive the session key, and only the
               holder of the participant's private key (the daemon's
               workspace copy) can complete it. *)
            let secret =
              Tep_crypto.Drbg.generate t.drbg Session.key_share_len
            in
            let key_share =
              Tep_crypto.Rsa.encrypt t.drbg
                (Participant.public_key participant)
                secret
            in
            let transcript =
              Session.transcript ~name ~client_nonce ~server_nonce ~key_share
            in
            let signature = Participant.sign participant transcript in
            send_clear t (Message.Auth { signature; key_share });
            let key = Session.derive_key ~transcript ~signature ~secret in
            let channel = Session.channel ~key ~sends:Session.To_server in
            match read_frame t with
            | Error e -> Error e
            | Ok (Frame.Clear, payload) -> read_clear_error payload
            | Ok (Frame.Sealed, payload) -> (
                match Session.open_next channel payload with
                | Error e -> Error ("server failed key confirmation: " ^ e)
                | Ok msg -> (
                    (* Auth_ok rides the freshly sealed channel, so it
                       already carries the reserved connection cid. *)
                    match Message.read_cid msg with
                    | None -> Error "auth response missing correlation id"
                    | Some (cid, off) when cid = Message.conn_cid -> (
                        match Message.decode_response_exact msg off with
                        | Error e -> Error e
                        | Ok (Message.Auth_ok _) ->
                            t.session <-
                              Some
                                {
                                  channel;
                                  next_cid = 1;
                                  stashed = Hashtbl.create 8;
                                };
                            t.participant <- Some participant;
                            Ok ()
                        | Ok (Message.Error_resp { code; message }) ->
                            error_of code message
                        | Ok _ -> Error "unexpected response to auth")
                    | Some _ -> Error "unexpected correlation id on auth")))
        | Ok _ -> Error "unexpected response to hello")
  end

let authenticated t = t.session <> None

(* ------------------------------------------------------------------ *)
(* Reconnect and replay                                                *)
(* ------------------------------------------------------------------ *)

let seal_request s ~cid req =
  Frame.to_string ~kind:Frame.Sealed
    (Session.seal_next s.channel
       (Message.with_cid cid (Message.request_to_string req)))

(* Socket-level send failures become errors; injected faults
   ({!Tep_fault.Fault.Crash}) still propagate so failpoint tests keep
   their semantics. *)
let try_send t bytes =
  match t.transport.send bytes with
  | () -> Ok ()
  | exception Unix.Unix_error (err, _, _) ->
      Error ("connection lost: " ^ Unix.error_message err)
  | exception Sys_error e -> Error ("connection lost: " ^ e)

(* Re-send every request the client never saw an answer for, on the
   fresh session, under the original correlation ids.  Writes carry
   their original request id inside [Submit_idem]/[Checkpoint_idem],
   so a replay the server already executed is answered from its dedup
   table — this is what makes replay safe. *)
let replay_inflight t s =
  let cids = Hashtbl.fold (fun cid _ acc -> cid :: acc) t.inflight [] in
  List.fold_left
    (fun acc cid ->
      match acc with
      | Error _ as e -> e
      | Ok () -> try_send t (seal_request s ~cid (Hashtbl.find t.inflight cid)))
    (Ok ())
    (List.sort compare cids)

(* Redial the endpoint, re-authenticate as the same participant, and
   replay the in-flight window.  Correlation ids keep counting up and
   stashed responses survive the swap, so outstanding [collect]s stay
   valid across the reconnect.  The dial+handshake+replay round itself
   retries a few times — on a faulty network the reconnect attempt is
   as exposed as the connection that just died. *)
let reestablish t =
  match (t.reconnect, t.participant) with
  | None, _ -> Error "no reconnector configured"
  | _, None -> Error "connection lost before authentication"
  | Some dial, Some participant ->
      let old = t.session in
      let rec go attempt last_err =
        if attempt >= 3 then Error last_err
        else begin
          (try t.transport.close ()
           with Unix.Unix_error _ | Sys_error _ -> ());
          match dial () with
          | Error e -> go (attempt + 1) ("reconnect failed: " ^ e)
          | Ok tr -> (
              t.transport <- tr;
              Frame.reset t.reader;
              t.session <- None;
              match authenticate t participant with
              | Error e -> go (attempt + 1) ("re-authentication failed: " ^ e)
              | Ok () -> (
                  match t.session with
                  | None -> go (attempt + 1) "re-authentication lost the session"
                  | Some s -> (
                      Option.iter
                        (fun o ->
                          s.next_cid <- o.next_cid;
                          Hashtbl.iter
                            (fun k v -> Hashtbl.replace s.stashed k v)
                            o.stashed)
                        old;
                      match replay_inflight t s with
                      | Ok () -> Ok ()
                      | Error e -> go (attempt + 1) ("replay failed: " ^ e))))
        end
      in
      go 0 "reconnect failed"

(* ------------------------------------------------------------------ *)
(* Circuit breaker transitions                                         *)
(* ------------------------------------------------------------------ *)

let breaker_note_failure b =
  b.b_consecutive <- b.b_consecutive + 1;
  match b.b_state with
  | B_half_open -> b.b_state <- B_open (b.b_now () +. b.b_cooldown)
  | B_open _ -> ()
  | B_closed ->
      if b.b_consecutive >= b.b_threshold then
        b.b_state <- B_open (b.b_now () +. b.b_cooldown)

let breaker_note_success b =
  b.b_consecutive <- 0;
  b.b_state <- B_closed

(* Admission gate for writes.  Open: fail fast locally.  Open past
   the cooldown: become half-open and let this one caller through as
   the probe.  Half-open: the probe is already out; fail fast. *)
let breaker_admit b =
  match b.b_state with
  | B_closed -> Ok ()
  | B_half_open -> Error "circuit breaker open (probe in flight)"
  | B_open until ->
      let now = b.b_now () in
      if now >= until then begin
        b.b_state <- B_half_open;
        Ok ()
      end
      else
        Error
          (Printf.sprintf "circuit breaker open (retry in %.0f ms)"
             ((until -. now) *. 1000.))

let is_write = function
  | Message.Submit_idem _ | Message.Checkpoint_idem _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Pipelined request/collect                                           *)
(* ------------------------------------------------------------------ *)

let rec request_async t req =
  if t.closed then Error "client closed"
  else
    match t.session with
    | None -> (
        (* A reconnectable client whose session died (a failed earlier
           recovery round) self-heals on the next request instead of
           staying wedged on "not authenticated". *)
        match (t.reconnect, t.participant) with
        | Some _, Some _ -> (
            match reestablish t with
            | Error e -> Error e
            | Ok () -> request_async t req)
        | _ -> Error "not authenticated")
    | Some s -> (
        match if is_write req then breaker_admit t.breaker else Ok () with
        | Error e -> Error e
        | Ok () -> (
            let cid = s.next_cid in
            s.next_cid <- cid + 1;
            Hashtbl.replace t.inflight cid req;
            match try_send t (seal_request s ~cid req) with
            | Ok () -> Ok cid
            | Error _ -> (
                (* the connection died under the send; the request is
                   already in the replay set, so a successful redial
                   carries it out *)
                match reestablish t with
                | Ok () -> Ok cid
                | Error e ->
                    Hashtbl.remove t.inflight cid;
                    Error e)))

(* Block for [cid]'s response.  Responses for other in-flight cids are
   stashed for their own [collect].  Channel-level failures — the
   transport dying, a corrupt or unverifiable frame, the server's
   reserved-cid error report — trigger up to [max_replays] transparent
   reconnect-and-replay rounds before surfacing the error. *)
let collect t cid =
  if t.closed then Error "client closed"
  else
    match t.session with
    | None -> Error "not authenticated"
    | Some s0 ->
        (* Only write outcomes feed the breaker: a healthy read path
           must neither reset nor trip a breaker that gates writes. *)
        let was_write =
          match Hashtbl.find_opt t.inflight cid with
          | Some req -> is_write req
          | None -> false
        in
        let finish outcome =
          Hashtbl.remove t.inflight cid;
          if was_write then (
            match outcome with
            | Ok (Message.Overloaded_resp _) | Error _ ->
                breaker_note_failure t.breaker
            | Ok _ -> breaker_note_success t.breaker);
          outcome
        in
        let rec attempt s replays =
          match Hashtbl.find_opt s.stashed cid with
          | Some resp ->
              Hashtbl.remove s.stashed cid;
              finish (Ok resp)
          | None -> read_loop s replays
        and read_loop s replays =
          match read_frame t with
          | Error e -> recover s replays e
          | Ok (Frame.Clear, payload) -> (
              match read_clear_error payload with
              | Error e -> recover s replays e
              | Ok _ -> recover s replays "unexpected clear frame from server")
          | Ok (Frame.Sealed, payload) -> (
              match Session.open_next s.channel payload with
              | Error e -> recover s replays ("response rejected: " ^ e)
              | Ok msg -> (
                  match Message.read_cid msg with
                  | None -> finish (Error "response missing correlation id")
                  | Some (rcid, off) -> (
                      match Message.decode_response_exact msg off with
                      | Error e -> finish (Error e)
                      | Ok resp when rcid = cid -> finish (Ok resp)
                      | Ok (Message.Error_resp { code; message })
                        when rcid = Message.conn_cid ->
                          recover s replays
                            (Printf.sprintf "%s: %s"
                               (Message.error_code_name code)
                               message)
                      | Ok resp ->
                          Hashtbl.replace s.stashed rcid resp;
                          Hashtbl.remove t.inflight rcid;
                          read_loop s replays)))
        and recover _s replays err =
          if replays >= max_replays then finish (Error err)
          else
            match reestablish t with
            | Error e -> finish (Error (err ^ "; " ^ e))
            | Ok () -> (
                match t.session with
                | None -> finish (Error err)
                | Some s' -> attempt s' (replays + 1))
        in
        attempt s0 0

(* Blocking exchange: exactly a pipeline of depth one. *)
let rpc t req =
  match request_async t req with Error e -> Error e | Ok cid -> collect t cid

(* Client-generated request ids: DRBG-backed, so deterministic under a
   seeded client yet unique across retries of *different* operations.
   An application-level retry of the *same* operation must reuse the
   rid it drew — that is the idempotency contract. *)
let fresh_rid t =
  Tep_crypto.Digest_algo.to_hex (Tep_crypto.Drbg.generate t.drbg 12)

(* ------------------------------------------------------------------ *)
(* Typed wrappers                                                      *)
(* ------------------------------------------------------------------ *)

let unexpected = Error "unexpected response from server"

let unwrap f = function
  | Error e -> Error e
  | Ok (Message.Error_resp { code; message }) -> error_of code message
  | Ok (Message.Overloaded_resp { retry_after_ms; message }) ->
      Error
        (Printf.sprintf "overloaded: %s (retry after %d ms)" message
           retry_after_ms)
  | Ok resp -> f resp

(* Every blocking write travels as [Submit_idem] under a fresh request
   id, so the reconnect-and-replay path (and any server-side
   duplication of the sealed frame) can never double-apply it. *)
let submit_with_rid t ~rid op = rpc t (Message.Submit_idem { rid; op })

let insert t ~table cells =
  submit_with_rid t ~rid:(fresh_rid t) (Message.Op_insert { table; cells })
  |> unwrap (function
       | Message.Submitted { row = Some row; records; _ } -> Ok (row, records)
       | _ -> unexpected)

let update t ~table ~row ~col value =
  submit_with_rid t ~rid:(fresh_rid t)
    (Message.Op_update { table; row; col; value })
  |> unwrap (function
       | Message.Submitted { records; _ } -> Ok records
       | _ -> unexpected)

let delete t ~table ~row =
  submit_with_rid t ~rid:(fresh_rid t) (Message.Op_delete { table; row })
  |> unwrap (function
       | Message.Submitted { records; _ } -> Ok records
       | _ -> unexpected)

let aggregate t ?(value = Tep_store.Value.Text "aggregate") inputs =
  submit_with_rid t ~rid:(fresh_rid t)
    (Message.Op_aggregate { inputs; value })
  |> unwrap (function
       | Message.Submitted { oid = Some oid; records; _ } -> Ok (oid, records)
       | _ -> unexpected)

(* Application-level idempotent retry: the caller owns the rid and
   reuses it when re-issuing an operation it is unsure about. *)
let submit_idem t ~rid op =
  submit_with_rid t ~rid op
  |> unwrap (function
       | Message.Submitted { row; oid; records } -> Ok (row, oid, records)
       | _ -> unexpected)

let query t ?oid () =
  rpc t (Message.Query oid)
  |> unwrap (function Message.Records rs -> Ok rs | _ -> unexpected)

let verify t ?oid () =
  rpc t (Message.Verify oid)
  |> unwrap (function
       | Message.Verified { report; store_audit } -> Ok (report, store_audit)
       | _ -> unexpected)

let audit t =
  rpc t Message.Audit
  |> unwrap (function
       | Message.Audited { report; examined; objects } ->
           Ok (report, examined, objects)
       | _ -> unexpected)

let checkpoint t =
  rpc t (Message.Checkpoint_idem { rid = fresh_rid t })
  |> unwrap (function
       | Message.Checkpointed { generation; lsn } -> Ok (generation, lsn)
       | _ -> unexpected)

let root_hash t =
  rpc t Message.Root_hash
  |> unwrap (function Message.Root { hash } -> Ok hash | _ -> unexpected)

(* Per-shard counters of a sharded server (one entry on an unsharded
   one), in shard order: each shard's batcher and signing totals,
   current queue depth, and its root-cache and proof-cache behaviour. *)
let shard_stats t =
  rpc t Message.Shard_stats
  |> unwrap (function
       | Message.Shard_stats_resp shards -> Ok shards
       | _ -> unexpected)

(* Health / readiness snapshot (the Ping RPC).  Reads the batcher
   counters without touching the engine locks, so it answers even
   while a slow commit is in flight. *)
type health = {
  ready : bool;  (* accepting writes (not draining) *)
  draining : bool;
  active : int;  (* concurrent socket connections *)
  queued_ops : int;  (* ops waiting in the group-commit queue *)
  h_batches : int;
  h_ops : int;
  dedup_hits : int;  (* retried writes answered without re-executing *)
  wal_failures : int;  (* group commits voided by WAL errors *)
  shed : int;  (* ops refused by admission control *)
  h_reaped : int;  (* connections closed by the server's idle reaper *)
}

let ping t =
  rpc t Message.Ping
  |> unwrap (function
       | Message.Pong
           {
             ready;
             draining;
             active;
             queued_ops;
             batches;
             ops;
             dedup_hits;
             wal_failures;
             shed;
             reaped;
           } ->
           Ok
             {
               ready;
               draining;
               active;
               queued_ops;
               h_batches = batches;
               h_ops = ops;
               dedup_hits;
               wal_failures;
               shed;
               h_reaped = reaped;
             }
       | _ -> unexpected)

(* ------------------------------------------------------------------ *)
(* Lineage (wire v5)                                                   *)
(* ------------------------------------------------------------------ *)

(* [f] over every element, in order, or the first error. *)
let map_all f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] xs

(* A polynomial that must fill its whole encoding. *)
let decode_poly what = Tep_store.Codec.exact ~what Tep_prov.Polynomial.read

(* A lineage answer, decoded: the polynomial (when the kind carries
   one), the derivation depth, and the oid list (inputs or impact). *)
type lineage = {
  l_poly : Tep_prov.Polynomial.t option;
  l_depth : int;
  l_oids : Tep_tree.Oid.t list;
}

let lineage t ~kind ~oid =
  rpc t (Message.Lineage { kind; oid })
  |> unwrap (function
       | Message.Lineage_resp { poly; depth; oids } ->
           Result.map
             (fun l_poly -> { l_poly; l_depth = depth; l_oids = oids })
             (if poly = "" then Ok None
              else Result.map Option.some (decode_poly "lineage" poly))
       | _ -> unexpected)

(* An annotated result row: its row variable (the forest oid under an
   engine-backed server), its cells, and its provenance polynomial. *)
type annotated_row = {
  ar_var : int;
  ar_cells : Tep_store.Value.t array;
  ar_poly : Tep_prov.Polynomial.t;
}

(* Annotated query: plain select when [agg] is omitted, aggregate
   otherwise.  The returned annotation is decoded but NOT verified —
   callers holding a participant directory check it with
   {!Tep_prov.Annot.verify} (bin/provdb does). *)
let annotated_query t ~table ?(where = "") ?(agg = "") () =
  rpc t (Message.Annotated_query { table; where; agg })
  |> unwrap (function
       | Message.Annotated_resp { arows; avalue; annot } -> (
           match Tep_prov.Annot.of_encoded annot with
           | Error e -> Error ("annotation: " ^ e)
           | Ok a ->
               map_all
                 (fun (v, cells, poly) ->
                   Result.map
                     (fun p -> { ar_var = v; ar_cells = cells; ar_poly = p })
                     (decode_poly "row" poly))
                 arows
               |> Result.map (fun rows -> (rows, avalue, a)))
       | _ -> unexpected)

(* ------------------------------------------------------------------ *)
(* Membership proofs and sampled audit (wire v6)                       *)
(* ------------------------------------------------------------------ *)

(* One proven leaf: the decoded membership proof, the exact encoded
   bytes it arrived as (size accounting), and the leaf's provenance
   object (its record-DAG closure, for the checksum-chain check). *)
type proof_item = {
  pf_proof : Proof.t;
  pf_encoded : string;
  pf_records : Tep_core.Record.t list;
}

type proofs = {
  pf_shard : int; (* owning shard's index, as claimed by the server *)
  pf_shard_roots : string list; (* per-shard engine roots, shard order *)
  pf_items : proof_item list;
}

(* Fetch membership proofs for one cell ([col]) or a whole row's cells
   (no [col]) under the published root.  Decoded but NOT verified —
   nothing the server sent is trusted until {!check_proofs} rechecks
   it against a root obtained independently. *)
let prove t ~table ~row ?col () =
  rpc t (Message.Prove { table; row; col })
  |> unwrap (function
       | Message.Proof_resp { shard; shard_roots; items } -> (
           let item (bytes, records) =
             Result.map
               (fun p ->
                 { pf_proof = p; pf_encoded = bytes; pf_records = records })
               (Proof.of_encoded bytes)
           in
           match map_all item items with
           | Error e -> Error e
           | Ok [] -> Error "proof: empty proof set"
           | Ok _ when shard < 0 || shard >= List.length shard_roots ->
               Error "proof: shard index out of range"
           | Ok items ->
               Ok
                 {
                   pf_shard = shard;
                   pf_shard_roots = shard_roots;
                   pf_items = items;
                 })
       | _ -> unexpected)

(* Recheck everything a proof answer claims against the ONE hash the
   caller already trusts (a [root_hash] fetched and pinned earlier, or
   a published root from out of band).  Nothing the server said is
   believed a priori:

   - the shard roots must recombine — root-of-roots for a sharded
     answer, the single root verbatim otherwise — into exactly
     [trusted_root] (the shard-layer step of the chain);
   - each membership proof must hash-chain its leaf to the owning
     shard's root (the in-shard Merkle step);
   - each leaf's provenance records must pass full recipient-side
     verification (R1–R8) with the proven (oid, value) snapshot as
     the delivered object — binding the proven value to its signed
     checksum chain.

   [Ok report] means every hash chain checked out; the report may
   still carry chain violations (tampered provenance), which callers
   treat exactly like a failed remote verify.  [Error] is a broken or
   forged proof — equally tampering evidence, just detected earlier. *)
let check_proofs ~algo ~directory ~trusted_root (p : proofs) =
  let published = Tep_core.Shards.published_root algo p.pf_shard_roots in
  if not (String.equal published trusted_root) then
    Error "proof: shard roots do not recombine into the trusted root"
  else
    match List.nth_opt p.pf_shard_roots p.pf_shard with
    | None -> Error "proof: shard index out of range"
    | Some shard_root ->
        let rec go acc = function
          | [] -> Ok (Verifier.concat (List.rev acc))
          | it :: rest -> (
              match Proof.verify algo ~root_hash:shard_root it.pf_proof with
              | Error e -> Error e
              | Ok () ->
                  let data =
                    Tep_tree.Subtree.atom it.pf_proof.Proof.leaf_oid
                      it.pf_proof.Proof.leaf_value
                  in
                  let r = Verifier.verify ~algo ~directory ~data it.pf_records in
                  go (r :: acc) rest)
        in
        go [] p.pf_items

(* Seed-reproducible sampled audit: the server verifies a DRBG-chosen
   α-fraction (ppm) of live objects.  Returns (report, sampled,
   population); the caller derives the detection bound
   P(miss k tampered) ≤ (1−α)^k from α alone. *)
let audit_sample t ~seed ~alpha_ppm =
  rpc t (Message.Audit_sample { seed; alpha_ppm })
  |> unwrap (function
       | Message.Audit_sample_resp { report; sampled; population } ->
           Ok (report, sampled, population)
       | _ -> unexpected)

(* ------------------------------------------------------------------ *)
(* Async submit wrappers (pipelining)                                  *)
(* ------------------------------------------------------------------ *)

let submit_async t op =
  request_async t (Message.Submit_idem { rid = fresh_rid t; op })

let collect_submitted t cid =
  collect t cid
  |> unwrap (function
       | Message.Submitted { row; oid; records } -> Ok (row, oid, records)
       | _ -> unexpected)
