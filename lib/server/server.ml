(* provdbd — the networked provenance service.

   The protocol logic lives entirely in a [conn] state machine whose
   single entry point is {!feed}: bytes in, response bytes out.  The
   {!Evloop} reactor pumps Unix-domain and TCP sockets through it; the
   client library's loopback transport calls it directly — so the
   in-process test path exercises exactly the frames, codecs and
   session sealing that cross a real socket.

   Authentication is the {!Tep_wire.Session} challenge–response: the
   client names a PKI-registered participant and signs the handshake
   transcript with that participant's key; the server checks the
   signature against the certificate in the engine's directory.  The
   workspace keeps participant credentials server-side, so after
   authentication the server signs submitted operations with the same
   participant identity the client proved it holds.

   Dispatch concurrency (the high-throughput path):

   - Read-only requests — Query, Verify, Audit, Root-hash — run
     concurrently across connections under the shared side of a
     writer-preferring {!Rwlock}.  The engine itself is never mutated
     by these paths; the two stateful read-side resources (the Merkle
     root cache and the incremental-audit checkpoint) each sit behind
     a small dedicated mutex.
   - Submits from any number of connections funnel into a group-commit
     batcher: the first arrival becomes the leader, drains the queue,
     and executes everything queued as one {!Engine.complex_op} per
     participant under the exclusive write lock — one signing pass,
     one Merkle dirty-path rehash, one WAL append+flush per batch
     instead of per op.  Every client still receives its own per-op
     response; a WAL failure mid-batch fails that whole batch
     atomically (recovery replays to the last commit marker).
   - Checkpoint takes every shard's write lock directly.

   Sharding: the service can own several engines, each a shard of the
   provenance forest with its own WAL, checkpoint directory, rwlock
   and group-commit batcher.  Tables route to shards by a stable hash
   of the table name ({!Tep_core.Shards.shard_of_table}); the
   published root is the Merkle root-of-roots over the per-shard
   engine roots.  Reads fan out under per-shard read locks;
   single-shard writes commit fully concurrently through their own
   shard's batcher; only jobs that span shards serialise on the
   coordinator, which commits them under the two-phase marker
   protocol ({!Tep_core.Shards.commit_cross}) against its own
   decision log.  Every multi-lock path acquires shard locks in
   ascending index order, so the lock graph stays acyclic.  A
   single-shard server ([?shards] omitted) behaves byte-for-byte like
   the unsharded service, including its root hash.

   Once a session is established, sealed messages carry a varint
   correlation id (see {!Message.with_cid}), echoed in responses, so a
   connection may pipeline several requests; consecutive pipelined
   Submits parsed from one input chunk join the batcher as a single
   job. *)

module Frame = Tep_wire.Frame
module Message = Tep_wire.Message
module Session = Tep_wire.Session
module Engine = Tep_core.Engine
module Participant = Tep_core.Participant
module Audit = Tep_core.Audit
module Provstore = Tep_core.Provstore
module Shards = Tep_core.Shards
module Prov_index = Tep_core.Prov_index
module Lineage = Tep_prov.Lineage
module Polynomial = Tep_prov.Polynomial
module Annotate = Tep_prov.Annotate
module Annot = Tep_prov.Annot
module Query = Tep_store.Query
module Oid = Tep_tree.Oid
module Forest = Tep_tree.Forest
module Proof = Tep_tree.Proof
module Tree_view = Tep_tree.Tree_view
module Fault = Tep_fault.Fault

(* Everything a connection reads passes through this failpoint, so
   tests can inject torn reads and bit flips into the byte stream
   without a real flaky network. *)
let read_site = "wire.server.read"
let () = Fault.register read_site

(* Hit on the read-side dispatch of every Verify request; arming it
   with [Fault.Delay] holds a verification in flight, which is how the
   tests observe that readers are not serialised. *)
let verify_site = "server.dispatch.verify"
let () = Fault.register verify_site

(* Hit by a cross-shard commit right after it releases the shards'
   write locks; arming it with [Fault.Delay] holds the commit in that
   window, which is how the tests check that a concurrent Prove already
   sees the commit's root and proof-epoch marks. *)
let cross_committed_site = "server.cross.committed"
let () = Fault.register cross_committed_site

(* ------------------------------------------------------------------ *)
(* Group-commit batcher                                                *)
(* ------------------------------------------------------------------ *)

type submit_result =
  | R_pending
  | R_row of int (* insert: fresh row id *)
  | R_oid of Oid.t (* aggregate: fresh object *)
  | R_unit (* update / delete *)
  | R_err of string (* per-op rejection (batch still commits) *)

(* Commit-level failure classification: WAL trouble gets its own wire
   code (and counter) so operators can tell a sick disk from a logic
   bug, and so clients know a retry with the same rid will re-execute
   (nothing was committed). *)
type batch_fail = F_wal of string | F_failed of string

(* One enqueued unit of submit work: all ops of one job come from one
   connection (hence one participant) and are answered positionally. *)
type submit_job = {
  j_participant : Participant.t;
  j_ops : Message.op array;
  j_results : submit_result array;
  mutable j_records : int; (* the batch commit's records_emitted *)
  mutable j_failed : batch_fail option; (* commit-level failure: atomic *)
  mutable j_done : bool;
}

type batcher = {
  b_mutex : Mutex.t;
  b_cond : Condition.t; (* job completion; leader handoff *)
  mutable b_queue : submit_job list; (* newest first *)
  b_queued : int Atomic.t;
      (* ops in [b_queue]: changed under b_mutex at enqueue and drain,
         read without it by Ping and Shard_stats *)
  mutable b_leader : bool; (* a leader is currently draining *)
}

(* One shard's service counters, the single source of both Ping's
   totals and the Shard_stats answer.  Plain atomics: every writer
   bumps them without taking a lock, and readers never wait on a
   commit. *)
type counters = {
  c_batches : int Atomic.t; (* group commits executed *)
  c_ops : int Atomic.t; (* ops carried by those commits *)
  c_sign_wall_us : int Atomic.t; (* wall-clock µs inside commit signing *)
  c_sign_cpu_us : int Atomic.t; (* cumulative per-signature µs *)
  c_root_recomputes : int Atomic.t; (* root-cache misses *)
  c_root_hits : int Atomic.t;
  c_proofs_served : int Atomic.t;
  c_proof_hits : int Atomic.t; (* answered from the LRU *)
  c_proof_misses : int Atomic.t; (* rebuilt off the Merkle cache *)
  c_proof_bytes : int Atomic.t; (* cumulative encoded bytes served *)
}

(* ------------------------------------------------------------------ *)
(* Idempotency: the request-id dedup table                             *)
(* ------------------------------------------------------------------ *)

(* A client retrying a write it never saw an answer for (dropped
   connection, lost response) re-sends it under the same request id.
   The table remembers the outcome of every recently completed write
   keyed by rid, so the retry returns the original result instead of
   executing twice.  [D_pending] marks a rid whose original is still
   in flight: a duplicate arriving meanwhile (the retry raced the
   original) waits for that outcome rather than re-executing. *)
type dedup_state = D_pending | D_done of Message.response

type dedup = {
  d_mutex : Mutex.t;
  d_cond : Condition.t; (* D_pending -> D_done transitions *)
  d_tbl : (string, dedup_state) Hashtbl.t;
  d_order : string Queue.t; (* completed rids, oldest first (eviction) *)
  d_cap : int; (* completed entries kept; pendings are never evicted *)
}

(* Admission-control knobs, mutable so tests and the overload bench
   can reconfigure a live server. *)
type admission = {
  mutable max_queue_ops : int;
      (* shed a job when a leader is active and the queued-op backlog
         would exceed this; < 0 sheds every write (admission closed) *)
  mutable max_session_inflight : int;
      (* cap on one connection's buffered pipelined submits *)
  mutable retry_after_ms : int; (* backoff hint carried by the shed *)
}

(* One shard: an engine plus every per-shard piece of server state.
   The rwlock, the batcher, the audit checkpoint and the cached root
   are all shard-local, so a write to shard k contends with — and
   invalidates — shard k only. *)
type shard = {
  s_index : int;
  s_engine : Engine.t;
  s_rwlock : Rwlock.t; (* readers share; this shard's commits exclude *)
  s_batcher : batcher;
  s_counters : counters;
  s_checkpoint : (string * Tep_store.Wal.t) option;
      (* checkpoint directory + WAL, when the daemon owns durability *)
  s_audit_cp : Audit.checkpoint ref;
  s_audit_lock : Mutex.t; (* audit checkpoint ref, among readers *)
  s_root_lock : Mutex.t; (* root cache, among readers *)
  s_root_cache : string option ref; (* last published root of this shard *)
  s_root_dirty : bool Atomic.t;
      (* set by every commit on this shard (and only this shard), under
         its write lock; the next root read recomputes.  An atomic, not
         the root_lock, so writers never wait on readers — taking
         s_root_lock under the write lock would deadlock against a
         reader holding s_root_lock while waiting for a read lock. *)
  (* Hot leaf→root membership proofs (encoded), keyed by leaf oid.  A
     bounded LRU: a proof built at epoch e is replayable verbatim
     until the next commit on THIS shard bumps the epoch — writes to
     other shards leave it warm.  Mutated only under s_root_lock (the
     Prove path holds it for the whole root+proof critical section),
     so no lock of its own. *)
  s_proof_cache : (Oid.t, proof_entry) Hashtbl.t;
  s_proof_tick : int ref; (* LRU clock, under s_root_lock *)
  s_proof_epoch : int Atomic.t;
      (* bumped by every commit on this shard, next to s_root_dirty:
         cached proofs from earlier epochs can never be served again *)
}

and proof_entry = {
  pe_epoch : int;
  pe_bytes : string; (* Proof.to_string form, ready for the wire *)
  mutable pe_last : int; (* s_proof_tick at last use *)
}

type t = {
  shards : shard array; (* at least one; index = shard id *)
  coord : Tep_store.Wal.t option;
      (** the 2PC decision log; required for cross-shard commits *)
  coord_lock : Mutex.t; (* serialises cross-shard transactions *)
  cross_busy : bool Atomic.t; (* a 2PC commit is in flight (quiesce) *)
  txid_seq : int Atomic.t; (* per-process suffix for fresh txids *)
  txid_epoch : string; (* random per-boot prefix: txids never recur *)
  participants : (string * Participant.t) list;
  pool : Tep_parallel.Pool.t option;
  drbg : Tep_crypto.Drbg.t;
  drbg_lock : Mutex.t;
      (** handshakes run on the event loop's worker threads; DRBG state
          is not thread-safe, and interleaved generates could repeat
          nonces *)
  max_payload : int;
  request_timeout : float;
  max_connections : int;
  active : int Atomic.t; (* concurrent socket connections *)
  dedup_hits : int Atomic.t; (* retried writes answered from the dedup table *)
  shed : int Atomic.t; (* ops refused by admission control *)
  wal_failures : int Atomic.t; (* commits voided by WAL errors *)
  dedup : dedup;
  admission : admission;
  draining : bool Atomic.t; (* drain begun: shed all new writes *)
  io_workers : int; (* protocol worker threads per serve loop *)
  idle_timeout : float; (* reap quiet connections after this long *)
  reaped : int Atomic.t; (* idle-timeout reaps, reported in Ping *)
  idle_mutex : Mutex.t;
  idle_cond : Condition.t;
      (** signalled whenever a shard leader finishes its drain or a
          cross-shard commit completes — the only transitions that can
          make an already-draining server idle.  Lock order:
          [idle_mutex] may be held while taking a batcher's [b_mutex]
          (quiesce probing idleness); never the reverse — signallers
          release [b_mutex]/[coord_lock] first. *)
  wakers : (int * (unit -> unit)) list ref;
  wakers_lock : Mutex.t;
      (** one registered waker per live serve loop; {!wake} nudges
          them all so a flipped stop flag is seen now, not at the next
          housekeeping tick *)
  waker_seq : int Atomic.t;
}

let make_batcher () =
  {
    b_mutex = Mutex.create ();
    b_cond = Condition.create ();
    b_queue = [];
    b_queued = Atomic.make 0;
    b_leader = false;
  }

let make_counters () =
  let z () = Atomic.make 0 in
  {
    c_batches = z ();
    c_ops = z ();
    c_sign_wall_us = z ();
    c_sign_cpu_us = z ();
    c_root_recomputes = z ();
    c_root_hits = z ();
    c_proofs_served = z ();
    c_proof_hits = z ();
    c_proof_misses = z ();
    c_proof_bytes = z ();
  }

let make_shard i (engine, checkpoint) =
  {
    s_index = i;
    s_engine = engine;
    s_rwlock = Rwlock.create ();
    s_batcher = make_batcher ();
    s_counters = make_counters ();
    s_checkpoint = checkpoint;
    s_audit_cp = ref Audit.empty;
    s_audit_lock = Mutex.create ();
    s_root_lock = Mutex.create ();
    s_root_cache = ref None;
    s_root_dirty = Atomic.make true;
    s_proof_cache = Hashtbl.create 64;
    s_proof_tick = ref 0;
    s_proof_epoch = Atomic.make 0;
  }

let create ?(max_payload = Frame.default_max_payload) ?(request_timeout = 30.)
    ?(max_connections = 64) ?(max_queue_ops = 512)
    ?(max_session_inflight = 64) ?(retry_after_ms = 25)
    ?(dedup_capacity = 1024) ?drbg ?pool ?checkpoint ?(shards = []) ?coord
    ?(io_workers = 4) ?(idle_timeout = 300.) ~participants engine =
  let drbg =
    match drbg with Some d -> d | None -> Tep_crypto.Drbg.create_system ()
  in
  let txid_epoch =
    let raw = Tep_crypto.Drbg.generate drbg 8 in
    let buf = Buffer.create 16 in
    String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) raw;
    Buffer.contents buf
  in
  {
    shards =
      Array.of_list (List.mapi make_shard ((engine, checkpoint) :: shards));
    coord;
    coord_lock = Mutex.create ();
    cross_busy = Atomic.make false;
    txid_seq = Atomic.make 0;
    txid_epoch;
    participants;
    pool;
    drbg;
    drbg_lock = Mutex.create ();
    max_payload;
    request_timeout;
    max_connections;
    active = Atomic.make 0;
    dedup_hits = Atomic.make 0;
    shed = Atomic.make 0;
    wal_failures = Atomic.make 0;
    dedup =
      {
        d_mutex = Mutex.create ();
        d_cond = Condition.create ();
        d_tbl = Hashtbl.create 64;
        d_order = Queue.create ();
        d_cap = max 1 dedup_capacity;
      };
    admission = { max_queue_ops; max_session_inflight; retry_after_ms };
    draining = Atomic.make false;
    io_workers;
    idle_timeout;
    reaped = Atomic.make 0;
    idle_mutex = Mutex.create ();
    idle_cond = Condition.create ();
    wakers = ref [];
    wakers_lock = Mutex.create ();
    waker_seq = Atomic.make 0;
  }

let engine t = t.shards.(0).s_engine
let shard_count t = Array.length t.shards
let directory t = Engine.directory (engine t)

(* Fresh coordinator transaction id.  The per-boot random epoch keeps
   txids from different daemon lifetimes distinct even though the
   coordinator log survives restarts — a replayed Prepare from a dead
   process must never match a fresh Decide. *)
let fresh_txid t =
  Printf.sprintf "%s-%d" t.txid_epoch (Atomic.fetch_and_add t.txid_seq 1)

let set_admission ?max_queue_ops ?max_session_inflight ?retry_after_ms t =
  let a = t.admission in
  Option.iter (fun v -> a.max_queue_ops <- v) max_queue_ops;
  Option.iter (fun v -> a.max_session_inflight <- v) max_session_inflight;
  Option.iter (fun v -> a.retry_after_ms <- v) retry_after_ms

let active_connections t = Atomic.get t.active
let reaped_connections t = Atomic.get t.reaped

(* ------------------------------------------------------------------ *)
(* Serve-loop wakeups                                                  *)
(* ------------------------------------------------------------------ *)

(* Each running serve loop registers a waker (its reactor's
   wakeup-pipe write); [wake] nudges them all.  Callers flip their stop
   atomic (or [begin_drain]) first, then wake — the loops re-check the
   flag on every wakeup, so shutdown latency is a syscall, not a poll
   interval. *)
let register_waker t f =
  let id = Atomic.fetch_and_add t.waker_seq 1 in
  Mutex.lock t.wakers_lock;
  t.wakers := (id, f) :: !(t.wakers);
  Mutex.unlock t.wakers_lock;
  id

let unregister_waker t id =
  Mutex.lock t.wakers_lock;
  t.wakers := List.filter (fun (i, _) -> i <> id) !(t.wakers);
  Mutex.unlock t.wakers_lock

let wake t =
  Mutex.lock t.wakers_lock;
  let ws = !(t.wakers) in
  Mutex.unlock t.wakers_lock;
  List.iter (fun (_, f) -> try f () with _ -> ()) ws

(* ------------------------------------------------------------------ *)
(* Drain                                                               *)
(* ------------------------------------------------------------------ *)

let begin_drain t = Atomic.set t.draining true
let draining t = Atomic.get t.draining

(* Called (with no batcher/coordinator lock held) after every
   transition that can complete a drain: a leader handing back an
   empty queue, a 2PC commit finishing. *)
let signal_idle t =
  Mutex.lock t.idle_mutex;
  Condition.broadcast t.idle_cond;
  Mutex.unlock t.idle_mutex

(* Wait (bounded) until no batch leader is running on any shard, no
   job is queued anywhere, and no cross-shard commit is in flight.
   With [begin_drain] already in effect nothing new can join any
   queue, so an idle observation is stable — the daemon may then flush
   the WALs and checkpoint without racing a commit.

   Event-driven: leaders and cross-shard commits broadcast
   [idle_cond] as they finish, so the wait here is a condition wait,
   not a fixed-interval poll.  OCaml's [Condition] has no timed wait;
   the deadline is enforced by a one-shot watchdog thread, spawned
   (outside [idle_mutex]) only when the server is actually busy at
   entry.  The watchdog naps in short slices and exits as soon as
   quiesce returns, so repeated drain/quiesce cycles never accumulate
   sleeping threads. *)
let quiesce ?(timeout = 10.) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let shard_idle s =
    let b = s.s_batcher in
    Mutex.lock b.b_mutex;
    let idle = b.b_queue = [] && not b.b_leader in
    Mutex.unlock b.b_mutex;
    idle
  in
  let idle () =
    (not (Atomic.get t.cross_busy)) && Array.for_all shard_idle t.shards
  in
  if idle () then true
  else begin
    let finished = Atomic.make false in
    ignore
      (Thread.create
         (fun () ->
           let rec nap () =
             if not (Atomic.get finished) then begin
               let left = deadline -. Unix.gettimeofday () in
               if left > 0. then begin
                 Thread.delay (Float.min left 0.05);
                 nap ()
               end
               else signal_idle t
             end
           in
           nap ())
         ());
    Mutex.lock t.idle_mutex;
    let result = ref (idle ()) in
    while (not !result) && Unix.gettimeofday () < deadline do
      Condition.wait t.idle_cond t.idle_mutex;
      result := idle ()
    done;
    Mutex.unlock t.idle_mutex;
    Atomic.set finished true;
    !result
  end

(* ------------------------------------------------------------------ *)
(* Dedup table operations                                              *)
(* ------------------------------------------------------------------ *)

(* Claim a rid for execution.  [`Run]: this caller owns the rid and
   must later call {!dedup_resolve}.  [`Hit resp]: the rid already
   completed; answer with the original response.  A pending rid makes
   the duplicate wait for the original's outcome — two executions of
   one rid can never overlap. *)
let dedup_claim t rid =
  let d = t.dedup in
  Mutex.lock d.d_mutex;
  let rec go () =
    match Hashtbl.find_opt d.d_tbl rid with
    | Some (D_done resp) ->
        Mutex.unlock d.d_mutex;
        Atomic.incr t.dedup_hits;
        `Hit resp
    | Some D_pending ->
        Condition.wait d.d_cond d.d_mutex;
        go ()
    | None ->
        Hashtbl.replace d.d_tbl rid D_pending;
        Mutex.unlock d.d_mutex;
        `Run
  in
  go ()

(* Only deterministic outcomes are worth caching: a Submitted (the op
   committed) or a Bad_request (the engine rejected it without
   touching state; a blind retry gets the same answer).  Commit-level
   failures and sheds are transient — the retry should re-execute. *)
let dedup_cacheable (resp : Message.response) =
  match resp with
  | Message.Submitted _ | Message.Checkpointed _ -> true
  | Message.Error_resp { code = Message.Bad_request; _ } -> true
  | _ -> false

(* Publish a claimed rid's outcome.  A cacheable response is kept
   (bounded FIFO eviction of completed entries); any other forgets the
   rid so a client retry re-executes — used for commit-level failures,
   where nothing was applied and re-running is the correct recovery. *)
let dedup_resolve t rid resp =
  let d = t.dedup in
  Mutex.lock d.d_mutex;
  if dedup_cacheable resp then begin
    Hashtbl.replace d.d_tbl rid (D_done resp);
    Queue.push rid d.d_order;
    while Queue.length d.d_order > d.d_cap do
      Hashtbl.remove d.d_tbl (Queue.pop d.d_order)
    done
  end
  else Hashtbl.remove d.d_tbl rid;
  Condition.broadcast d.d_cond;
  Mutex.unlock d.d_mutex

let gen_nonce t =
  Mutex.lock t.drbg_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.drbg_lock)
    (fun () -> Tep_crypto.Drbg.generate t.drbg Session.nonce_len)

(* ------------------------------------------------------------------ *)
(* Connection state machine                                            *)
(* ------------------------------------------------------------------ *)

type established = {
  participant : Participant.t;
  keyed : Session.keyed; (* precomputed HMAC key schedule *)
  mutable recv_seq : int;
  mutable send_seq : int;
}

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

type conn = {
  server : t;
  inbox : Buffer.t; (* unconsumed input; compacted once per frame *)
  mutable need : int; (* skip parse attempts below this many bytes *)
  mutable phase : phase;
  mutable pending : (int * string * Message.op) list;
      (* consecutive pipelined Submits (cid, rid, op), newest first,
         awaiting a flush into the batcher as one job *)
}

let conn server =
  {
    server;
    inbox = Buffer.create 256;
    need = Frame.header_len;
    phase = Expect_hello;
    pending = [];
  }

let alive c = c.phase <> Dead

let error_resp code message = Message.Error_resp { code; message }

(* Frame a response in whatever protection the connection has reached:
   clear during the handshake, sealed (tagged, sequenced, correlation-
   id-prefixed) once the session key exists.  A response too large for
   the peer's frame limit degrades to a Too_large error rather than an
   oversized frame the peer must reject as abusive. *)
let frame_response ?(cid = Message.conn_cid) c resp =
  let limit =
    c.server.max_payload
    - (match c.phase with Established _ -> Session.tag_len | _ -> 0)
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
              (String.length msg) c.server.max_payload))
  in
  match c.phase with
  | Established s ->
      let sealed =
        Session.seal_keyed s.keyed ~dir:Session.To_client ~seq:s.send_seq msg
      in
      s.send_seq <- s.send_seq + 1;
      Frame.to_string ~kind:Frame.Sealed sealed
  | _ -> Frame.to_string ~kind:Frame.Clear msg

let kill ?cid c resp =
  let out = frame_response ?cid c resp in
  c.phase <- Dead;
  c.pending <- [];
  Buffer.clear c.inbox;
  out

(* ------------------------------------------------------------------ *)
(* Submit execution (the write side)                                   *)
(* ------------------------------------------------------------------ *)

let apply_op engine participant (op : Message.op) : submit_result =
  match op with
  | Message.Op_insert { table; cells } -> (
      match Engine.insert_row engine participant ~table cells with
      | Ok row -> R_row row
      | Error e -> R_err e)
  | Message.Op_update { table; row; col; value } -> (
      match Engine.update_cell engine participant ~table ~row ~col value with
      | Ok () -> R_unit
      | Error e -> R_err e)
  | Message.Op_delete { table; row } -> (
      match Engine.delete_row engine participant ~table row with
      | Ok () -> R_unit
      | Error e -> R_err e)
  | Message.Op_aggregate { inputs; value } -> (
      match Engine.aggregate_objects engine participant ~value inputs with
      | Ok oid -> R_oid oid
      | Error e -> R_err e)

(* The wire answer for one op of a commit that emitted [records]
   provenance records. *)
let response_of_result ~records = function
  | R_err e -> error_resp Message.Bad_request e
  | R_row row -> Message.Submitted { row = Some row; oid = None; records }
  | R_oid oid -> Message.Submitted { row = None; oid = Some oid; records }
  | R_unit -> Message.Submitted { row = None; oid = None; records }
  | R_pending ->
      (* unreachable: a commit fills every slot before it answers *)
      error_resp Message.Failed "commit left the operation pending"

(* A commit changed this shard's tree: only this shard's cached root
   and cached proofs go stale.  Callers hold the shard's write lock,
   so any reader admitted after the commit sees both marks (cheap
   atomics; see s_root_dirty for why not the root lock). *)
let mark_committed (s : shard) =
  Atomic.set s.s_root_dirty true;
  Atomic.incr s.s_proof_epoch

(* Counter updates for one shard's part of a commit: [note_batch] at
   arrival (drain, or a cross-shard job's start), [note_signed] once
   the commit is durable. *)
let note_batch (s : shard) ~ops =
  Atomic.incr s.s_counters.c_batches;
  ignore (Atomic.fetch_and_add s.s_counters.c_ops ops)

let note_signed (s : shard) (m : Engine.metrics) =
  let add_us counter seconds =
    ignore (Atomic.fetch_and_add counter (int_of_float (seconds *. 1e6)))
  in
  add_us s.s_counters.c_sign_wall_us m.Engine.sign_s;
  add_us s.s_counters.c_sign_cpu_us m.Engine.sign_cpu_s

(* The body of one complex operation: apply every slot's op in order
   and [store] its outcome.  If nothing survived there is nothing to
   commit: erroring out of the body skips the (empty) commit, exactly
   like a failed singleton submit. *)
let apply_each engine participant slots ~op ~store =
  let any_ok = ref false in
  List.iter
    (fun x ->
      let r = apply_op engine participant (op x) in
      (match r with R_err _ -> () | _ -> any_ok := true);
      store x r)
    slots;
  if !any_ok then Ok () else Error "no operation in the batch succeeded"

(* Execute one drained queue under the write lock.  Jobs are grouped
   by participant ({!Engine.complex_op} signs a batch as one identity);
   within a group, ops run in arrival order inside a single complex
   operation, so the whole group costs one signing pass over the
   touched set, one root rehash, and one WAL append+flush.

   Failure semantics: an op the engine rejects (bad table, missing
   row) gets its own error response while the rest of the batch
   commits — same per-op outcome a singleton submit would see.  If the
   commit itself fails (WAL error, simulated crash), every op of the
   group fails atomically: nothing was durably recorded, and recovery
   rolls the store back to the last commit marker. *)
let run_batch t (shard : shard) (jobs : submit_job list) =
  Rwlock.with_write shard.s_rwlock (fun () ->
      (* Group by participant, preserving arrival order of both the
         groups and the ops within each. *)
      let order : string list ref = ref [] in
      let groups : (string, (submit_job * int) list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      List.iter
        (fun job ->
          let name = Participant.name job.j_participant in
          let bucket =
            match Hashtbl.find_opt groups name with
            | Some b -> b
            | None ->
                let b = ref [] in
                Hashtbl.replace groups name b;
                order := name :: !order;
                b
          in
          Array.iteri (fun i _ -> bucket := (job, i) :: !bucket) job.j_ops)
        jobs;
      List.iter
        (fun name ->
          let entries = List.rev !(Hashtbl.find groups name) in
          let participant = (fst (List.hd entries)).j_participant in
          let outcome =
            match
              Engine.complex_op shard.s_engine participant (fun () ->
                  apply_each shard.s_engine participant entries
                    ~op:(fun (job, i) -> job.j_ops.(i))
                    ~store:(fun (job, i) r -> job.j_results.(i) <- r))
            with
            | Ok v -> Ok v
            | Error e -> Error (F_failed e)
            | exception Engine.Wal_failure e ->
                Atomic.incr t.wal_failures;
                Error (F_wal ("wal: " ^ e))
            | exception e ->
                Error (F_failed ("commit failed: " ^ Printexc.to_string e))
          in
          match outcome with
          | Ok ((), m) ->
              mark_committed shard;
              note_signed shard m;
              List.iter
                (fun (job, _) -> job.j_records <- m.Engine.records_emitted)
                entries
          | Error msg ->
              (* Distinguish per-op rejections (results already carry
                 their own errors; the batch just had nothing to
                 commit) from a commit-level failure, which voids every
                 op of the group atomically. *)
              let all_rejected =
                List.for_all
                  (fun (job, i) ->
                    match job.j_results.(i) with R_err _ -> true | _ -> false)
                  entries
              in
              if not all_rejected then
                List.iter (fun (job, _) -> job.j_failed <- Some msg) entries)
        (List.rev !order))

let overloaded t queued =
  Message.Overloaded_resp
    {
      retry_after_ms = t.admission.retry_after_ms;
      message =
        Printf.sprintf "admission limit reached (%d op(s) queued)" queued;
    }

(* Enqueue a job and wait for its responses.  The first submitter to
   find no leader becomes one: it drains and executes the queue
   (including everything that accumulates while it runs) and wakes the
   waiting followers, who only block on the condition variable.

   Admission control happens here, before the enqueue: a draining
   server refuses all writes (Shutting_down), and when a leader is
   already busy and the queued-op backlog would exceed
   [admission.max_queue_ops], the whole job is shed with a typed
   Overloaded response carrying a retry-after hint — bounding both the
   backlog memory and the worst-case latency a queued op can see. *)
let submit_to_shard t (shard : shard) participant (ops : Message.op array) :
    Message.response array =
  let n = Array.length ops in
  if Atomic.get t.draining then
    Array.make n (error_resp Message.Shutting_down "server is draining")
  else begin
    let b = shard.s_batcher in
    Mutex.lock b.b_mutex;
    let max_q = t.admission.max_queue_ops in
    let queued = Atomic.get b.b_queued in
    if max_q < 0 || (b.b_leader && queued + n > max_q) then begin
      Mutex.unlock b.b_mutex;
      ignore (Atomic.fetch_and_add t.shed n);
      Array.make n (overloaded t queued)
    end
    else begin
      let job =
        {
          j_participant = participant;
          j_ops = ops;
          j_results = Array.make n R_pending;
          j_records = 0;
          j_failed = None;
          j_done = false;
        }
      in
      b.b_queue <- job :: b.b_queue;
      ignore (Atomic.fetch_and_add b.b_queued n);
      if b.b_leader then begin
        while not job.j_done do
          Condition.wait b.b_cond b.b_mutex
        done;
        Mutex.unlock b.b_mutex
      end
      else begin
        b.b_leader <- true;
        while b.b_queue <> [] do
          let jobs = List.rev b.b_queue in
          b.b_queue <- [];
          note_batch shard ~ops:(Atomic.exchange b.b_queued 0);
          Mutex.unlock b.b_mutex;
          (try run_batch t shard jobs
           with e ->
             (* run_batch catches per-group failures; anything escaping
                is a harness-level surprise — fail the drained jobs
                rather than deadlock their waiters. *)
             let msg = F_failed (Printexc.to_string e) in
             List.iter (fun j -> j.j_failed <- Some msg) jobs);
          Mutex.lock b.b_mutex;
          List.iter (fun j -> j.j_done <- true) jobs;
          Condition.broadcast b.b_cond
        done;
        b.b_leader <- false;
        Mutex.unlock b.b_mutex;
        (* quiesce may be waiting for exactly this: the shard went
           leaderless with an empty queue (signalled lock-free) *)
        signal_idle t
      end;
      Array.init n (fun i ->
          match job.j_failed with
          | Some (F_wal e) -> error_resp Message.Wal_failed e
          | Some (F_failed e) -> error_resp Message.Failed e
          | None -> response_of_result ~records:job.j_records job.j_results.(i))
    end
  end

(* ------------------------------------------------------------------ *)
(* Shard routing                                                       *)
(* ------------------------------------------------------------------ *)

(* Which shard holds [oid]?  Each shard's oid space is independent, so
   the probe scans shards in index order under their read locks; the
   first hit wins and runs [f] under that same read lock (so a
   concurrent delete cannot strand the probe's answer).  Objects never
   migrate between shards, so a hit is stable for as long as the
   object exists. *)
let probe_owner t oid f =
  let n = Array.length t.shards in
  let rec go k =
    if k >= n then None
    else
      let s = t.shards.(k) in
      match
        Rwlock.with_read s.s_rwlock (fun () ->
            if Forest.mem (Engine.forest s.s_engine) oid then Some (f s)
            else None)
      with
      | Some _ as r -> r
      | None -> go (k + 1)
  in
  go 0

let owning_shard t oid = probe_owner t oid (fun s -> s.s_index)

(* Table-addressed ops route by the stable table hash; aggregates
   route to the single shard owning every input (per-shard oid spaces
   make a cross-shard aggregate meaningless — the copied subtrees and
   their provenance must land in one forest). *)
let shard_of_op t (op : Message.op) : (int, string) result =
  let nshards = Array.length t.shards in
  match op with
  | Message.Op_insert { table; _ }
  | Message.Op_update { table; _ }
  | Message.Op_delete { table; _ } ->
      Ok (Shards.shard_of_table ~shards:nshards table)
  | Message.Op_aggregate { inputs; _ } -> (
      match inputs with
      | [] -> Ok 0 (* nothing to route on; shard 0's engine rejects it *)
      | first :: rest -> (
          match owning_shard t first with
          | None ->
              Error
                (Printf.sprintf "aggregate input oid %d not found"
                   (Oid.to_int first))
          | Some k ->
              if List.for_all (fun oid -> owning_shard t oid = Some k) rest
              then Ok k
              else
                Error
                  "aggregate inputs span shards: all inputs must live on \
                   one shard"))

(* ------------------------------------------------------------------ *)
(* Cross-shard submits (two-phase commit)                              *)
(* ------------------------------------------------------------------ *)

(* Run [f] under the write locks of shards [ks], given in ascending
   index order — the one order every multi-lock path uses, so the lock
   graph stays acyclic. *)
let rec with_writes t ks f =
  match ks with
  | [] -> f ()
  | k :: rest ->
      Rwlock.with_write t.shards.(k).s_rwlock (fun () -> with_writes t rest f)

(* A job whose ops span shards commits atomically under the 2PC marker
   protocol: the coordinator lock serialises these transactions, the
   participating shards' write locks are taken in ascending index
   order (the same order every other multi-lock path uses), and
   {!Shards.commit_cross} runs prepare → decide → phase 2.  Abort —
   any WAL trouble before the Decide is durable — voids every op of
   the job atomically, exactly like a single-shard commit failure. *)
let submit_cross t participant (ops : Message.op array)
    (groups : (int * int array) list) (responses : Message.response option array)
    =
  let fill_all resp =
    List.iter
      (fun (_, slots) ->
        Array.iter (fun i -> responses.(i) <- Some resp) slots)
      groups
  in
  match t.coord with
  | None ->
      fill_all
        (error_resp Message.Failed
           "no coordinator log: cross-shard writes unavailable")
  | Some coord ->
      Mutex.lock t.coord_lock;
      Atomic.set t.cross_busy true;
      Fun.protect
        ~finally:(fun () ->
          Atomic.set t.cross_busy false;
          Mutex.unlock t.coord_lock;
          signal_idle t)
        (fun () ->
          let results = Array.make (Array.length ops) R_pending in
          let parts =
            List.map
              (fun (k, slots) ->
                let engine = t.shards.(k).s_engine in
                {
                  Shards.p_shard = k;
                  p_engine = engine;
                  p_by = participant;
                  p_body =
                    (fun () ->
                      apply_each engine participant (Array.to_list slots)
                        ~op:(fun i -> ops.(i))
                        ~store:(fun i r -> results.(i) <- r));
                })
              groups
          in
          (* Arrival accounting, like the shard leaders do at drain. *)
          List.iter
            (fun (k, slots) ->
              note_batch t.shards.(k) ~ops:(Array.length slots))
            groups;
          let txid = fresh_txid t in
          let records = Array.make (Array.length t.shards) 0 in
          (* Mark every participant before its write lock is released,
             whatever the commit's outcome: a Prove admitted after the
             unlock must never pair a stale cached root with a proof of
             the new tree.  After an abort this costs one rehash. *)
          let commit () =
            Fun.protect
              ~finally:(fun () ->
                List.iter (fun (k, _) -> mark_committed t.shards.(k)) groups)
              (fun () -> Shards.commit_cross ~coord ~txid parts)
          in
          match
            let r = with_writes t (List.map fst groups) commit in
            Fault.hit cross_committed_site;
            r
          with
          | Ok (committed, warnings) ->
              List.iter
                (fun (k, m) ->
                  records.(k) <- m.Engine.records_emitted;
                  note_signed t.shards.(k) m)
                committed;
              ignore
                (Atomic.fetch_and_add t.wal_failures (List.length warnings));
              List.iter
                (fun (k, slots) ->
                  Array.iter
                    (fun i ->
                      responses.(i) <-
                        Some (response_of_result ~records:records.(k) results.(i)))
                    slots)
                groups
          | Error e ->
              Atomic.incr t.wal_failures;
              fill_all (error_resp Message.Wal_failed e)
          | exception e ->
              (* [Fault.Crash] must escape (simulated crash); anything
                 else fails the whole job without deadlocking it. *)
              (match e with Fault.Crash _ -> raise e | _ -> ());
              fill_all
                (error_resp Message.Failed
                   ("cross-shard commit failed: " ^ Printexc.to_string e)))

(* The submit entry point: route, then commit.  Single-shard servers
   (and jobs whose surviving ops all land on one shard) take the
   concurrent per-shard batcher path untouched; only genuinely
   cross-shard jobs pay the coordinator. *)
let submit_ops t participant (ops : Message.op array) : Message.response array
    =
  let n = Array.length ops in
  if Array.length t.shards = 1 then submit_to_shard t t.shards.(0) participant ops
  else if Atomic.get t.draining then
    Array.make n (error_resp Message.Shutting_down "server is draining")
  else begin
    let nshards = Array.length t.shards in
    let responses : Message.response option array = Array.make n None in
    let by_shard = Array.make nshards [] in
    Array.iteri
      (fun i op ->
        match shard_of_op t op with
        | Ok k -> by_shard.(k) <- i :: by_shard.(k)
        | Error e -> responses.(i) <- Some (error_resp Message.Bad_request e))
      ops;
    let groups =
      List.filter_map
        (fun k ->
          match by_shard.(k) with
          | [] -> None
          | slots -> Some (k, Array.of_list (List.rev slots)))
        (List.init nshards Fun.id)
    in
    (match groups with
    | [] -> ()
    | [ (k, slots) ] ->
        let sub = Array.map (fun i -> ops.(i)) slots in
        let resps = submit_to_shard t t.shards.(k) participant sub in
        Array.iteri (fun j slot -> responses.(slot) <- Some resps.(j)) slots
    | groups -> submit_cross t participant ops groups responses);
    Array.map
      (function
        | Some r -> r
        | None -> error_resp Message.Failed "operation was never routed")
      responses
  end

(* ------------------------------------------------------------------ *)
(* Read-side dispatch                                                  *)
(* ------------------------------------------------------------------ *)

let report = Message.report_of_verifier

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let empty_report =
  {
    Message.rp_records = 0;
    rp_objects = 0;
    rp_signatures = 0;
    rp_violations = [];
  }

(* The counter readers: atomics only, no mutex and never the rwlock.
   A Ping must answer even while a slow commit holds the write lock —
   that is precisely when an operator wants to see the queue depth. *)
let shard_stat (s : shard) =
  let c = s.s_counters and get = Atomic.get in
  {
    Message.ss_batches = get c.c_batches;
    ss_ops = get c.c_ops;
    ss_sign_wall_us = get c.c_sign_wall_us;
    ss_sign_cpu_us = get c.c_sign_cpu_us;
    ss_queued = get s.s_batcher.b_queued;
    ss_root_recomputes = get c.c_root_recomputes;
    ss_root_hits = get c.c_root_hits;
    ss_proofs_served = get c.c_proofs_served;
    ss_proof_cache_hits = get c.c_proof_hits;
    ss_proof_cache_misses = get c.c_proof_misses;
    ss_proof_bytes = get c.c_proof_bytes;
  }

let pong t =
  let sum f = Array.fold_left (fun acc s -> acc + Atomic.get (f s)) 0 t.shards in
  let draining = Atomic.get t.draining in
  Message.Pong
    {
      ready = not draining;
      draining;
      active = Atomic.get t.active;
      queued_ops = sum (fun s -> s.s_batcher.b_queued);
      batches = sum (fun s -> s.s_counters.c_batches);
      ops = sum (fun s -> s.s_counters.c_ops);
      dedup_hits = Atomic.get t.dedup_hits;
      wal_failures = Atomic.get t.wal_failures;
      shed = Atomic.get t.shed;
      reaped = Atomic.get t.reaped;
    }

(* One shard's published root, through the per-shard cache.  A commit
   on the shard marks the cache dirty (atomically, under the write
   lock); the recompute here re-reads the engine root under the read
   lock, so it always observes a committed state.  The exchange-then-
   recompute order is what makes the race benign: a writer that lands
   after the exchange but before the read lock is acquired simply
   re-marks the cache dirty, costing one redundant recompute, never a
   stale answer to a client that already saw its commit complete. *)
let shard_root_cached (s : shard) read_root =
  (* Core of the cache: requires s_root_lock held; [read_root] supplies
     the engine root under whatever read-lock discipline the caller
     already has (the plain path takes the read lock here; the Prove
     path is already inside it). *)
  let dirty = Atomic.exchange s.s_root_dirty false in
  match !(s.s_root_cache) with
  | Some h when not dirty ->
      Atomic.incr s.s_counters.c_root_hits;
      h
  | _ ->
      let h = read_root () in
      s.s_root_cache := Some h;
      Atomic.incr s.s_counters.c_root_recomputes;
      h

let shard_root (s : shard) =
  locked s.s_root_lock (fun () ->
      shard_root_cached s (fun () ->
          Rwlock.with_read s.s_rwlock (fun () -> Engine.root_hash s.s_engine)))

(* The hash the service publishes, from the cached per-shard roots. *)
let published_root t =
  Shards.published_root
    (Engine.algo (engine t))
    (Array.to_list (Array.map shard_root t.shards))

(* Counters summed, violation lists concatenated in order — one pass,
   so folding a sweep's thousands of per-object reports stays linear. *)
let concat_reports (reports : Message.report list) =
  let sum f = List.fold_left (fun n r -> n + f r) 0 reports in
  {
    Message.rp_records = sum (fun r -> r.Message.rp_records);
    rp_objects = sum (fun r -> r.Message.rp_objects);
    rp_signatures = sum (fun r -> r.Message.rp_signatures);
    rp_violations = List.concat_map (fun r -> r.Message.rp_violations) reports;
  }

(* Fold [f shard] over every shard in index order, each under its own
   read lock, merging with [merge].  Sequential, not nested: no read
   lock is held while another shard's is awaited, so a fan-out read
   can never participate in a lock cycle. *)
let fold_shards t f merge =
  let acc = ref None in
  Array.iter
    (fun s ->
      let r = Rwlock.with_read s.s_rwlock (fun () -> f s) in
      acc := Some (match !acc with None -> r | Some a -> merge a r))
    t.shards;
  Option.get !acc

(* Oid-addressed reads resolve against the owning shard and run under
   its read lock in one step. *)
let with_owning_shard t oid f =
  match probe_owner t oid f with
  | Some resp -> resp
  | None -> error_resp Message.Not_found "object not found in any shard"

(* ------------------------------------------------------------------ *)
(* Membership proofs (wire v6)                                         *)
(* ------------------------------------------------------------------ *)

let proof_cache_cap = 256

(* Serve one leaf's encoded membership proof through the shard's LRU.
   Requires BOTH s_root_lock and the shard read lock held (the Prove
   critical section): no commit can bump the epoch underneath us, and
   the cache/tick are mutated under s_root_lock only.  A hit replays
   the encoded bytes verbatim; a miss rebuilds off the warm Merkle
   cache — O(dirty path), never a tree rebuild, never the write
   lock. *)
let serve_proof (s : shard) ~epoch oid =
  incr s.s_proof_tick;
  let tick = !(s.s_proof_tick) in
  let c = s.s_counters in
  let deliver bytes =
    Atomic.incr c.c_proofs_served;
    ignore (Atomic.fetch_and_add c.c_proof_bytes (String.length bytes));
    Ok bytes
  in
  let cached = Hashtbl.find_opt s.s_proof_cache oid in
  match cached with
  | Some entry when entry.pe_epoch = epoch ->
      entry.pe_last <- tick;
      Atomic.incr c.c_proof_hits;
      deliver entry.pe_bytes
  | _ -> (
      match Engine.prove s.s_engine oid with
      | Error e -> Error e
      | Ok p ->
          let bytes = Proof.to_string p in
          Atomic.incr c.c_proof_misses;
          if
            Option.is_none cached
            && Hashtbl.length s.s_proof_cache >= proof_cache_cap
          then begin
            (* evict the least recently used entry — O(cap) scan, only
               when full, with cap small and bounded *)
            let victim = ref None in
            Hashtbl.iter
              (fun o e ->
                match !victim with
                | Some (_, last) when last <= e.pe_last -> ()
                | _ -> victim := Some (o, e.pe_last))
              s.s_proof_cache;
            match !victim with
            | Some (o, _) -> Hashtbl.remove s.s_proof_cache o
            | None -> ()
          end;
          Hashtbl.replace s.s_proof_cache oid
            { pe_epoch = epoch; pe_bytes = bytes; pe_last = tick };
          deliver bytes)

(* Read-side requests run concurrently with each other: nothing here
   may mutate any engine.  Each shard's audit checkpoint and root
   cache are the read-side mutables; each sits behind its own
   per-shard mutex.  Per-shard read locks are taken as close to each
   shard access as possible. *)
let dispatch t participant (req : Message.request) =
  let algo = Engine.algo (engine t) in
  let directory = directory t in
  match req with
  | Message.Hello _ | Message.Auth _ ->
      error_resp Message.Bad_request "already authenticated"
  | Message.Submit_idem _ | Message.Checkpoint_idem _ ->
      (* answered by [handle_sealed] through the dedup table *)
      error_resp Message.Failed "write request on the read path"
  | Message.Ping -> pong t
  | Message.Query (Some oid) ->
      with_owning_shard t oid (fun s ->
          match Engine.deliver s.s_engine oid with
          | Ok (_, records) -> Message.Records records
          | Error e -> error_resp Message.Not_found e)
  | Message.Query None ->
      (* the whole database: every shard's root provenance, in shard
         order *)
      fold_shards t
        (fun s ->
          match Engine.deliver s.s_engine (Engine.root_oid s.s_engine) with
          | Ok (_, records) -> Message.Records records
          | Error e -> error_resp Message.Not_found e)
        (fun a b ->
          match (a, b) with
          | Message.Records xs, Message.Records ys -> Message.Records (xs @ ys)
          | (Message.Error_resp _ as e), _ | _, (Message.Error_resp _ as e) ->
              e
          | other, _ -> other)
  | Message.Verify (Some oid) ->
      Fault.hit verify_site;
      with_owning_shard t oid (fun s ->
          match Engine.verify_object s.s_engine oid with
          | Ok r -> Message.Verified { report = report r; store_audit = None }
          | Error e -> error_resp Message.Not_found e)
  | Message.Verify None -> (
      Fault.hit verify_site;
      (* per-shard root verification + store audit, merged: violation
         lists concatenate in shard order, counters sum — R1-R8 cover
         the union of the shards, which is the whole database *)
      let verify_one (s : shard) =
        Result.map
          (function
            | None -> (empty_report, empty_report)
            | Some (r, store) -> (report r, report store))
          (Shards.verify_shard ?pool:t.pool ~shards:(shard_count t) s.s_engine)
      in
      match
        fold_shards t verify_one (fun a b ->
            match (a, b) with
            | Ok (r1, s1), Ok (r2, s2) ->
                Ok (concat_reports [ r1; r2 ], concat_reports [ s1; s2 ])
            | (Error _ as e), _ | _, (Error _ as e) -> e)
      with
      | Ok (r, store) ->
          Message.Verified { report = r; store_audit = Some store }
      | Error e -> error_resp Message.Failed e)
  | Message.Audit ->
      let audit_one (s : shard) =
        locked s.s_audit_lock (fun () ->
            let r, cp, examined =
              Audit.incremental_audit ?pool:t.pool ~algo ~directory
                !(s.s_audit_cp)
                (Engine.provstore s.s_engine)
            in
            s.s_audit_cp := cp;
            (report r, examined, Audit.objects cp))
      in
      let r, examined, objects =
        fold_shards t audit_one (fun (r1, e1, o1) (r2, e2, o2) ->
            (concat_reports [ r1; r2 ], e1 + e2, o1 + o2))
      in
      Message.Audited { report = r; examined; objects }
  | Message.Root_hash -> Message.Root { hash = published_root t }
  | Message.Shard_stats ->
      Message.Shard_stats_resp (Array.to_list (Array.map shard_stat t.shards))
  | Message.Lineage { kind; oid } ->
      with_owning_shard t oid (fun s ->
          let idx = Prov_index.of_store (Engine.provstore s.s_engine) in
          match kind with
          | Message.L_why ->
              let p = Lineage.why idx oid in
              Message.Lineage_resp
                {
                  poly = Polynomial.encoded p;
                  depth = Lineage.depth idx oid;
                  oids = List.map Oid.of_int (Polynomial.vars p);
                }
          | Message.L_inputs ->
              Message.Lineage_resp
                { poly = ""; depth = 0; oids = Lineage.which_inputs idx oid }
          | Message.L_depth ->
              Message.Lineage_resp
                { poly = ""; depth = Lineage.depth idx oid; oids = [] }
          | Message.L_impact ->
              Message.Lineage_resp
                { poly = ""; depth = 0; oids = Lineage.impact idx oid })
  | Message.Annotated_query { table; where; agg } -> (
      (* The annotation binds the published root, so compute it BEFORE
         taking the shard read lock: [shard_root] re-enters this
         shard's rwlock, and the writer-preferring lock is not
         reentrant — root-then-lock keeps the path deadlock-free.  A
         write landing between the two makes the annotation cite the
         root preceding it, which is still a root the result rows are
         consistent with under the shard read lock's snapshot. *)
      let root = published_root t in
      let k = Shards.shard_of_table ~shards:(shard_count t) table in
      let s = t.shards.(k) in
      Rwlock.with_read s.s_rwlock (fun () ->
          match Tep_store.Database.get_table (Engine.backend s.s_engine) table with
          | None -> error_resp Message.Not_found ("no such table " ^ table)
          | Some tbl -> (
              match
                Annotate.query
                  ~var:(Annotate.row_var (Engine.mapping s.s_engine) table)
                  tbl ~where
                  ~agg:(if agg = "" then None else Some agg)
              with
              | Error (Annotate.Parse e | Annotate.Eval e) ->
                  error_resp Message.Bad_request e
              | Ok q ->
                  let annot =
                    Annot.make ~id:"" ~table
                      ~pred:(Query.pred_to_string q.Annotate.q_pred) ~agg
                      ~rows:(List.map (fun (_, v, p) -> (v, p)) q.q_rows)
                      ~value:q.q_value ~root participant
                  in
                  Message.Annotated_resp
                    {
                      arows =
                        List.map
                          (fun ((r : Tep_store.Table.row), v, p) ->
                            (v, r.Tep_store.Table.cells, Polynomial.encoded p))
                          q.q_rows;
                      avalue = q.q_value;
                      annot = Annot.encoded annot;
                    })))
  | Message.Prove { table; row; col } -> (
      (* Everything the client will recheck must come from ONE
         committed state of the owning shard: shard k's root and the
         proofs are taken inside a single root_lock → read-lock
         critical section — the same acquisition order [shard_root]
         uses; the reverse would deadlock against writer preference.
         The OTHER shards' roots come first, each through its own
         cache and locks, so no two shards' locks are ever held
         together.  A commit elsewhere in the gap only means the
         root-of-roots the client recomputes no longer matches a
         trusted root fetched earlier still — the client re-fetches
         Root_hash and retries, like any stale read. *)
      let n = shard_count t in
      let k = Shards.shard_of_table ~shards:n table in
      let s = t.shards.(k) in
      let roots =
        Array.init n (fun i -> if i = k then "" else shard_root t.shards.(i))
      in
      locked s.s_root_lock (fun () ->
          Rwlock.with_read s.s_rwlock (fun () ->
              roots.(k) <-
                shard_root_cached s (fun () -> Engine.root_hash s.s_engine);
              let forest = Engine.forest s.s_engine in
              let mapping = Engine.mapping s.s_engine in
              let leaves =
                match col with
                | Some c -> (
                    match Tree_view.cell_oid mapping table row c with
                    | Some oid -> Ok [ oid ]
                    | None ->
                        Error (Printf.sprintf "no cell %s[%d].%d" table row c))
                | None -> (
                    match Tree_view.row_oid mapping table row with
                    | None -> Error (Printf.sprintf "no row %s[%d]" table row)
                    | Some oid -> (
                        (* every cell of the row; a cell-less row is
                           itself atomic and proves directly *)
                        match Forest.children forest oid with
                        | [] -> Ok [ oid ]
                        | cells -> Ok cells))
              in
              match leaves with
              | Error e -> error_resp Message.Not_found e
              | Ok leaves -> (
                  let epoch = Atomic.get s.s_proof_epoch in
                  let rec build acc = function
                    | [] -> Ok (List.rev acc)
                    | oid :: rest -> (
                        match serve_proof s ~epoch oid with
                        | Error e -> Error e
                        | Ok bytes ->
                            let records =
                              Provstore.provenance_object
                                (Engine.provstore s.s_engine)
                                oid
                            in
                            build ((bytes, records) :: acc) rest)
                  in
                  match build [] leaves with
                  | Ok items ->
                      Message.Proof_resp
                        { shard = k; shard_roots = Array.to_list roots; items }
                  | Error e -> error_resp Message.Failed e))))
  | Message.Audit_sample { seed; alpha_ppm } ->
      if alpha_ppm <= 0 || alpha_ppm > 1_000_000 then
        error_resp Message.Bad_request
          "sample fraction must be in (0, 1] (1..1000000 ppm)"
      else begin
        (* One DRBG, drawn in shard-then-oid order over the sorted live
           object lists, makes the sweep reproducible from the seed
           alone: any auditor can replay it and obtain the same sample,
           so a server cannot steer the sweep away from tampered
           objects.  [fold_shards] visits shards sequentially in index
           order, so the draw order is deterministic.  Each sampled
           object gets the full recipient-side check of its provenance
           closure (R1–R8 over the DAG), giving the standard detection
           bound P(miss k tampered objects) ≤ (1−α)^k per sweep. *)
        let drbg = Tep_crypto.Drbg.create ~seed in
        let sample_one (sh : shard) =
          let results, population =
            Shards.sample_shard ?pool:t.pool ~drbg ~alpha_ppm sh.s_engine
          in
          let object_report (oid, result) =
            match result with
            | Ok r -> report r
            | Error e ->
                {
                  empty_report with
                  Message.rp_violations =
                    [ Printf.sprintf "%s: %s" (Oid.to_string oid) e ];
                }
          in
          ( concat_reports (List.map object_report results),
            List.length results,
            population )
        in
        let rep, sampled, population =
          fold_shards t sample_one (fun (r1, s1, p1) (r2, s2, p2) ->
              (concat_reports [ r1; r2 ], s1 + s2, p1 + p2))
        in
        Message.Audit_sample_resp { report = rep; sampled; population }
      end

(* Checkpoint every shard under all write locks.  With every shard
   write-locked no 2PC can be mid-flight, so [Shards.checkpoint_all]
   may truncate the coordinator's decision log once every shard is
   checkpointed. *)
let checkpoint t =
  let durable (s : shard) =
    Option.map (fun (dir, wal) -> (dir, wal, s.s_engine)) s.s_checkpoint
  in
  let parts = List.filter_map durable (Array.to_list t.shards) in
  if Atomic.get t.draining then
    error_resp Message.Shutting_down "server is draining"
  else if List.length parts < shard_count t then
    error_resp Message.Failed "checkpointing not configured"
  else
    with_writes t (List.init (shard_count t) Fun.id) (fun () ->
        try
          match Shards.checkpoint_all ~coord:t.coord parts with
          | Ok gens ->
              let generation, lsn = List.hd gens in
              Message.Checkpointed { generation; lsn }
          | Error e -> error_resp Message.Failed e
        with e -> error_resp Message.Failed (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

let handle_hello c ~name ~client_nonce =
  let t = c.server in
  match List.assoc_opt name t.participants with
  | None -> kill c (error_resp Message.Auth_failed ("unknown participant " ^ name))
  | Some participant -> (
      match
        Participant.Directory.lookup_verified (directory t) name
      with
      | `Unknown | `Bad_certificate ->
          kill c
            (error_resp Message.Auth_failed
               ("no verified certificate for " ^ name))
      | `Verified _ ->
          let server_nonce = gen_nonce t in
          c.phase <- Expect_auth { participant; name; client_nonce; server_nonce };
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
        c.phase <-
          Established
            {
              participant;
              keyed = Session.keyed ~key;
              recv_seq = 0;
              send_seq = 0;
            };
        frame_response c (Message.Auth_ok { server = "provdbd" })
    | Some _ | None ->
        kill c (error_resp Message.Auth_failed "key share rejected")

(* ------------------------------------------------------------------ *)
(* Frame handling                                                      *)
(* ------------------------------------------------------------------ *)

let decode_request_at payload off =
  match Message.decode_request payload off with
  | req, consumed when consumed = String.length payload -> Some req
  | _ -> None
  | exception (Failure _ | Invalid_argument _) -> None

let decode_request payload = decode_request_at payload 0

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
                Atomic.incr t.dedup_hits;
                `Alias j
            | None -> (
                match dedup_claim t rid with
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
        else submit_ops t s.participant ops
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
          dedup_resolve t rid resps.(k))
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
   cap: past [admission.max_session_inflight] buffered ops the submit
   is shed immediately with a typed Overloaded response (its own cid),
   leaving the already-buffered ops untouched. *)
let buffer_submit c out ~cid ~rid op =
  let t = c.server in
  if List.length c.pending >= t.admission.max_session_inflight then begin
    Atomic.incr t.shed;
    Buffer.add_string out
      (frame_response ~cid c (overloaded t (List.length c.pending)))
  end
  else c.pending <- (cid, rid, op) :: c.pending

(* Established-phase sealed traffic: open the seal, split off the
   correlation id, then either defer (Submit_idem — grouped with
   adjacent pipelined submits) or flush-and-dispatch. *)
let handle_sealed c out s payload =
  match
    Session.open_keyed s.keyed ~dir:Session.To_server ~seq:s.recv_seq payload
  with
  | Error e ->
      flush_pending c out;
      Buffer.add_string out (kill c (error_resp Message.Auth_failed e))
  | Ok msg -> (
      s.recv_seq <- s.recv_seq + 1;
      match Message.read_cid msg with
      | None ->
          flush_pending c out;
          Buffer.add_string out
            (kill c (error_resp Message.Bad_request "malformed request"))
      | Some (cid, off) -> (
          match decode_request_at msg off with
          | None ->
              flush_pending c out;
              Buffer.add_string out
                (kill ~cid c (error_resp Message.Bad_request "malformed request"))
          | Some (Message.Submit_idem { rid; op }) ->
              buffer_submit c out ~cid ~rid op
          | Some (Message.Checkpoint_idem { rid }) ->
              flush_pending c out;
              let resp =
                match dedup_claim c.server rid with
                | `Hit resp -> resp
                | `Run ->
                    let resp = checkpoint c.server in
                    dedup_resolve c.server rid resp;
                    resp
              in
              Buffer.add_string out (frame_response ~cid c resp)
          | Some req ->
              flush_pending c out;
              let resp =
                try dispatch c.server s.participant req
                with e -> error_resp Message.Failed (Printexc.to_string e)
              in
              Buffer.add_string out (frame_response ~cid c resp)))

let handle_frame c out (kind : Frame.kind) payload =
  match (c.phase, kind) with
  | Dead, _ -> ()
  | (Expect_hello | Expect_auth _), Sealed ->
      Buffer.add_string out
        (kill c (error_resp Message.Auth_required "handshake not complete"))
  | Established _, Clear ->
      flush_pending c out;
      Buffer.add_string out
        (kill c (error_resp Message.Bad_request "clear frame on sealed session"))
  | Expect_hello, Clear -> (
      match decode_request payload with
      | Some (Message.Hello { name; nonce }) ->
          Buffer.add_string out (handle_hello c ~name ~client_nonce:nonce)
      | Some _ ->
          Buffer.add_string out
            (kill c (error_resp Message.Auth_required "hello expected"))
      | None ->
          Buffer.add_string out
            (kill c (error_resp Message.Bad_request "malformed request")))
  | Expect_auth { participant; name; client_nonce; server_nonce }, Clear -> (
      match decode_request payload with
      | Some (Message.Auth { signature; key_share }) ->
          Buffer.add_string out
            (handle_auth c ~participant ~name ~client_nonce ~server_nonce
               ~signature ~key_share)
      | Some _ ->
          Buffer.add_string out
            (kill c (error_resp Message.Auth_required "auth expected"))
      | None ->
          Buffer.add_string out
            (kill c (error_resp Message.Bad_request "malformed request")))
  | Established s, Sealed -> handle_sealed c out s payload

(* Bytes in, response bytes out.  This is the single protocol entry
   point shared by the event loop and the loopback transport.

   Input accumulates in a Buffer (amortised O(1) per chunk); the
   parser only materialises the buffered bytes once a frame could be
   complete ([need], maintained from the parser's Need_more), so a
   maximum-size frame arriving in 4 KiB chunks costs O(n), not the
   O(n^2) of re-concatenating a string per chunk — an unauthenticated
   peer cannot buy gigabytes of memcpy with one 16 MiB frame.

   Submits parsed in this pass are deferred on [c.pending] and flushed
   as one batcher job — either when a non-submit request interleaves
   (responses stay in request order) or when the parsed input runs
   out, so a blocking client's single submit flushes immediately. *)
let feed c data =
  if c.phase = Dead then ""
  else begin
    let data = Fault.input read_site data in
    Buffer.add_string c.inbox data;
    let out = Buffer.create 256 in
    let continue = ref true in
    while !continue && alive c do
      if Buffer.length c.inbox < c.need then continue := false
      else begin
        let buffered = Buffer.contents c.inbox in
        match Frame.parse ~max_payload:c.server.max_payload buffered 0 with
        | Frame.Need_more n ->
            c.need <- String.length buffered + n;
            continue := false
        | Frame.Frame { kind; payload; consumed } ->
            Buffer.clear c.inbox;
            Buffer.add_substring c.inbox buffered consumed
              (String.length buffered - consumed);
            c.need <- Frame.header_len;
            handle_frame c out kind payload
        | Frame.Oversized n ->
            flush_pending c out;
            Buffer.add_string out
              (kill c
                 (error_resp Message.Too_large
                    (Printf.sprintf
                       "declared payload of %d bytes exceeds limit" n)))
        | Frame.Corrupt reason ->
            flush_pending c out;
            Buffer.add_string out
              (kill c (error_resp Message.Bad_request reason))
      end
    done;
    flush_pending c out;
    Buffer.contents out
  end

(* ------------------------------------------------------------------ *)
(* Socket loops                                                        *)
(* ------------------------------------------------------------------ *)

(* Past [max_connections] concurrent connections, new accepts get a
   best-effort advisory error frame and are dropped, so a connection
   flood cannot grow server state without bound. *)
let release t = Atomic.decr t.active

let try_acquire t =
  if Atomic.fetch_and_add t.active 1 < t.max_connections then true
  else begin
    release t;
    false
  end

(* A peer that disappears mid-write must surface as EPIPE on the
   write (handled like every other socket error), not as a
   process-killing SIGPIPE — OCaml does not mask the signal by
   default. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

(* The {!Evloop} reactor owns every client fd non-blocking; its worker
   pool runs {!feed}.  Each admitted connection holds one
   [try_acquire] slot until the reactor closes it. *)
let serve_fd t ~stop fd =
  Lazy.force ignore_sigpipe;
  let advisory =
    Frame.to_string ~kind:Frame.Clear
      (Message.response_to_string
         (error_resp Message.Failed "server at connection limit"))
  in
  let on_accept _cfd =
    if try_acquire t then begin
      let c = conn t in
      Evloop.Accept
        {
          Evloop.h_feed = feed c;
          h_alive = (fun () -> alive c);
          h_pending =
            (fun () -> Buffer.length c.inbox > 0 || c.pending <> []);
        }
    end
    else Evloop.Reject advisory
  in
  let cfg =
    {
      (Evloop.default_config ~on_accept) with
      Evloop.workers = t.io_workers;
      request_timeout = t.request_timeout;
      idle_timeout = t.idle_timeout;
      on_close = (fun () -> release t);
      on_reap = (fun () -> Atomic.incr t.reaped);
    }
  in
  let loop = Evloop.create cfg in
  let waker_id = register_waker t (fun () -> Evloop.wake loop) in
  Fun.protect
    ~finally:(fun () -> unregister_waker t waker_id)
    (fun () -> Evloop.run loop ~listen:fd ~stop)

let serve_unix t ~path ~stop =
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  serve_fd t ~stop fd

let serve_tcp t ~port ~stop =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  serve_fd t ~stop fd
