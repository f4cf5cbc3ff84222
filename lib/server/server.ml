(* provdbd — the networked provenance service.

   The protocol logic lives entirely in the {!Conn} state machine
   whose single entry point is {!feed}: bytes in, response bytes out.
   The {!Evloop} reactor pumps Unix-domain and TCP sockets through it;
   the client library's loopback transport calls it directly — so the
   in-process test path exercises exactly the frames, codecs and
   session sealing that cross a real socket.

   Dispatch concurrency (the high-throughput path):

   - Read-only requests ({!Read}) run concurrently across connections
     under the shared side of each shard's writer-preferring
     {!Rwlock}.  The engine itself is never mutated by these paths;
     the two stateful read-side resources (the Merkle cache a proof
     walks and the incremental-audit checkpoint) each sit behind a
     small dedicated mutex.  Roots are atomics, read without a lock.
   - Submits ({!Write}) from any number of connections funnel into a
     per-shard group-commit {!Batcher}: one signing pass, one Merkle
     dirty-path rehash, one WAL append+flush per batch instead of per
     op.  Every client still receives its own per-op response; a WAL
     failure mid-batch fails that whole batch atomically and fences
     the shard until `provdb recover` (recovery replays to the last
     commit marker).
   - Checkpoint takes every shard's write lock directly.

   Sharding: the service can own several engines, each a {!Shard} of
   the provenance forest with its own WAL, checkpoint directory,
   rwlock and batcher.  Tables route to shards by a stable hash of the
   table name ({!Tep_core.Shards.shard_of_table}); the published root
   is the Merkle root-of-roots over the per-shard engine roots.  Reads
   fan out under per-shard read locks, one shard at a time; jobs that
   span shards serialise on the coordinator, which commits them under
   the two-phase marker protocol ({!Tep_core.Shards.commit_cross})
   against its own decision log.  Every multi-lock path acquires shard
   locks in ascending index order, so the lock graph stays acyclic.  A
   single-shard server behaves byte-for-byte like the unsharded
   service, including its root hash.

   Once a session is established, sealed messages carry a varint
   correlation id (see {!Message.with_cid}), echoed in responses, so a
   connection may pipeline several requests; consecutive pipelined
   Submits parsed from one input chunk join the batcher as a single
   job. *)

module Frame = Tep_wire.Frame
module Message = Tep_wire.Message

type t = {
  state : State.t;
  request_timeout : float;
  max_connections : int;
  io_workers : int; (* protocol worker threads per serve loop *)
  idle_timeout : float; (* reap quiet connections after this long *)
  wakers : (int * (unit -> unit)) list ref;
  wakers_lock : Mutex.t;
      (* one registered waker per live serve loop; [wake] nudges them
         all so a flipped stop flag is seen now, not at the next
         housekeeping tick *)
  waker_seq : int Atomic.t;
}

type conn = Conn.t

let create ?(max_payload = Frame.default_max_payload) ?(request_timeout = 30.)
    ?(max_connections = 64) ?(max_queue_ops = 512)
    ?(max_session_inflight = 64) ?(retry_after_ms = 25)
    ?(dedup_capacity = 1024) ?drbg ?pool ?coord ?(io_workers = 4)
    ?(idle_timeout = 300.) ~participants shards =
  if List.is_empty shards then invalid_arg "Server.create: no shards";
  let drbg =
    match drbg with Some d -> d | None -> Tep_crypto.Drbg.create_system ()
  in
  let txid_epoch =
    Tep_crypto.Digest_algo.to_hex (Tep_crypto.Drbg.generate drbg 8)
  in
  let state =
    {
      State.shards = Array.of_list (List.mapi Shard.create shards);
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
      active = Atomic.make 0;
      reaped = Atomic.make 0;
      shed = Atomic.make 0;
      wal_failures = Atomic.make 0;
      dedup = Dedup.create ~capacity:dedup_capacity;
      admission = { max_queue_ops; max_session_inflight; retry_after_ms };
      draining = Atomic.make false;
      idle_mutex = Mutex.create ();
      idle_cond = Condition.create ();
    }
  in
  {
    state;
    request_timeout;
    max_connections;
    io_workers;
    idle_timeout;
    wakers = ref [];
    wakers_lock = Mutex.create ();
    waker_seq = Atomic.make 0;
  }

let conn t = Conn.create t.state
let feed = Conn.feed
let submit_ops t = Write.submit_ops t.state
let fenced t = List.filter_map Shard.refusal (State.all_shards t.state)

let set_admission ?max_queue_ops ?max_session_inflight ?retry_after_ms t =
  let a = t.state.admission in
  Option.iter (fun v -> a.max_queue_ops <- v) max_queue_ops;
  Option.iter (fun v -> a.max_session_inflight <- v) max_session_inflight;
  Option.iter (fun v -> a.retry_after_ms <- v) retry_after_ms

let active_connections t = Atomic.get t.state.active
let reaped_connections t = Atomic.get t.state.reaped

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

let begin_drain t = Atomic.set t.state.draining true

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
  let st = t.state in
  let deadline = Unix.gettimeofday () +. timeout in
  let idle () =
    (not (Atomic.get st.cross_busy))
    && Array.for_all (fun (s : Shard.t) -> Batcher.idle s.s_batcher) st.shards
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
               else State.signal_idle st
             end
           in
           nap ())
         ());
    Mutex.lock st.idle_mutex;
    let result = ref (idle ()) in
    while (not !result) && Unix.gettimeofday () < deadline do
      Condition.wait st.idle_cond st.idle_mutex;
      result := idle ()
    done;
    Mutex.unlock st.idle_mutex;
    Atomic.set finished true;
    !result
  end

(* ------------------------------------------------------------------ *)
(* Socket loops                                                        *)
(* ------------------------------------------------------------------ *)

(* Past [max_connections] concurrent connections, new accepts get a
   best-effort advisory error frame and are dropped, so a connection
   flood cannot grow server state without bound. *)
let release t = Atomic.decr t.state.active

let try_acquire t =
  if Atomic.fetch_and_add t.state.active 1 < t.max_connections then true
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
         (State.error_resp Message.Failed "server at connection limit"))
  in
  let on_accept _cfd =
    if try_acquire t then begin
      let c = conn t in
      Evloop.Accept
        {
          Evloop.h_feed = feed c;
          h_alive = (fun () -> Conn.alive c);
          h_pending = (fun () -> Conn.pending c);
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
      on_reap = (fun () -> Atomic.incr t.state.reaped);
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
