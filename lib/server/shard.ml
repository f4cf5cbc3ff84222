(* One shard: an engine plus every per-shard piece of server state.
   The rwlock, the batcher, the audit checkpoint, the cached root and
   the proof LRU are all shard-local, so a write to shard k contends
   with — and invalidates — shard k only. *)

module Engine = Tep_core.Engine
module Message = Tep_wire.Message

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

type t = {
  s_index : int;
  s_engine : Engine.t;
  s_rwlock : Rwlock.t; (* readers share; this shard's commits exclude *)
  s_batcher : Batcher.t;
  s_counters : counters;
  s_checkpoint : (string * Tep_store.Wal.t) option;
      (* checkpoint directory + WAL, when the daemon owns durability *)
  s_audit_cp : Tep_core.Audit.checkpoint ref;
  s_audit_lock : Mutex.t; (* audit checkpoint ref, among readers *)
  s_root_lock : Mutex.t; (* root cache and proof LRU, among readers *)
  s_root_cache : string option ref; (* last published root of this shard *)
  s_root_dirty : bool Atomic.t;
      (* set by every commit on this shard (and only this shard), under
         its write lock; the next root read recomputes.  An atomic, not
         the root_lock, so writers never wait on readers — taking
         s_root_lock under the write lock would deadlock against a
         reader holding s_root_lock while waiting for a read lock. *)
  s_proofs : Proof_lru.t; (* mutated only under s_root_lock *)
  s_proof_epoch : int Atomic.t;
      (* bumped by every commit on this shard, next to s_root_dirty:
         cached proofs from earlier epochs can never be served again *)
}

let create index (engine, checkpoint) =
  let z () = Atomic.make 0 in
  {
    s_index = index;
    s_engine = engine;
    s_rwlock = Rwlock.create ();
    s_batcher = Batcher.create ();
    s_counters =
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
      };
    s_checkpoint = checkpoint;
    s_audit_cp = ref Tep_core.Audit.empty;
    s_audit_lock = Mutex.create ();
    s_root_lock = Mutex.create ();
    s_root_cache = ref None;
    s_root_dirty = Atomic.make true;
    s_proofs = Proof_lru.create ();
    s_proof_epoch = Atomic.make 0;
  }

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* A commit changed this shard's tree: only this shard's cached root
   and cached proofs go stale.  Callers hold the shard's write lock,
   so any reader admitted after the commit sees both marks (cheap
   atomics; see s_root_dirty for why not the root lock). *)
let mark_committed s =
  Atomic.set s.s_root_dirty true;
  Atomic.incr s.s_proof_epoch

(* Counter updates for one shard's part of a commit: [note_batch] at
   arrival (drain, or a cross-shard job's start), [note_signed] once
   the commit is durable. *)
let note_batch s ~ops =
  Atomic.incr s.s_counters.c_batches;
  ignore (Atomic.fetch_and_add s.s_counters.c_ops ops)

let note_signed s (m : Engine.metrics) =
  let add_us counter seconds =
    ignore (Atomic.fetch_and_add counter (int_of_float (seconds *. 1e6)))
  in
  add_us s.s_counters.c_sign_wall_us m.Engine.sign_s;
  add_us s.s_counters.c_sign_cpu_us m.Engine.sign_cpu_s

(* The counter readers: atomics only, no mutex and never the rwlock.
   A Ping must answer even while a slow commit holds the write lock —
   that is precisely when an operator wants to see the queue depth. *)
let stat s =
  let c = s.s_counters and get = Atomic.get in
  {
    Message.ss_batches = get c.c_batches;
    ss_ops = get c.c_ops;
    ss_sign_wall_us = get c.c_sign_wall_us;
    ss_sign_cpu_us = get c.c_sign_cpu_us;
    ss_queued = Batcher.queued s.s_batcher;
    ss_root_recomputes = get c.c_root_recomputes;
    ss_root_hits = get c.c_root_hits;
    ss_proofs_served = get c.c_proofs_served;
    ss_proof_cache_hits = get c.c_proof_hits;
    ss_proof_cache_misses = get c.c_proof_misses;
    ss_proof_bytes = get c.c_proof_bytes;
  }

(* The root cache.  A commit on the shard marks the cache dirty
   (atomically, under the write lock); the recompute re-reads the
   engine root under the read lock, so it always observes a committed
   state.  The exchange-then-recompute order is what makes the race
   benign: a writer that lands after the exchange but before the read
   lock is acquired simply re-marks the cache dirty, costing one
   redundant recompute, never a stale answer to a client that already
   saw its commit complete.  Requires s_root_lock held; [read_root]
   supplies the engine root under whatever read-lock discipline the
   caller already has. *)
let root_cached s read_root =
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

let root s =
  locked s.s_root_lock (fun () ->
      root_cached s (fun () ->
          Rwlock.with_read s.s_rwlock (fun () -> Engine.root_hash s.s_engine)))

(* Serve one leaf's encoded membership proof through the LRU.  A hit
   replays the encoded bytes verbatim; a miss rebuilds off the warm
   Merkle cache — O(dirty path), never a tree rebuild, never the write
   lock. *)
let serve_proof s ~epoch oid =
  let c = s.s_counters in
  let build oid =
    Result.map Tep_tree.Proof.to_string (Engine.prove s.s_engine oid)
  in
  match Proof_lru.find_or_build s.s_proofs ~epoch oid build with
  | Error e -> Error e
  | Ok (bytes, hit) ->
      Atomic.incr (if hit = `Hit then c.c_proof_hits else c.c_proof_misses);
      Atomic.incr c.c_proofs_served;
      ignore (Atomic.fetch_and_add c.c_proof_bytes (String.length bytes));
      Ok bytes
