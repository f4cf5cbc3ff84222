(* One shard: an engine plus every per-shard piece of server state.
   The rwlock, the batcher, the audit checkpoint and the published
   root are all shard-local, so a write to shard k contends with shard
   k only. *)

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
  c_proofs_served : int Atomic.t;
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
  s_prove_lock : Mutex.t;
      (* readers walking the Merkle cache in Engine.prove, which
         memoises chunk digests as it goes *)
  s_root : string Atomic.t;
      (* the last committed root, set only under the write lock: a
         root read takes no lock and never waits on a commit *)
  s_fenced : string option Atomic.t;
      (* why a commit failed after the engine mutated it; set under the
         write lock, so every request admitted afterwards sees it *)
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
        c_proofs_served = z ();
        c_proof_bytes = z ();
      };
    s_checkpoint = checkpoint;
    s_audit_cp = ref Tep_core.Audit.empty;
    s_audit_lock = Mutex.create ();
    s_prove_lock = Mutex.create ();
    s_root = Atomic.make (Engine.root_hash engine);
    s_fenced = Atomic.make None;
  }

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Publish the root of a commit.  Callers hold the write lock, and the
   commit left the Merkle cache warm up to the root, so this is a
   cache hit. *)
let mark_committed s = Atomic.set s.s_root (Engine.root_hash s.s_engine)

let root s = Atomic.get s.s_root

(* The first reason sticks: later failures only restate it. *)
let fence s reason = ignore (Atomic.compare_and_set s.s_fenced None (Some reason))

let refusal s =
  Option.map
    (Printf.sprintf
       "shard %d is fenced: a commit failed after changing its memory (%s); \
        stop provdbd and run `provdb recover`"
       s.s_index)
    (Atomic.get s.s_fenced)

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
   that is precisely when an operator wants to see the queue depth.
   The four cache counters are retired and read 0. *)
let stat s =
  let c = s.s_counters and get = Atomic.get in
  {
    Message.ss_batches = get c.c_batches;
    ss_ops = get c.c_ops;
    ss_sign_wall_us = get c.c_sign_wall_us;
    ss_sign_cpu_us = get c.c_sign_cpu_us;
    ss_queued = Batcher.queued s.s_batcher;
    ss_root_recomputes = 0;
    ss_root_hits = 0;
    ss_proofs_served = get c.c_proofs_served;
    ss_proof_cache_hits = 0;
    ss_proof_cache_misses = 0;
    ss_proof_bytes = get c.c_proof_bytes;
  }

(* One leaf's encoded membership proof, built off the warm Merkle
   cache: O(path), never a tree rebuild, never the write lock. *)
let serve_proof s oid =
  let c = s.s_counters in
  match locked s.s_prove_lock (fun () -> Engine.prove s.s_engine oid) with
  | Error e -> Error e
  | Ok proof ->
      let bytes = Tep_tree.Proof.to_string proof in
      Atomic.incr c.c_proofs_served;
      ignore (Atomic.fetch_and_add c.c_proof_bytes (String.length bytes));
      Ok bytes
