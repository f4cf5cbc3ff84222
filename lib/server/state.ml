(* The state every part of provdbd shares: the shards, the two-phase
   commit coordinator, the dedup table, the admission knobs and the
   service-wide counters. *)

module Engine = Tep_core.Engine
module Message = Tep_wire.Message

type t = {
  shards : Shard.t array; (* at least one; index = shard id *)
  coord : Tep_store.Wal.t option;
      (* the 2PC decision log; required for cross-shard commits *)
  coord_lock : Mutex.t; (* serialises cross-shard transactions *)
  cross_busy : bool Atomic.t; (* a 2PC commit is in flight (quiesce) *)
  txid_seq : int Atomic.t; (* per-process suffix for fresh txids *)
  txid_epoch : string; (* random per-boot prefix: txids never recur *)
  participants : (string * Tep_core.Participant.t) list;
  pool : Tep_parallel.Pool.t option;
  drbg : Tep_crypto.Drbg.t;
  drbg_lock : Mutex.t;
      (* handshakes run on the event loop's worker threads; DRBG state
         is not thread-safe, and interleaved generates could repeat
         nonces *)
  max_payload : int;
  active : int Atomic.t; (* concurrent socket connections *)
  reaped : int Atomic.t; (* deadline reaps, reported in Ping *)
  shed : int Atomic.t; (* ops refused by admission control *)
  wal_failures : int Atomic.t; (* commits voided by WAL errors *)
  dedup : Dedup.t;
  admission : Batcher.admission;
  draining : bool Atomic.t; (* drain begun: shed all new writes *)
  idle_mutex : Mutex.t;
  idle_cond : Condition.t;
      (* signalled whenever a shard leader finishes its drain or a
         cross-shard commit completes — the only transitions that can
         make an already-draining server idle.  Lock order:
         [idle_mutex] may be held while taking a batcher's mutex
         (quiesce probing idleness); never the reverse — signallers
         release the batcher mutex / [coord_lock] first. *)
}

let engine t = t.shards.(0).Shard.s_engine
let shard_count t = Array.length t.shards
let directory t = Engine.directory (engine t)
let draining t = Atomic.get t.draining
let error_resp code message = Message.Error_resp { code; message }

let all_shards t = Array.to_list t.shards

(* Fresh coordinator transaction id.  The per-boot random epoch keeps
   txids from different daemon lifetimes distinct even though the
   coordinator log survives restarts — a replayed Prepare from a dead
   process must never match a fresh Decide. *)
let fresh_txid t =
  Printf.sprintf "%s-%d" t.txid_epoch (Atomic.fetch_and_add t.txid_seq 1)

let gen_nonce t =
  Shard.locked t.drbg_lock (fun () ->
      Tep_crypto.Drbg.generate t.drbg Tep_wire.Session.nonce_len)

(* Called (with no batcher/coordinator lock held) after every
   transition that can complete a drain: a leader handing back an
   empty queue, a 2PC commit finishing. *)
let signal_idle t =
  Mutex.lock t.idle_mutex;
  Condition.broadcast t.idle_cond;
  Mutex.unlock t.idle_mutex

(* Run [f] under the write locks of shards [ks], given in ascending
   index order — the one order every multi-lock path uses, so the lock
   graph stays acyclic. *)
let rec with_writes t ks f =
  match ks with
  | [] -> f ()
  | k :: rest ->
      Rwlock.with_write t.shards.(k).Shard.s_rwlock (fun () ->
          with_writes t rest f)

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
      let (s : Shard.t) = t.shards.(k) in
      match
        Rwlock.with_read s.s_rwlock (fun () ->
            if Tep_tree.Forest.mem (Engine.forest s.s_engine) oid then
              Some (f s)
            else None)
      with
      | Some _ as r -> r
      | None -> go (k + 1)
  in
  go 0
