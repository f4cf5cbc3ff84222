(** One shard of the service: an engine plus its rwlock, group-commit
    batcher, counters, audit checkpoint, root cache and proof LRU.

    Locks: [s_rwlock] guards the engine (readers share, commits
    exclude); [s_root_lock] guards the root cache and the proof LRU
    and is always taken before [s_rwlock], never under it;
    [s_audit_lock] guards the incremental-audit checkpoint among
    readers. *)

type counters

type t = {
  s_index : int;
  s_engine : Tep_core.Engine.t;
  s_rwlock : Rwlock.t;
  s_batcher : Batcher.t;
  s_counters : counters;
  s_checkpoint : (string * Tep_store.Wal.t) option;
      (** checkpoint directory + WAL, when the daemon owns durability *)
  s_audit_cp : Tep_core.Audit.checkpoint ref;
  s_audit_lock : Mutex.t;
  s_root_lock : Mutex.t;
  s_root_cache : string option ref;
  s_root_dirty : bool Atomic.t;  (** set by every commit on this shard *)
  s_proofs : Proof_lru.t;
  s_proof_epoch : int Atomic.t;  (** bumped by every commit on this shard *)
}

val create : int -> Tep_core.Engine.t * (string * Tep_store.Wal.t) option -> t

val locked : Mutex.t -> (unit -> 'a) -> 'a

val mark_committed : t -> unit
(** A commit changed this shard's tree: its cached root and cached
    proofs go stale.  Called under the shard's write lock. *)

val note_batch : t -> ops:int -> unit
(** Count one commit carrying [ops] operations. *)

val note_signed : t -> Tep_core.Engine.metrics -> unit
(** Add a durable commit's signing times. *)

val stat : t -> Tep_wire.Message.shard_stat
(** The counters, read lock-free. *)

val root_cached : t -> (unit -> string) -> string
(** This shard's root through the cache; [s_root_lock] must be held,
    and the thunk reads the engine root under a read lock the caller
    arranges. *)

val root : t -> string
(** {!root_cached}, taking [s_root_lock] then the read lock. *)

val serve_proof : t -> epoch:int -> Tep_tree.Oid.t -> (string, string) result
(** One leaf's encoded membership proof through the LRU.  Requires
    [s_root_lock] and the read lock held. *)
