(** One shard of the service: an engine plus its rwlock, group-commit
    batcher, counters, audit checkpoint and published root.

    Locks: [s_rwlock] guards the engine (readers share, commits
    exclude).  [s_audit_lock] guards the incremental-audit checkpoint
    and [s_prove_lock] the Merkle-cache walk of a proof, each among
    readers and each taken inside the read lock.  The published root
    and the fence are atomics, set under the write lock and read
    without any lock. *)

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
  s_prove_lock : Mutex.t;
  s_root : string Atomic.t;  (** the last committed root *)
  s_fenced : string option Atomic.t;
      (** why a commit failed after changing the engine *)
}

val create : int -> Tep_core.Engine.t * (string * Tep_store.Wal.t) option -> t
(** Publishes the engine's current root. *)

val locked : Mutex.t -> (unit -> 'a) -> 'a

val mark_committed : t -> unit
(** Publish the engine root of a commit.  Called under the shard's
    write lock. *)

val root : t -> string
(** The last committed root; takes no lock. *)

val fence : t -> string -> unit
(** A commit raised after the engine mutated it: the engine's memory
    now holds writes its log does not.  Called under the write lock;
    the first reason is kept. *)

val refusal : t -> string option
(** For a fenced shard, the message every later read and write is
    refused with (it names [provdb recover]). *)

val note_batch : t -> ops:int -> unit
(** Count one commit carrying [ops] operations. *)

val note_signed : t -> Tep_core.Engine.metrics -> unit
(** Add a durable commit's signing times. *)

val stat : t -> Tep_wire.Message.shard_stat
(** The counters, read lock-free. *)

val serve_proof : t -> Tep_tree.Oid.t -> (string, string) result
(** One leaf's encoded membership proof.  Requires the read lock; takes
    [s_prove_lock]. *)
