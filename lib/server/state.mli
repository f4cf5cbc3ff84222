(** The state every part of provdbd shares.

    Lock order: shard locks in ascending index order ({!with_writes});
    [coord_lock] before any shard write lock; [idle_mutex] may be held
    while taking a batcher's mutex, never the reverse. *)

type t = {
  shards : Shard.t array;  (** at least one; index = shard id *)
  coord : Tep_store.Wal.t option;
      (** the 2PC decision log; required for cross-shard commits *)
  coord_lock : Mutex.t;  (** serialises cross-shard transactions *)
  cross_busy : bool Atomic.t;  (** a 2PC commit is in flight *)
  txid_seq : int Atomic.t;
  txid_epoch : string;  (** random per-boot prefix: txids never recur *)
  participants : (string * Tep_core.Participant.t) list;
  pool : Tep_parallel.Pool.t option;
  drbg : Tep_crypto.Drbg.t;
  drbg_lock : Mutex.t;
  max_payload : int;
  active : int Atomic.t;  (** concurrent socket connections *)
  reaped : int Atomic.t;  (** deadline reaps *)
  shed : int Atomic.t;  (** ops refused by admission control *)
  wal_failures : int Atomic.t;  (** commits voided by WAL errors *)
  dedup : Dedup.t;
  admission : Batcher.admission;
  draining : bool Atomic.t;  (** drain begun: shed all new writes *)
  idle_mutex : Mutex.t;
  idle_cond : Condition.t;
      (** broadcast by {!signal_idle} *)
}

val engine : t -> Tep_core.Engine.t
(** Shard 0's engine. *)

val shard_count : t -> int
val directory : t -> Tep_core.Participant.Directory.t
val draining : t -> bool

val error_resp :
  Tep_wire.Message.error_code -> string -> Tep_wire.Message.response

val all_shards : t -> Shard.t list

val fresh_txid : t -> string
(** A coordinator transaction id unique across daemon lifetimes. *)

val gen_nonce : t -> string
(** A handshake nonce from the shared DRBG. *)

val signal_idle : t -> unit
(** Wake a waiting quiesce; called with no batcher or coordinator lock
    held, after a leader empties its queue or a 2PC commit ends. *)

val with_writes : t -> int list -> (unit -> 'a) -> 'a
(** Run under the write locks of the given shards, which must be in
    ascending index order. *)

val probe_owner : t -> Tep_tree.Oid.t -> (Shard.t -> 'a) -> 'a option
(** Run the function under the read lock of the first shard (in index
    order) whose forest holds the oid. *)
