(** The provenance-collecting database engine.

    [Engine] couples a relational backend ({!Tep_store.Database}) with
    its depth-4 tree view ({!Tep_tree.Tree_view}), a Merkle hash cache,
    and a {!Provstore}.  Every mutation performed through the engine:

    + keeps the backend and the forest in sync,
    + captures the input (pre-state) hashes of the modified object and
      all its ancestors,
    + and, at complex-operation commit (Section 4.4), emits one signed
      provenance record per surviving modified object — the actual
      record for directly-modified objects, inherited records for
      ancestors (Section 4.2).

    Hashing strategy is selectable (Section 4.3): [Basic] re-hashes
    the full tree at each commit; [Economical] maintains the
    incremental cache and re-hashes dirty paths only. *)

open Tep_store
open Tep_tree

exception Wal_failure of string
(** A WAL append or flush failed persistently (retries exhausted):
    the mutation's durability cannot be guaranteed and the commit is
    abandoned.  Raised out of {!complex_op} (and the singleton ops
    built on it) so the service layer can classify WAL trouble
    distinctly from logic errors.  Simulated crashes
    ({!Tep_fault.Fault.Crash}) still propagate untouched. *)

type mode = Basic | Economical

type metrics = {
  hash_s : float;  (** seconds spent hashing subtrees *)
  sign_s : float;
      (** wall-clock seconds of the commit signing stage; with a pool
          attached the stage fans signatures out across domains, so
          this can be well below {!field-sign_cpu_s} *)
  sign_cpu_s : float;
      (** cumulative per-signature seconds summed over all signers;
          [sign_cpu_s /. sign_s] approximates the signing concurrency
          actually achieved *)
  store_s : float;  (** seconds spent persisting checksum rows *)
  records_emitted : int;  (** provenance records (= checksums) *)
  nodes_hashed : int;  (** tree nodes actually digested *)
  checksum_bytes : int;  (** paper-schema bytes added to the store *)
}

val zero_metrics : metrics
val add_metrics : metrics -> metrics -> metrics

type t

val create :
  ?algo:Tep_crypto.Digest_algo.algo ->
  ?mode:mode ->
  ?wal:Wal.t ->
  ?pool:Tep_parallel.Pool.t ->
  ?provstore:Provstore.t ->
  directory:Participant.Directory.t ->
  Database.t ->
  t
(** Attach the engine to an existing backend database.  Builds the
    tree view and warms the hash cache.  Pre-existing objects receive
    an [Import] provenance record lazily, on first touch.

    Pass [?provstore] to resume from a persisted provenance store
    (its records must have been produced against the same backend
    contents and oid layout — the layout is deterministic, see
    {!Tep_tree.Tree_view.build}). *)

val of_parts :
  ?algo:Tep_crypto.Digest_algo.algo ->
  ?mode:mode ->
  ?wal:Wal.t ->
  ?pool:Tep_parallel.Pool.t ->
  ?provstore:Provstore.t ->
  directory:Participant.Directory.t ->
  forest:Forest.t ->
  view:Tree_view.mapping ->
  Database.t ->
  t
(** Re-attach an engine to previously persisted state (forest, view
    and provenance store) without rebuilding the tree view — this is
    what preserves oid identity across sessions.

    [?pool] (also accepted by {!create}) parallelises cold full-tree
    Merkle passes — the warm-up hash here, Basic-mode commits —
    recipient-side verification run through {!verify_object}, and the
    commit signing stage: records staged by a complex operation are
    signed concurrently across the pool's domains, in a way that keeps
    record bytes, Provstore order and WAL contents identical to the
    sequential engine (see the [engine.commit.sign] failpoint for
    perturbing signer timing in tests). *)

val backend : t -> Database.t
val forest : t -> Forest.t
val provstore : t -> Provstore.t
val directory : t -> Participant.Directory.t
val root_oid : t -> Oid.t
val mapping : t -> Tree_view.mapping
val algo : t -> Tep_crypto.Digest_algo.algo
val mode : t -> mode
val set_mode : t -> mode -> unit

val root_hash : t -> string
(** Current hash of the whole database tree. *)

(** {1 Complex operations (Section 4.4)}

    Group any number of primitive operations; provenance records and
    checksums are emitted once, at commit.  Primitive operations
    called outside [complex_op] run as singleton complex operations. *)

val complex_op :
  t -> Participant.t -> (unit -> ('a, string) result) -> ('a * metrics, string) result
(** Runs the body, then commits provenance.  Fails (without emitting
    records) if the body fails.  Nested calls are rejected. *)

val complex_op_prepare :
  t ->
  Participant.t ->
  txid:string ->
  (unit -> ('a, string) result) ->
  ('a * metrics, string) result
(** Phase 1 of a cross-shard two-phase commit: identical to
    {!complex_op} except the WAL marker journaled at commit is
    [Wal.Prepare (txid, root_hash)] instead of [Wal.Commit].  The
    prepared frames are durable but {!Tep_core.Recovery} rolls them
    back unless the coordinator log records a [Wal.Decide] for
    [txid] — see {!Shards}. *)

val write_commit_marker : t -> unit
(** Phase 2: append (and flush) a plain [Wal.Commit] marker carrying
    the current root hash, upgrading the shard's last prepared
    transaction so future recoveries need not consult the coordinator
    log for it.  No-op without a WAL.
    @raise Wal_failure when the append or flush fails persistently. *)

val last_metrics : t -> metrics
(** Metrics of the most recent commit. *)

val total_metrics : t -> metrics

(** {1 Primitive object operations (Section 2 / 4.1)} *)

val insert_object :
  t -> Participant.t -> ?parent:Oid.t -> Value.t -> (Oid.t, string) result

val update_object :
  t -> Participant.t -> Oid.t -> Value.t -> (unit, string) result

val delete_object : t -> Participant.t -> Oid.t -> (unit, string) result
(** Leaf-only, like the paper's primitive delete. *)

val aggregate_objects :
  t ->
  Participant.t ->
  ?value:Value.t ->
  Oid.t list ->
  (Oid.t, string) result
(** The paper's [Aggregate({A_1..A_n}, B)]: deep-copies the input
    subtrees under a fresh root [B] (which gets the [Aggregate]
    record citing each input's latest checksum).  [value] is [B]'s
    own value (defaults to [Text "aggregate"]).  Journaled as
    [Wal.Aggregate], after a [Wal.Blob] for each [Import] record
    signed for an input that had none. *)

(** {1 Relational operations}

    These keep the backend database and the forest in sync and record
    provenance at the matching tree locations.  Each validates against
    the backend, journals one WAL entry and applies the tree side with
    {!Tep_tree.Tree_view.mirror}, as recovery replays it. *)

val create_table :
  t -> Participant.t -> name:string -> Schema.t -> (unit, string) result

val insert_row :
  t -> Participant.t -> table:string -> Value.t array -> (int, string) result

val delete_row : t -> Participant.t -> table:string -> int -> (unit, string) result

val update_cell :
  t ->
  Participant.t ->
  table:string ->
  row:int ->
  col:int ->
  Value.t ->
  (unit, string) result

val update_cell_named :
  t ->
  Participant.t ->
  table:string ->
  row:int ->
  column:string ->
  Value.t ->
  (unit, string) result

(** {1 Delivery and verification} *)

val deliver : ?deep:bool -> t -> Oid.t -> (Subtree.t * Record.t list, string) result
(** What a data recipient receives: the object snapshot and its full
    provenance object (DAG closure).  With [~deep:true] the shipment
    also includes the provenance of every descendant object, giving
    the recipient cell-level history for a delivered row or table
    (Definition 1 only requires the object's own records; deep
    delivery is strictly more informative and still verifies). *)

val verify_object : t -> Oid.t -> (Verifier.report, string) result
(** Run recipient-side verification in place. *)

val prove : t -> Oid.t -> (Tep_tree.Proof.t, string) result
(** Build a Merkle membership proof for an atomic object off this
    engine's hash cache — O(dirty path) on a warm (Economical) cache,
    no tree rebuild.  Errors on missing or non-atomic oids. *)
