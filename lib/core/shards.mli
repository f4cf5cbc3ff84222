(** Cross-shard two-phase commit plumbing and the shard routing map.

    A sharded deployment partitions the provenance forest into [N]
    independent {!Engine}s, each with its own WAL and checkpoint
    directory.  Tables route to shards by a stable hash of the table
    name ({!shard_of_table}); the published root is the Merkle
    root-of-roots over the per-shard engine roots
    ({!published_root}).

    Cross-shard transactions commit under a two-phase marker protocol
    built on the existing WAL format:

    + {b phase 1} — each participant shard runs its sub-batch through
      {!Engine.complex_op_prepare}, journaling
      [Wal.Prepare (txid, root)] + flush instead of [Wal.Commit];
    + {b decide} — after {e every} prepare is durable, the coordinator
      appends [Wal.Decide (txid, shards)] to its own log
      ({!record_decision}) and flushes.  That frame is the commit
      point;
    + {b phase 2} — each shard appends a plain [Wal.Commit] marker
      ({!finalize_shard}), so later recoveries need not consult the
      coordinator for this transaction.

    A crash before the Decide is durable rolls the prepared frames
    back on every shard; a crash after it commits them on every shard
    (via [Recovery.recover ~is_decided]) — the shards always agree. *)

val site_decide : string
(** Failpoint site hit just before the coordinator Decide is appended
    ("shard.2pc.decide"). *)

val site_phase2 : string
(** Failpoint site hit before each shard's phase-2 commit marker
    ("shard.2pc.phase2"). *)

val shard_of_key : shards:int -> string -> int
(** Stable FNV-1a routing hash folded into [0 .. shards-1].  Not
    [Hashtbl.hash]: the shard map is durable state, so the function
    must be identical across OCaml releases and word sizes. *)

val shard_of_table : shards:int -> ?overrides:(string * int) list -> string -> int
(** Shard owning [table]: the override pin when one names it (and is
    in range), the routing hash otherwise. *)

val decided_txids : string -> string list
(** All transaction ids with a durable [Wal.Decide] in the coordinator
    log at the given path.  A missing file is an empty log; damaged
    frames are skipped (salvage), so a torn final Decide reads as
    "never decided". *)

val is_decided_from : string -> string -> bool
(** [is_decided_from coord_path] loads the decision set once and
    returns the predicate to pass as [Recovery.recover ~is_decided]. *)

val record_decision :
  coord:Tep_store.Wal.t -> txid:string -> shards:int list -> (unit, string) result
(** Append [Wal.Decide (txid, shards)] to the coordinator log and
    flush.  Only call once every participant's prepare is durable.
    [Error] means the decision is not durable: the caller must report
    the transaction failed and let recovery roll the prepares back. *)

val finalize_shard : Engine.t -> unit
(** Phase 2 for one participant: {!Engine.write_commit_marker}.
    @raise Tep_core.Engine.Wal_failure on persistent WAL failure —
    harmless for atomicity (the Decide already committed the
    transaction) but surfaced so the server can count it. *)

type participant_op = {
  p_shard : int;  (** index in the deployment's shard array *)
  p_engine : Engine.t;
  p_by : Participant.t;  (** identity signing this shard's records *)
  p_body : unit -> (unit, string) result;
      (** applies this shard's slice of the transaction.  Must return
          [Error] {e only} when it made no mutation at all (every op
          rejected before touching state) — the shard then drops out
          of the transaction with nothing journaled. *)
}

val commit_cross :
  coord:Tep_store.Wal.t ->
  txid:string ->
  participant_op list ->
  ((int * Engine.metrics) list * string list, string) result
(** Run a cross-shard transaction to completion: phase-1 prepares in
    ascending shard order, the coordinator Decide, then best-effort
    phase-2 commit markers.  The caller must already hold every
    participant's write lock (and whatever serialises coordinator
    access).

    [Ok (committed, warnings)]: per-shard commit metrics for the
    shards that actually mutated, plus phase-2 WAL warnings (the
    transaction {e is} committed despite them — the Decide is the
    commit point).  [Error] means the transaction never committed: no
    Decide was written and recovery rolls every prepared frame back.
    {!Tep_fault.Fault.Crash} escapes untouched from every step. *)

(** {1 Whole-database operations}

    The rules combining N shards into one answer, shared by the
    service and the local CLI. *)

val published_root : Tep_crypto.Digest_algo.algo -> string list -> string
(** The root over the per-shard roots in shard order: a single root
    verbatim, two or more combined into the Merkle root-of-roots. *)

val verify_shard :
  ?pool:Tep_parallel.Pool.t ->
  shards:int ->
  Engine.t ->
  ((Verifier.report * Verifier.report) option, string) result
(** [Some (root, store)]: the verification of the shard's root object
    and the audit of every record in its store.  [None] when [shards >
    1] and the shard never received a write. *)

val checkpoint_all :
  ?keep:int ->
  coord:Tep_store.Wal.t option ->
  (string * Tep_store.Wal.t * Engine.t) list ->
  ((int * int) list, string) result
(** Checkpoint each [(dir, wal, engine)] in index order (a new
    generation under [dir], then [wal] truncated past it), giving each
    [(generation, lsn)].  A failure stops the sweep and is prefixed
    ["shard k: "].  Once every shard succeeded, truncate the
    coordinator log; a failed truncate is an [Error] too.  The caller
    must exclude writers. *)
