(** Checkpointed crash recovery for the provenance engine.

    {1 Protocol}

    A {e checkpoint generation} is one trailer-checked file holding
    the engine's full durable state — backend database, forest, tree
    view mapping and provenance store — together with the WAL sequence
    number (LSN) it covers and the root hash at capture time.
    {!checkpoint} writes a new generation atomically, then truncates
    the WAL up to the covered LSN; several generations are retained so
    a corrupted newest file falls back to an older one.

    {!recover} rebuilds an engine after a crash:

    + load the newest generation whose integrity trailer and decoding
      validate (older generations are tried in turn; every rejection
      is reported),
    + salvage the WAL and take the tail past the generation's LSN,
    + replay the {e contiguous} tail prefix up to the last
      {!Tep_store.Wal.Commit} marker — each relational or [Aggregate]
      entry is applied to the backend with {!Tep_store.Wal.apply} and
      to the forest/view with {!Tep_tree.Tree_view.mirror}, the
      function the engine made the change through, so the replay
      assigns the oids the engine assigned; journaled provenance
      records are re-appended to the store; frames after the last
      commit marker, or after a damaged gap, are rolled back,
    + rebuild the engine with {!Engine.of_parts} (preserving oid
      identity),
    + cross-check the recovered root hash against the last commit
      marker and against the provenance store's latest record for the
      root object,
    + write a fresh checkpoint, so rolled-back frames can never
      resurface in a later recovery.

    Aggregates are journaled, and so are the [Import] records an
    aggregate signs for untracked inputs.  [insert_object] and
    [update_object] (unless the object is a cell, which updates like
    {!Engine.update_cell}) are not, and provdbd never issues them: the
    pipeline covers the relational workload (the paper's experimental
    setting) plus aggregates.  State those object operations created
    is still restored from the checkpoint itself. *)

open Tep_store

type rejected = { path : string; reason : string }

type report = {
  generation : int;  (** generation the recovery started from *)
  checkpoint_lsn : int;  (** LSN covered by that generation *)
  rejected : rejected list;  (** newer generations that failed to load *)
  entries_replayed : int;
      (** relational and [Aggregate] WAL entries re-applied *)
  records_replayed : int;  (** provenance records re-appended *)
  frames_dropped : int;
      (** salvaged frames rolled back: past the last commit marker or
          stranded behind a damaged gap *)
  skipped_frames : int;  (** corrupt WAL regions skipped (salvage) *)
  torn_tail : bool;  (** the WAL ended mid-frame *)
  root_hash : string;  (** recovered engine's root hash *)
  committed_root_hash : string option;
      (** hash in the last replayed commit marker (or the checkpoint's
          root hash when the tail was empty) *)
  prov_root_hash : string option;
      (** output hash of the provenance store's latest record for the
          root object, when one exists *)
  hash_verified : bool;
      (** recovered root hash matches both cross-checks above *)
}

val pp_report : Format.formatter -> report -> unit

val generation_path : dir:string -> int -> string
val generations : dir:string -> (int * string) list
(** Existing generations, newest first. *)

val newest_root : dir:string -> (string option, string) result
(** The root hash recorded in the newest generation's header ([None]:
    no generation).  A cheap staleness probe, not a validation: the
    trailer and the captured state are not read. *)

val checkpoint :
  ?keep:int -> dir:string -> wal:Wal.t -> Engine.t -> (int, string) result
(** Capture the engine's state as a new generation under [dir]
    (created if missing), truncate [wal] up to the covered LSN, and
    prune all but the newest [keep] (default 2) generations.  Returns
    the new generation number. *)

val recover :
  ?mode:Engine.mode ->
  ?pool:Tep_parallel.Pool.t ->
  ?wal_path:string ->
  ?is_decided:(string -> bool) ->
  ?final_checkpoint:bool ->
  dir:string ->
  directory:Participant.Directory.t ->
  unit ->
  (Engine.t * Wal.t * report, string) result
(** Run the pipeline described above.  [?pool] parallelises the
    rebuilt engine's cold root-hash pass (the basis of the
    cross-check) across domains.  [wal_path] defaults to
    [dir ^ "/wal.log"]; a missing WAL file is an empty tail.  The
    returned {!Wal.t} is open and already attached to the engine, so
    operation can continue immediately.  [final_checkpoint] (default
    true) writes the post-recovery generation.  [Error] only when no
    generation is loadable or replay cannot be applied — a mismatched
    root hash is reported, not fatal, so tampering diagnosis can
    proceed on the recovered state.

    [?is_decided] resolves cross-shard two-phase commits: a
    [Wal.Prepare (txid, root)] frame counts as a commit marker iff
    [is_decided txid] — i.e. the coordinator log durably recorded a
    [Wal.Decide] for that transaction (see {!Shards.decided_txids}).
    Defaults to [fun _ -> false], so an unsharded recovery rolls
    prepared-but-undecided work back, exactly like any other
    uncommitted tail. *)
