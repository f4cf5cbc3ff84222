(** Incremental auditing.

    The paper's recipient re-verifies whole provenance objects from
    their genesis on every delivery.  A standing auditor can do much
    better: after one full verification it records, per object, the
    last verified record's seq and checksum and a SHA-256 over the
    encodings of the object's records through it — a {e checkpoint}
    mark — and later audits split the work:

    - the RSA signature check (the dominant cost) runs only on the
      records past the mark;
    - the verifier's chain rules ({!Verifier.check_chain}) run over
      each object's whole stored chain — comparisons, no
      cryptography — so a record dropped, replaced or re-signed below
      the mark breaks a seq or a link;
    - the anchor check requires the marked record to still be stored
      and recomputes the digest over the stored records up to it, so
      any change to an audited record is reported: a chain rewritten
      from scratch or a rewritten tip, even when internally
      consistent, and an edit that breaks only an audited record's
      signature.  This costs hashing, no RSA.

    Checkpoints are serialisable (format [TEPAUD2]) so periodic audit
    jobs can persist them between runs. *)

open Tep_tree

type checkpoint

val empty : checkpoint

val objects : checkpoint -> int
(** Number of objects with a recorded high-water mark. *)

val mark : checkpoint -> Oid.t -> (int * string) option
(** The (seq, checksum) high-water mark for an object, if audited. *)

val forget : checkpoint -> Oid.t list -> checkpoint
(** Drop the marks of these objects: their next audit starts from
    genesis.  Pruning shortens dead objects' chains below their marks,
    so it forgets them. *)

val full_audit :
  ?pool:Tep_parallel.Pool.t ->
  algo:Tep_crypto.Digest_algo.algo ->
  directory:Participant.Directory.t ->
  Provstore.t ->
  Verifier.report * checkpoint
(** Verify every record in the store; on success the checkpoint covers
    every object's latest record.  (A failed report yields a
    checkpoint covering only clean objects.)  [?pool] as in
    {!incremental_audit}. *)

val incremental_audit :
  ?pool:Tep_parallel.Pool.t ->
  algo:Tep_crypto.Digest_algo.algo ->
  directory:Participant.Directory.t ->
  checkpoint ->
  Provstore.t ->
  Verifier.report * checkpoint * int
(** Verify the signatures of the records newer than the checkpoint,
    and the chain rules and anchor of every object.  Returns the
    report, the advanced checkpoint, and the number of records
    examined (signature-checked) — the RSA cost, which is proportional
    to the {e new} work, not to history length.

    With [?pool] the per-object sweeps run on separate domains (the
    store must not be mutated concurrently); report and checkpoint
    are identical to the sequential audit. *)

val to_string : checkpoint -> string
val of_string : string -> (checkpoint, string) result
(** Errors on a damaged checkpoint, and on one in the older [TEPAUD1]
    format, whose marks do not bind the audited chains. *)
