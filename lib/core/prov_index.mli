(** Memoized closures over the provenance DAG.

    {!Prov_query} and the lineage engine both walk the same two edge
    sets — backward over predecessor checksums and forward over
    aggregation inputs.  Recomputing those walks per query is
    quadratic on deep derivation chains (the old [derivatives]
    rescanned every record per frontier node); this index builds the
    forward adjacency once per store generation and memoizes the
    closures, so repeated lineage questions over an unchanged store
    are amortised linear.

    An index is a snapshot: it answers over the records present when
    it was built.  {!of_store} keeps a one-slot cache keyed on the
    store's identity and record count, so callers can re-request the
    index per query and still share the memo tables until the store
    grows.  All entry points are thread-safe (the server asks lineage
    questions from concurrent reader threads). *)

open Tep_tree

type t

val of_store : Provstore.t -> t
(** The index for the store's current generation.  Cheap when the
    cached index is still valid; otherwise one linear scan to rebuild
    the forward adjacency. *)

val store : t -> Provstore.t

val closure : t -> Oid.t -> Record.t list
(** Memoized {!Provstore.provenance_object}: the backward transitive
    closure, sorted by [seq_id]. *)

val ancestors : t -> Oid.t -> Oid.t list
(** Objects the given object transitively derives from (excluding
    itself), sorted — [Prov_query.derived_from] semantics. *)

val descendants : t -> Oid.t -> Oid.t list
(** Forward transitive closure over aggregation edges (excluding the
    object itself), sorted — [Prov_query.derivatives] semantics. *)

val depth : t -> Oid.t -> int
(** Derivation depth: 0 for objects never output by an [Aggregate]
    record, else 1 + the maximum depth over every aggregate input
    across the object's aggregate records.  Iterative, so 10k-deep
    chains do not overflow the stack. *)
