(** Lineage walks over the derivation DAG a {!Provstore} owns.

    {!Prov_query} and the lineage engine walk the same two edge
    sets — backward over predecessor checksums
    ({!Provstore.find_by_checksum}) and forward over aggregation
    inputs ({!Provstore.aggregated_into}).  The store records both as
    records arrive, so a walk never scans the store: each one visits
    only the objects it reaches, keeps its memo for the length of the
    call, and is linear on a 10 000-deep derivation chain.

    An index is the store itself, with no state of its own: it
    answers over the records present when a walk runs, and concurrent
    walks need no lock as long as nobody writes to the store. *)

open Tep_tree

type t

val of_store : Provstore.t -> t
(** O(1): the index is a view of the store. *)

val store : t -> Provstore.t

val descendants : t -> Oid.t -> Oid.t list
(** Forward transitive closure over aggregation edges (excluding the
    object itself), sorted: what was built from this object. *)

val depth : t -> Oid.t -> int
(** Derivation depth: 0 for objects never output by an [Aggregate]
    record, else 1 + the maximum depth over every aggregate input
    across the object's aggregate records.  Iterative, so 10k-deep
    chains do not overflow the stack. *)
