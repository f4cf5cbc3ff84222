(** Lineage queries over the provenance DAG, answered as polynomials.

    Where {!Tep_core.Prov_query} returns lists of participants and
    oids, these return the {e structure} of a derivation: {!why} is
    the provenance polynomial of an object over its base objects
    (inserted or imported roots of the DAG), from which the membership
    ({!which_inputs}), cost ({!min_support}) and trust questions all
    fall out by semiring evaluation.

    All functions take a {!Tep_core.Prov_index.t}: every walk reads
    the derivation edges the store owns, with a memo local to the
    call. *)

open Tep_tree
open Tep_core

val why : Prov_index.t -> Oid.t -> Polynomial.t
(** The provenance polynomial of an object: base objects (no
    aggregate record of their own — inserts, imports, or dangling
    references) map to their variable; an aggregated object is the
    product of its inputs' polynomials, summed over its aggregate
    records when it has several (alternative derivations).  Updates
    refine an object in place and do not change its derivation. *)

val which_inputs : Prov_index.t -> Oid.t -> Oid.t list
(** The base objects appearing in {!why} — the witness set, sorted. *)

val depth : Prov_index.t -> Oid.t -> int
(** Aggregation hops from the deepest base object (0 for bases). *)

val impact : Prov_index.t -> Oid.t -> Oid.t list
(** Forward closure: every object transitively derived from this one. *)

val min_support : Prov_index.t -> Oid.t -> int
(** Tropical evaluation of {!why} with every base at cost 1: how many
    base-object uses the cheapest derivation needs. *)

val oid_name : int -> string
(** [o<n>] — the variable renderer lineage output uses. *)

val poly_to_string : Polynomial.t -> string
(** {!Polynomial.to_string} with {!oid_name} naming, e.g.
    [o2*o5 + o7^2]. *)
