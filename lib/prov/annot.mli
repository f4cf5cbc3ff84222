(** Signed query annotations — tamper-evident lineage for results.

    An annotation binds a query (table, predicate, optional
    aggregate), its result rows with their provenance polynomials, the
    database's published Merkle root at evaluation time, and the
    signing participant into one canonically-encoded payload; the
    payload is digested and RSA-signed exactly like a provenance
    checksum.  A recipient holding the participant directory can
    check, offline, that neither the polynomials nor the result were
    altered after signing — flipping one byte of a stored annotation
    makes {!verify} fail, which [provdb verify] surfaces as exit 3,
    the same class as record tampering. *)

open Tep_store
open Tep_core

type t = {
  a_id : string;  (** caller-chosen name for the saved annotation *)
  a_table : string;
  a_pred : string;  (** {!Tep_store.Query.pred_to_string} form *)
  a_agg : string;  (** {!Tep_store.Query.agg_to_string} form; [""] = select *)
  a_rows : (int * Polynomial.t) list;
      (** (row variable, polynomial) per result row, row order *)
  a_value : Value.t option;  (** the aggregate value, when [a_agg <> ""] *)
  a_root : string;  (** published Merkle root at evaluation time *)
  a_participant : string;
  a_digest : string;  (** SHA-256 of the signing payload, for display *)
  a_signature : string;  (** participant's signature over the payload *)
}

val make :
  id:string ->
  table:string ->
  pred:string ->
  agg:string ->
  rows:(int * Polynomial.t) list ->
  value:Value.t option ->
  root:string ->
  Participant.t ->
  t
(** Build, digest and sign an annotation as the given participant. *)

val verify : Participant.Directory.t -> t -> (unit, string) result
(** Recompute the canonical signing payload (domain-separated,
    length-framed; polynomials in their canonical encoding) from the
    annotation's fields — which is what makes verification detect any
    field edit — and check the stored digest and the signature against
    the participant's directory certificate. *)

val decode : string -> int -> t * int
(** @raise Failure on malformed input. *)

val encoded : t -> string
val of_encoded : string -> (t, string) result

val list_to_string : t list -> string
(** The [annot.dat] file format: magic, count, annotations. *)

val list_of_string : string -> (t list, string) result
