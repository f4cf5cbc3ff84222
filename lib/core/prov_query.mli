(** Query interface over collected provenance — the questions the
    paper's motivating scenario asks ("the provenance information
    indicates that the patients' ages were originally collected by
    PCP Paul…"), answered from the records.

    All functions are read-only and respect the partial order of
    Definition 1.  The derivation walks are {!Prov_index.descendants}
    and [Tep_prov.Lineage]'s. *)

open Tep_store
open Tep_tree

val value_history : Provstore.t -> Oid.t -> (int * string * Value.t) list
(** (seq, participant, value) for records carrying an embedded value —
    a cell's visible timeline, oldest first (inherited records
    included — they are part of the object's history per Section
    4.2). *)

val last_writer : Provstore.t -> Oid.t -> string option
(** Who performed the most recent operation on the object. *)

val contributors : Provstore.t -> Oid.t -> (string * int) list
(** Participants across the object's whole provenance DAG (transitive
    closure), with record counts, sorted by count descending — the
    "who touched anything this was derived from" question. *)
