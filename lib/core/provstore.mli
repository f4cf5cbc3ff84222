(** The provenance database.

    Stores provenance records and owns the derivation DAG they form,
    indexed three ways as records arrive: by output object (each
    object's chain, and the objects in oid order), by checksum (the backward predecessor edges of
    Definition 1) and by aggregate input (the forward edges from an
    input to every object aggregated from it).  Every lineage walk
    ({!Prov_index}, {!Prov_query}) reads these indexes; none keeps a
    copy.

    The paper's experimental relation
    ⟨SeqID(int), Participant(int), Oid(int), Checksum(binary 128)⟩ —
    the artifact whose space overhead Section 5 measures — is built
    from the records when asked ({!relation}). *)

open Tep_store
open Tep_tree

type t

val create : ?algo:Tep_crypto.Digest_algo.algo -> unit -> t
(** [algo] (default SHA1, as in the paper) is the digest used for
    subtree hashes referenced by the records. *)

val algo : t -> Tep_crypto.Digest_algo.algo

val append : t -> Record.t -> unit
(** Add a record.  Records for one object must arrive in increasing
    [seq_id] order. @raise Invalid_argument otherwise. *)

val latest : t -> Oid.t -> Record.t option
(** The most recent provenance record of an object (Definition 1). *)

val records_for : t -> Oid.t -> Record.t list
(** All records with this output object, ascending [seq_id]. *)

val find_by_checksum : t -> string -> Record.t option

val aggregated_into : t -> Oid.t -> Oid.t list
(** The outputs of every [Aggregate] record that cites the object as
    an input, each output once (newest first) — the forward edges of
    the derivation DAG. *)

val provenance_object : t -> Oid.t -> Record.t list
(** The full provenance object of [oid] (Definition 1): the
    transitive closure over predecessor-checksum edges, i.e. the
    non-linear provenance DAG flattened to a list sorted by
    [seq_id].  This is what a data recipient is shipped. *)

val all : t -> Record.t list
(** Every record, in arrival order. *)

val record_count : t -> int

val object_count : t -> int

val objects : t -> Oid.t list
(** Every object with at least one record, sorted by oid: read off an
    ordered index that {!append} extends when an object's first record
    arrives, so a call sorts nothing. *)

(** {1 Space accounting (Figures 9 and 11)} *)

val relation : t -> Table.t
(** A fresh relational table of the records, in arrival order, with
    participants numbered by first appearance. *)

val space_bytes : t -> int
(** Bytes of the encoded {!relation}. *)

val paper_row_bytes : int
(** 140 = 4 (SeqID) + 4 (Participant) + 4 (Oid) + 128 (Checksum),
    the fixed row footprint of the paper's provenance schema. *)

val paper_space_bytes : t -> int
(** [record_count * paper_row_bytes]. *)

(** {1 Pruning (the paper's footnote 3)}

    "After an object has been deleted, its provenance object is no
    longer relevant … this enables some optimizations." *)

val prune : t -> live:Oid.t list -> t
(** A new store containing exactly the union of the live objects'
    provenance objects: dead objects' chains are dropped except the
    prefixes still cited (transitively) by live provenance, so every
    surviving object verifies exactly as before.  The original store
    is untouched. *)

(** {1 Persistence} *)

val to_string : t -> string
val read : Codec.reader -> t

val of_string : string -> (t, string) result
(** The whole string must be one store: trailing bytes are refused. *)
