(** Immutable snapshots of compound objects.

    Provenance records capture [subtree(A)] before and after each
    operation (Section 4.2 of the paper); this is that snapshot type.
    Children are kept sorted by oid — the globally-defined total order
    the checksum scheme requires. *)

type t = {
  oid : Oid.t;
  value : Tep_store.Value.t;
  children : t list;  (** sorted by oid, strictly increasing *)
}

val atom : Oid.t -> Tep_store.Value.t -> t

val make : Oid.t -> Tep_store.Value.t -> t list -> t
(** Sorts the children. @raise Invalid_argument on duplicate child
    oids. *)

val size : t -> int
(** Number of nodes. *)

val depth : t -> int
(** 1 for a leaf. *)

val find : t -> Oid.t -> t option
(** Find a descendant (or the root itself) by oid. *)

val oids : t -> Oid.t list
(** Preorder. *)

val equal : t -> t -> bool
val encode : Buffer.t -> t -> unit
(** Deterministic binary encoding (injective), used both for
    persistence and as hashing input framing. *)

val read : Tep_store.Codec.reader -> t
val decode : string -> int -> t * int
val encoded : t -> string

val to_string : t -> string
(** Multi-line indented rendering. *)
