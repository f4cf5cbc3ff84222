(** Object identifiers for atomic objects.

    The paper's checksums need a "pre-defined total order over atomic
    objects"; oids provide it.  They are allocated densely by a
    per-forest generator and never reused. *)

type t = private int

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_int : t -> int
val of_int : int -> t
(** @raise Invalid_argument if negative. *)

val read : Tep_store.Codec.reader -> t
(** A varint oid; a negative one is malformed. *)

val to_string : t -> string

(** Dense allocator. *)
type gen

val gen : unit -> gen
val fresh : gen -> t
val next_value : gen -> int
val bump_past : gen -> t -> unit
(** Make sure the generator will never emit [oid] again (used when
    loading persisted forests). *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
