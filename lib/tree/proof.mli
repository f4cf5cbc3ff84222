(** Merkle membership proofs.

    A recipient who trusts a compound object's root hash (because the
    latest signed provenance record binds it) can be convinced that
    one atomic object deep inside has a particular value {e without}
    receiving the whole tree: the proof carries, for each step from
    the leaf to the root, the node's frame data and the sibling
    hashes — O(depth × log fanout) instead of O(size): a node with
    more than {!Merkle.wide_threshold} children contributes one chunk
    per level of its chunk tree, not every child.

    This is the authenticated-data-structure connection the paper's
    related work points at (Merkle 1989; outsourced-database
    verification), applied to the provenance tree. *)

open Tep_store

(** What a step's node commits to about its children, as carried by
    a proof (the same shape {!Merkle.children_proof} returns). *)
type children = Merkle.children =
  | Flat of (Oid.t * string) list
      (** A node with at most {!Merkle.wide_threshold} children: every
          (child oid, child hash), oid-sorted. *)
  | Chunked of { count : int; chunks : (Oid.t * string) list list }
      (** A wide node: its child count and the one chunk per level of
          its chunk tree on the proven child's path, level 0 (child
          entries) first, the top chunk last. *)

(** One step of the path: the parent node's identity and the child
    hashes it commits to, with the proven child's position left
    implicit by the previous step. *)
type step = { node_oid : Oid.t; node_value : Value.t; children : children }

type t = {
  leaf_oid : Oid.t;
  leaf_value : Value.t;
  path : step list;  (** leaf's parent first, root last *)
}

val prove : Merkle.cache -> Forest.t -> Oid.t -> (t, string) result
(** Build a membership proof for an atomic object (uses the cache for
    sibling hashes; cost O(dirty path) on a warm cache). *)

val root_oid : t -> Oid.t
(** The root the proof chains to (the leaf itself for a root leaf). *)

val verify :
  Tep_crypto.Digest_algo.algo -> root_hash:string -> t -> (unit, string) result
(** Recompute the hash chain from the leaf up and compare with the
    trusted root hash.  Also checks structural sanity and canonical
    form: each step lists the previous node as a child; entries are
    strictly oid-sorted and carry hashes of the algorithm's width; a
    flat step has at most {!Merkle.wide_threshold} entries; every
    chunk of a wide step obeys the chunk-boundary rule. *)

val size_bytes : t -> int
(** Serialised size — what a slice delivery ships instead of the
    whole subtree. *)

val encode : Buffer.t -> t -> unit
val decode : string -> int -> t * int

val to_string : t -> string
(** [encode] into a fresh standalone byte string (the opaque form
    proofs travel in over the wire). *)

val of_encoded : string -> (t, string) result
(** Total decoder for adversarial input: a standalone encoded proof
    must parse exactly (no trailing bytes) or a typed error is
    returned — no exception ever escapes. *)
