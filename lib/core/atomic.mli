(** The Section-3 protocol over atomic objects, standalone.

    This is the paper's base scheme before the compound-object
    extension: a store of atomic objects, each with a per-object
    checksum chain, where aggregation may cite {e any} recorded
    version of an input (the multiversion reads of Figure 2, where C
    aggregates the original value a1 of A after A has moved on).

    {!Engine} supersedes this for real databases; [Atomic] exists
    because it exactly reproduces the paper's worked example
    (Figure 3) and gives linear-provenance applications a minimal
    API. *)

open Tep_store
open Tep_tree

type t

val create : ?algo:Tep_crypto.Digest_algo.algo -> Participant.Directory.t -> t

val algo : t -> Tep_crypto.Digest_algo.algo

(** {1 Operations} *)

val insert : t -> Participant.t -> Value.t -> Oid.t * Record.t
(** [C_0 = S(0 | h(A, val) | 0)], seq 0. *)

val update : t -> Participant.t -> Oid.t -> Value.t -> (Record.t, string) result
(** [C_i = S(h(A,val) | h(A,val') | C_{i-1})], seq [i = prev + 1]. *)

val delete : t -> Oid.t -> (unit, string) result
(** Removes the object; its provenance is no longer deliverable. *)

val aggregate :
  t ->
  Participant.t ->
  value:Value.t ->
  (Oid.t * int option) list ->
  (Oid.t * Record.t, string) result
(** [aggregate t p ~value inputs] creates a new object [B] from the
    given input versions ([None] = the input's latest version).
    [C = S(h(h(A_1,v_1)|..|h(A_n,v_n)) | h(B,val) | C_1|..|C_n)], seq
    [= max input seq + 1]. *)

(** {1 Inspection and delivery} *)

val current : t -> Oid.t -> Value.t option
val version : t -> Oid.t -> int -> Value.t option
val latest_seq : t -> Oid.t -> int option

val deliver : t -> Oid.t -> (Subtree.t * Record.t list, string) result
(** The atom snapshot and the full provenance DAG closure — ready for
    {!Verifier.verify}. *)

val verify : t -> Oid.t -> (Verifier.report, string) result
