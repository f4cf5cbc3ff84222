(** A bounded LRU (256 entries) of encoded membership proofs, keyed
    by leaf oid and stamped with the commit epoch they were built at.
    Not thread-safe: the caller holds a lock across every call. *)

type t

val create : unit -> t

val find_or_build :
  t ->
  epoch:int ->
  Tep_tree.Oid.t ->
  (Tep_tree.Oid.t -> (string, string) result) ->
  (string * [ `Hit | `Miss ], string) result
(** The cached bytes for the oid when they were built at [epoch];
    otherwise [build] them, cache them (evicting the least recently
    used entry when full) and report a miss. *)
