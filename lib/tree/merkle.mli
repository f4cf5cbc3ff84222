(** Merkle-style recursive hashing of compound objects (Section 4.3).

    A node with at most {!wide_threshold} children hashes as
    [h('N' | oid | value | k | child oids | h(child_1) | ... | h(child_k))]
    with children in the global oid order — exactly the recursive
    scheme of the paper's Figure 5, which lets the checksum layer reuse
    a child's hash when an ancestor's inherited record needs hashing.

    A wider node commits to the same sorted child list through a
    history-independent chunk tree (in the style of Merkle Search
    Trees): the (child oid, child hash) entries are cut into chunks
    wherever 4-bit digit 0 of a fixed mix of the oid is zero (and
    after the last child); each chunk is digested and the
    (last oid, chunk digest) pairs form the next level, cut on digit
    1, and so on until one chunk remains.  The node hashes as
    [h('W' | oid | value | k | top chunk digest)].  The tree depends
    only on the child set, so a dirty path and a membership proof
    cost O(log k) chunks of ~16 entries instead of O(k) child hashes.

    Two strategies are provided, matching the paper's comparison in
    Figure 7:

    - {b Basic}: hash every node of the tree from scratch.
    - {b Economical}: keep a per-node hash cache (and per-chunk digests
      of wide nodes), invalidate only the changed node, its root path
      and the chunks on that path, and recompute just the dirty spine. *)

val wide_threshold : int
(** 32: nodes with more children use the chunk tree. *)

val max_levels : int
(** 16: bound on the levels of a chunk tree. *)

val closes : level:int -> Oid.t -> bool
(** The chunk-boundary rule: an entry keyed [key] ends its level-[level]
    chunk (the node's last entry ends its chunk regardless). *)

val chunk_digest :
  Tep_crypto.Digest_algo.algo -> level:int -> (Oid.t * string) list -> string
(** Digest of one chunk from its (key, hash) entries. *)

val wide_digest :
  Tep_crypto.Digest_algo.algo ->
  Oid.t ->
  Tep_store.Value.t ->
  count:int ->
  string ->
  string
(** Hash of a wide node from its identity, child count and top chunk
    digest. *)

val hash_subtree : Tep_crypto.Digest_algo.algo -> Subtree.t -> string
(** Pure hash of a snapshot (no cache).  This is the definition the
    cached variants must agree with. *)

val hash_value :
  Tep_crypto.Digest_algo.algo -> Oid.t -> Tep_store.Value.t -> string
(** Hash of an atomic object [(A, val)] — the [h(A, val)] of
    Section 3's checksums. *)

val node_hash :
  Tep_crypto.Digest_algo.algo ->
  Oid.t ->
  Tep_store.Value.t ->
  (Oid.t * string) list ->
  string
(** Hash of a node from its identity and all its children's
    (oid, hash) pairs (oid-sorted) — the one-level step of the
    recursive definition, narrow or wide. *)

val root_of_roots : Tep_crypto.Digest_algo.algo -> string list -> string
(** Deterministic combination of per-shard root hashes, in shard
    order, into the single hash published for a sharded database.
    Domain-separated from node, chunk and atomic frames and injective
    in the list of roots, so two shard configurations agree iff every
    shard root agrees.  [root_of_roots algo [h]] is {e not} [h]: a
    1-shard deployment publishes the engine root directly instead. *)

(** {1 Cached (Economical) hashing} *)

type cache

type stats = {
  nodes_hashed : int;  (** node frames actually digested since reset *)
  chunks_hashed : int;  (** chunk frames of wide nodes digested *)
  cache_hits : int;
  invalidations : int;
}

val create_cache : Tep_crypto.Digest_algo.algo -> Forest.t -> cache
(** Attach a cache to a forest.  The cache subscribes to the forest's
    change feed and invalidates the changed node, its ancestor path
    and the chunks on that path automatically. *)

val algo : cache -> Tep_crypto.Digest_algo.algo

val hash : ?pool:Tep_parallel.Pool.t -> cache -> Oid.t -> (string, string) result
(** Economical hash: recompute only nodes absent from the cache
    (i.e. on invalidated paths) and, in wide nodes, only the chunks
    on those paths; reuse everything else.

    [?pool] (size > 1) is used only on a cold cache (nothing cached
    yet, e.g. the start-up pass) over a forest of at least
    {!par_threshold} nodes: sibling subtrees are hashed on separate
    domains and merged back on the calling domain; the result is
    bit-identical to the sequential pass.  A warm rehash is one dirty
    path and stays sequential.  The forest must not be mutated
    concurrently. *)

val hash_basic :
  ?pool:Tep_parallel.Pool.t -> cache -> Oid.t -> (string, string) result
(** Basic strategy: ignore and refresh the cache for the whole
    subtree — every node is re-hashed.  (Repopulates the cache so a
    later economical pass starts warm.)  [?pool] parallelises across
    sibling subtrees. *)

val par_threshold : int
(** Minimum forest node count before [?pool] is honoured (below it the
    fan-out bookkeeping costs more than it saves). *)

type children =
  | Flat of (Oid.t * string) list
  | Chunked of { count : int; chunks : (Oid.t * string) list list }

val children_proof : cache -> Oid.t -> child:Oid.t -> (children, string) result
(** What [parent] commits to about its children, for a membership
    proof of [child]: every (oid, hash) of a narrow node, or the
    chunk path of a wide one (level 0 first). *)

val invalidate : cache -> Oid.t -> unit
(** Manual invalidation of a node and its ancestor path. *)

val clear : cache -> unit

val stats : cache -> stats
val reset_stats : cache -> unit
