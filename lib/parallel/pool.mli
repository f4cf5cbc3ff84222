(** Fixed-size domain pool for the verification & signing pipeline.

    The provenance hot paths — per-record RSA signature checks,
    Basic-mode subtree hashing, audit sweeps — are embarrassingly
    parallel: every work item is pure, so they can fan out across
    OCaml 5 domains.  This module provides the one pool the rest of
    the system shares, and decides alone when a call fans out.

    Design points:

    - {b Deterministic results.}  [map_chunked] writes result [i] of
      input [i] into slot [i]; callers observe exactly the sequential
      order no matter how chunks interleave across domains.
    - {b Caller participation.}  The submitting domain executes chunks
      itself while it waits, so a pool of [n] domains means [n-1]
      spawned workers plus the caller — and a 1-domain pool degrades
      to plain sequential execution with no synchronisation overhead.
      This also makes nested [map_chunked] calls deadlock-free: a
      worker that fans out again just helps drain the queue.
    - {b One fan-out gate.}  A call runs wholly on the caller when the
      pool has one domain, the work makes one chunk, or there are
      fewer than {!serial_below} items; callers pass the pool and do
      not check its size themselves.
    - {b Exception re-raising.}  If any item raises, the exception of
      the {e lowest-indexed} failing chunk is re-raised in the caller
      (with its backtrace), again independent of scheduling. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains:n ()] builds a pool of [n] total domains: [n-1]
    spawned workers plus the calling domain.  [n] defaults to
    {!default_domains}.  [n] is clamped to [[1, 64]].
    @raise Invalid_argument if [domains < 1]. *)

val default_domains : unit -> int
(** The [TEP_DOMAINS] environment variable if set (clamped to
    [[1, 64]]), otherwise [Domain.recommended_domain_count ()]. *)

val default : unit -> t
(** A lazily-created process-wide pool of {!default_domains} domains.
    Never shut down explicitly; workers die with the process. *)

val sequential : t
(** A shared 1-domain pool (no spawned workers): forces the
    sequential path, e.g. for determinism baselines. *)

val size : t -> int
(** Total domains (workers + caller). *)

val serial_below : int
(** 4: a call over fewer items runs on the calling domain, even on a
    multi-domain pool.  Below it the cross-domain wakeup and handoff
    cost more than the parallelism recovers: a provenance object's
    closure is mostly one to three records, and a commit of a few
    records signs them faster on the caller.  Results are identical
    either way; only the scheduling changes. *)

val map_chunked : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_chunked pool f arr] is observationally [Array.map f arr],
    with items partitioned into chunks of [?chunk] elements (default:
    input size / 4×domains) executed across the pool, from
    {!serial_below} items up.  [f] must be safe to run concurrently
    with itself. *)

val map_list : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map] counterpart of {!map_chunked} (order preserved). *)

val parallel_for :
  ?chunk:int -> t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi f] runs [f i] for every [i] in
    [lo..hi] inclusive (like [for i = lo to hi]), partitioned across
    the pool as {!map_chunked} is.  [f] communicates through its own
    (disjoint or synchronised) state. *)

val shutdown : t -> unit
(** Join the pool's workers.  Idempotent.  Pending queued work is
    drained first; calls issued after shutdown run entirely in the
    caller (still correct, just sequential). *)
