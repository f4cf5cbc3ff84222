(** Deterministic fault injection for the durability layer.

    The storage code declares named {e failpoint sites} ([register])
    and threads every risky effect through {!hit} (control points:
    fsync, rename, open) or {!output} (data points: file writes).  In
    production nothing is armed and both are near-free.  Tests [arm] a
    site with an {!action} and a hit ordinal, run the workload, and
    observe a crash, a torn or corrupted write, or a transient I/O
    error at an exactly reproducible point.

    Randomness (bit positions for {!Bit_flip}) comes from the
    repository's HMAC-DRBG, re-seeded via {!seed}, so a failing run
    replays identically from the seed.

    All state is global and this module is not thread-safe — the
    harness is single-threaded by design. *)

exception Crash of string
(** Simulated process death at the named site.  Storage code must let
    this escape (never catch it): the crash-enumeration harness relies
    on it unwinding to the test driver, which then exercises
    recovery. *)

type action =
  | Crash_point  (** raise {!Crash} before the effect happens *)
  | Torn_write of float
      (** write only this fraction of the data, flush it, then raise
          {!Crash} — a torn write followed by process death.  Only
          meaningful on {!output} sites. *)
  | Bit_flip
      (** flip one DRBG-chosen bit of the written data and continue —
          silent media corruption.  Only meaningful on {!output}
          sites. *)
  | Transient of int
      (** raise [Sys_error] on this many consecutive hits, then
          succeed — the retryable class ({!with_retry}). *)
  | Delay of float
      (** sleep this many seconds, then let the effect proceed
          normally — a slow disk or a long-running request.  One-shot,
          like the crash class; used by the service tests to hold a
          reader in flight while probing dispatch concurrency. *)

val register : string -> unit
(** Declare a site.  Idempotent; storage modules register their sites
    at load time so {!sites} enumerates them before any I/O runs. *)

val sites : unit -> string list
(** All registered sites, sorted. *)

val arm : ?after:int -> string -> action -> unit
(** Arm [site] to fire on its [after]-th hit from now (default 1 =
    next hit).  Counting starts at the current hit count, so arming is
    insensitive to earlier traffic.  Re-arming replaces the previous
    action.  Unknown sites are registered implicitly. *)

val reset : unit -> unit
(** Disarm every site and zero all hit counters (registrations are
    kept). *)

val seed : string -> unit
(** Re-seed the DRBG used for {!Bit_flip} positions. *)

val enabled : unit -> bool
(** True when at least one site is armed (fast path guard). *)

val hit : string -> unit
(** Pass a control point.  Fires [Crash_point] / [Transient] if armed
    and due; [Torn_write] and [Bit_flip] are treated as [Crash_point]
    here (there is no data to shape).  Armed actions are one-shot:
    they disarm on firing ([Transient n] after [n] raises). *)

val hit_count : string -> int

val output : string -> out_channel -> string -> unit
(** [output site oc data] writes [data] to [oc], honouring an armed
    fault: [Crash_point] raises before writing; [Torn_write f] writes
    [f·len] bytes, flushes and raises; [Bit_flip] writes a corrupted
    copy; [Transient] raises [Sys_error] before writing. *)

val input : string -> string -> string
(** [input site data] passes a data-read point (the mirror of
    {!output}): returns [data] untouched when nothing is armed and
    due, otherwise shapes what the reader sees — [Torn_write f]
    returns only the first [f·len] bytes (a short read), [Bit_flip]
    returns a copy with one DRBG-chosen bit flipped, [Crash_point]
    raises {!Crash}, [Transient] raises [Sys_error].  Used by the
    wire layer to inject torn reads into a connection's byte
    stream. *)

val allow : string -> int -> int
(** [allow site n] is the byte-count shaping point for non-blocking
    I/O: the caller intends to transfer [n] bytes and transfers only
    the returned count this attempt.  [Torn_write f] returns a
    strictly partial count ([max 1 (min (n-1) (f·n))] for [n > 1]) —
    the readiness loop must keep the remainder buffered and re-arm
    [POLLOUT]; [Transient k] returns [0] on [k] consecutive hits — an
    injected EAGAIN storm; [Crash_point] raises; [Delay] sleeps then
    allows everything.  Never raises [Sys_error]: short counts are
    indistinguishable from normal kernel behaviour by design. *)

val with_retry :
  ?attempts:int -> ?backoff:(int -> unit) -> (unit -> 'a) -> ('a, string) result
(** Run [f], retrying on [Sys_error] up to [attempts] times (default
    3) with [backoff i] called before retry [i] (default none; pass a
    sleep for real deployments).  Returns the last error message when
    attempts are exhausted.  {!Crash} and every other exception
    propagate untouched — only the transient class is retried. *)
