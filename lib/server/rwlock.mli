(** Writer-preferring reader–writer lock for the service dispatch
    path.

    Read-only requests (verify, audit, query, root-hash) share the
    lock so they run concurrently across connections; submits and
    checkpoints take the exclusive writer side.  A waiting writer
    blocks {e new} readers — under a steady read load the group-commit
    leader would otherwise starve — while readers already inside
    finish undisturbed.

    Not reentrant: a thread holding either side must not re-acquire
    the lock. *)

type t

val create : unit -> t

val with_read : t -> (unit -> 'a) -> 'a
(** Runs the thunk holding a shared read lock; exceptions release the
    lock and propagate. *)

val with_write : t -> (unit -> 'a) -> 'a
(** Runs the thunk holding the exclusive write lock; exceptions
    release the lock and propagate. *)
