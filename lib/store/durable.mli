(** The one writer of workspace files.

    Every file under a workspace, and every exported bundle, is
    created, replaced or removed here and nowhere else, so the crash
    behaviour of the whole store follows from a handful of functions:

    - {!replace} writes a temp file, fsyncs it, renames it over the
      target and fsyncs the target's directory, so once it returns
      the new content survives a power loss and, until the rename,
      the old content is what a crash leaves;
    - a {!log} is an append channel (the WAL's): appends are buffered,
      {!flush} hands them to the OS, {!sync} makes them durable;
    - {!remove} and {!mkdir} change directory entries.

    Each effect passes its caller's failpoints ({!Tep_fault.Fault})
    and, once done, is reported to {!Tep_fault.Fault.record}; the
    crash-state enumerator in the tests rebuilds every on-disk state a
    crash could leave from that trace. *)

type site
(** A caller's failpoint prefix. *)

val site : string -> site
(** [site p] registers [p.open], [p.write], [p.sync], [p.rename] and
    [p.dirsync], the sites {!replace} passes in that order.
    Idempotent. *)

val read : ?upto:int -> string -> string
(** The whole file (at most [upto] bytes), read into one string.
    @raise Sys_error *)

val replace : site -> string -> string -> (unit, string) result
(** [replace site path data] durably replaces [path] with [data]
    through [path ^ ".tmp"].  Transient I/O errors are retried a
    bounded number of times; {!Tep_fault.Fault.Crash} propagates. *)

val remove : string -> unit
(** Unlink a file; a missing one is not an error.  The removal is
    durable once its directory is next fsynced. *)

val mkdir : string -> unit
(** Create a directory (an existing one is fine) and, when it was
    created, fsync its parent. *)

type log

val open_log : ?header:string -> string -> log
(** An append channel on [path], created if missing.  With [header],
    the file is truncated and starts with it, flushed. *)

val append : string -> log -> string -> unit
(** [append site log data] buffers [data] through the data failpoint
    [site]. *)

val flush : log -> unit
val sync : log -> unit
val close : log -> unit

val discard : log -> unit
(** Close the channel, dropping the bytes it still buffers: they never
    reach the file, not even at exit. *)
