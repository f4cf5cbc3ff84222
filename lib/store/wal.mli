(** Write-ahead log: a durable, replayable record of every mutation to
    a {!Database}.  The provenance engine journals backend mutations
    here so a crashed backend can be rebuilt and re-checked against the
    provenance store.

    {1 On-disk format}

    A log file begins with the header
    ["TEPWAL2\n" · varint(base_seq)] — [base_seq] is the
    sequence number the first frame is expected to carry, so a log
    {!truncate}d to empty still remembers where numbering resumes —
    and contain frames

    {v varint(body_len) · varint(seq) · entry · crc32(4 bytes, BE) v}

    where [body_len] covers everything after the length varint, [seq]
    is a monotonically increasing frame sequence number (the log's
    LSN), and the CRC-32 covers [varint(seq) · entry].  A non-empty
    file that does not start with the magic is refused, not salvaged:
    its frames cannot be told from garbage.  The one exception is a
    strict prefix of a fresh log's header (a crash while the log was
    being created), which reads as empty.

    Reading is {e salvage-mode}: corruption past the header never
    raises.  A torn
    final frame is reported as [torn_tail]; a corrupt mid-file frame
    is skipped and the reader re-synchronises on the next frame whose
    CRC validates and whose sequence number continues the monotone
    order, so every intact frame after the damage is still
    recovered. *)

type entry =
  | Create_table of string * Schema.t
  | Insert_row of string * int * Value.t array  (** table, row id, cells *)
  | Delete_row of string * int
  | Update_cell of string * int * int * Value.t  (** table, row, col, new *)
  | Aggregate of Value.t * int list
      (** (value, input oids): an aggregate the engine performed.  It
          leaves the backend alone, but allocates forest oids, so
          recovery must redo it for later inserts to land on the same
          oids.  Oids travel as ints because this library cannot see
          the tree's oid type. *)
  | Commit of string
      (** commit marker written by the engine at complex-operation
          commit; the payload is the post-commit root hash.  Recovery
          replays only up to the last marker — frames after it belong
          to an operation that never committed. *)
  | Blob of string
      (** opaque payload journaled by upper layers (the engine logs
          each emitted provenance record here, {!Tep_core.Record}
          encoded); ignored by {!replay} *)
  | Prepare of string * string
      (** (txid, root_hash): intent marker for a cross-shard two-phase
          commit.  Written in place of [Commit] by a shard
          participating in a distributed transaction; it becomes a
          commit marker only once the coordinator log carries a
          matching [Decide] for the same txid.  Recovery treats an
          undecided [Prepare] like any non-marker frame, so the
          prepared work is rolled back. *)
  | Decide of string * int list
      (** (txid, participant shard indices): coordinator commit
          decision.  Appended (and flushed) to the coordinator log
          only after every participant's [Prepare] is durable; its
          presence makes each matching [Prepare] a commit marker. *)

val is_relational : entry -> bool
(** True for the four backend-mutating entries, false for
    [Aggregate]/[Commit]/[Blob]/[Prepare]/[Decide]. *)

type salvage = {
  entries : (int * entry) list;  (** (frame seq, entry), in log order *)
  skipped_frames : int;
      (** corrupt regions skipped mid-file (each maximal damaged run
          counts once — the true frame count inside garbage is
          unknowable) *)
  torn_tail : bool;
      (** the file ends in an incomplete frame (crash mid-append) *)
  bytes_salvaged : int;  (** bytes of intact frames recovered *)
}

val empty_salvage : salvage
(** No frames and no damage: what a missing log holds. *)

type t

val in_memory : unit -> t

val open_file : ?sync:bool -> string -> t
(** Append mode; creates the file if missing, empty or a header
    prefix.  Existing files are scanned (salvage-mode) to learn the
    next sequence number.  With [~sync:true] every append is flushed
    and fsynced before returning (durable but slow); otherwise call
    {!flush}/{!sync} at commit boundaries.
    @raise Sys_error if the file cannot be read or opened, or its
    header is damaged. *)

val append : t -> entry -> (unit, string) result
(** Append one entry.  Transient I/O errors are retried a bounded
    number of times; a persistent failure returns [Error] and does
    {e not} count the entry, so {!entry_count} never exceeds what was
    handed to the OS. *)

val flush : t -> (unit, string) result
val sync : t -> (unit, string) result
(** [flush] pushes buffered frames to the OS; [sync] additionally
    fsyncs to the device.

    A persistent failure of {!append}, [flush] or [sync] fences the
    handle: the frames it had not yet pushed to the OS are dropped and
    never written, neither by {!close} nor at exit, and every later
    write through it (also {!truncate}) returns [Error]. *)

val fenced : t -> bool
(** A write through this handle failed persistently. *)

val close : t -> unit

val last_seq : t -> int
(** Sequence number of the last appended frame; [-1] when the log is
    empty.  For a reopened file this continues across sessions. *)

val checkpoint : t -> (int, string) result
(** Make everything appended so far durable ([sync]) and return the
    last sequence number — the LSN a snapshot taken {e now} covers.
    Pass it to {!truncate} once the snapshot is safely on disk. *)

val truncate : t -> upto:int -> (unit, string) result
(** Drop all frames with [seq <= upto] (atomically: rewrite to a temp
    file, fsync, rename, reopen).  Surviving frames keep their
    sequence numbers, so LSNs remain comparable across truncations. *)

val entries : t -> entry list
(** All entries appended so far (for an [open_file] log, re-reads the
    file in salvage mode, including entries from previous sessions). *)

val entry_count : t -> int
(** Entries successfully appended through this handle (failed appends
    are not counted). *)

val salvage_file : string -> (salvage, string) result
(** Read a log file in salvage mode.  Never raises; [Error] for I/O
    failures (missing file, etc.) and for a damaged header, with a
    message naming the file. *)

val read_file : string -> entry list
(** Salvaged entries of a log file, discarding the damage report.
    @raise Sys_error on the errors of {!salvage_file}. *)

val apply : Database.t -> entry -> (unit, string) result
(** Apply one entry to a database.  Entries that do not mutate the
    backend ([Aggregate]/[Commit]/[Blob]/[Prepare]/[Decide]) are
    no-ops. *)

val replay : entry list -> Database.t -> (unit, string) result
(** {!apply} each entry in order, stopping at the first error. *)

val load_and_replay : string -> Database.t -> (int, string) result
(** Salvage a log file and replay it into a database; returns the
    number of entries applied. *)

val encode_entry : Buffer.t -> entry -> unit
val decode_entry : string -> int -> entry * int
