(** The request-id dedup table that makes retried writes exactly-once:
    a completed write's outcome is kept under its rid (bounded FIFO
    eviction), and a duplicate of a write still in flight waits for the
    original's outcome. *)

type t

val create : unit -> t
(** Keeps at most 1024 completed outcomes. *)

val claim : t -> string -> [ `Run | `Hit of Tep_wire.Message.response ]
(** [`Run]: the caller owns the rid and must {!resolve} it.
    [`Hit resp]: the rid already completed with [resp].  Blocks while
    the rid is claimed by another caller. *)

val resolve : t -> string -> Tep_wire.Message.response -> unit
(** Publish a claimed rid's outcome.  Only deterministic outcomes (a
    Submitted, a Checkpointed, a Bad_request) are kept; any other
    forgets the rid, so a retry re-executes. *)

val note_hit : t -> unit
(** Count a duplicate answered without a table lookup (a rid repeated
    within one pipelined batch). *)

val hits : t -> int
(** Retried writes answered without executing. *)
