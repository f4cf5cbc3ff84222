(** The read-side dispatch: every request that leaves the engines
    untouched, run under per-shard read locks taken one shard at a
    time in index order.  Fault site: ["server.dispatch.verify"], hit
    by every Verify. *)

val dispatch :
  State.t ->
  Tep_core.Participant.t ->
  Tep_wire.Message.request ->
  Tep_wire.Message.response
(** The answer to one read request from the authenticated participant
    (who signs annotated-query results).  Writes are answered by the
    connection, not here. *)
