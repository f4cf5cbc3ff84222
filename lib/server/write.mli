(** The write path: route each op to its shard, commit single-shard
    jobs through that shard's group-commit batcher and cross-shard
    jobs under the two-phase marker protocol, and checkpoint the whole
    service.  Fault site: ["server.cross.committed"], hit right after a
    cross-shard commit releases its write locks. *)

val submit_ops :
  State.t ->
  Tep_core.Participant.t ->
  Tep_wire.Message.op array ->
  Tep_wire.Message.response array
(** One response per op, positionally.  A draining server answers
    Shutting_down; a shed job Overloaded. *)

val overloaded : State.t -> int -> Tep_wire.Message.response
(** The typed shed answer, given the backlog that caused it. *)

val checkpoint : State.t -> Tep_wire.Message.response
(** Checkpoint every shard (and truncate the coordinator log) under
    all shard write locks. *)
