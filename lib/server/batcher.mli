(** Group-commit batcher with admission control: the first submitter
    to find no leader drains the queue and runs it as one batch; later
    arrivals wait for their job to finish. *)

type submit_result =
  | R_pending
  | R_row of int  (** insert: fresh row id *)
  | R_oid of Tep_tree.Oid.t  (** aggregate: fresh object *)
  | R_unit  (** update / delete *)
  | R_err of string  (** per-op rejection (the batch still commits) *)

type batch_fail =
  | F_wal of string  (** the commit could not be made durable *)
  | F_failed of string

type job = {
  j_participant : Tep_core.Participant.t;
  j_ops : Tep_wire.Message.op array;
  j_results : submit_result array;  (** one slot per op, filled by [run] *)
  mutable j_records : int;  (** the batch commit's records_emitted *)
  mutable j_failed : batch_fail option;  (** voids every op of the job *)
  mutable j_done : bool;
}

type admission = {
  mutable max_queue_ops : int;
      (** shed a job when a leader is busy and the queued-op backlog
          would exceed this; [< 0] sheds every write *)
  mutable max_session_inflight : int;
      (** cap on one connection's buffered pipelined submits *)
  mutable retry_after_ms : int;  (** backoff hint carried by a shed *)
}

type t

val create : unit -> t

val queued : t -> int
(** Ops waiting in the queue (lock-free read). *)

val idle : t -> bool
(** No leader is running and nothing is queued. *)

val submit :
  t ->
  max_queue_ops:int ->
  run:(job list -> unit) ->
  on_idle:(unit -> unit) ->
  Tep_core.Participant.t ->
  Tep_wire.Message.op array ->
  (job, int) result
(** Enqueue one job and return it once a batch ran it.  The leader
    calls [run] on each drained queue (in arrival order, outside the
    batcher lock; an exception fails the drained jobs) and [on_idle]
    once it hands back an empty queue.  [Error queued] means admission
    shed the job before it was enqueued. *)
