(* Group-commit batcher with admission control.

   Submits from any number of connections funnel into one batcher per
   shard: the first arrival becomes the leader, drains the queue, and
   runs everything queued as one batch; the followers only block on the
   condition variable until their job is marked finished.  What a
   batch does is the caller's [run]: the batcher knows nothing of
   engines or locks. *)

module Message = Tep_wire.Message
module Participant = Tep_core.Participant

type submit_result =
  | R_pending
  | R_row of int (* insert: fresh row id *)
  | R_oid of Tep_tree.Oid.t (* aggregate: fresh object *)
  | R_unit (* update / delete *)
  | R_err of string (* per-op rejection (batch still commits) *)

(* Commit-level failure classification: WAL trouble gets its own wire
   code (and counter) so operators can tell a sick disk from a logic
   bug, and so clients know a retry with the same rid will re-execute
   (nothing was committed). *)
type batch_fail = F_wal of string | F_failed of string

(* One enqueued unit of submit work: all ops of one job come from one
   connection (hence one participant) and are answered positionally. *)
type job = {
  j_participant : Participant.t;
  j_ops : Message.op array;
  j_results : submit_result array;
  mutable j_records : int; (* the batch commit's records_emitted *)
  mutable j_failed : batch_fail option; (* commit-level failure: atomic *)
  mutable j_done : bool;
}

(* Admission-control knobs, mutable so tests and the overload bench
   can reconfigure a live server. *)
type admission = {
  mutable max_queue_ops : int;
      (* shed a job when a leader is active and the queued-op backlog
         would exceed this; < 0 sheds every write (admission closed) *)
  mutable retry_after_ms : int; (* backoff hint carried by the shed *)
}

type t = {
  b_mutex : Mutex.t;
  b_cond : Condition.t; (* job completion; leader handoff *)
  mutable b_queue : job list; (* newest first *)
  b_queued : int Atomic.t;
      (* ops in [b_queue]: changed under b_mutex at enqueue and drain,
         read without it by Ping and Shard_stats *)
  mutable b_leader : bool; (* a leader is currently draining *)
}

let create () =
  {
    b_mutex = Mutex.create ();
    b_cond = Condition.create ();
    b_queue = [];
    b_queued = Atomic.make 0;
    b_leader = false;
  }

let queued b = Atomic.get b.b_queued

let idle b =
  Mutex.lock b.b_mutex;
  let idle = b.b_queue = [] && not b.b_leader in
  Mutex.unlock b.b_mutex;
  idle

(* Admission happens before the enqueue: when a leader is already
   busy and the queued-op backlog would exceed [max_queue_ops], the
   whole job is shed — bounding both the backlog memory and the
   worst-case latency a queued op can see. *)
let submit b ~max_queue_ops ~run ~on_idle participant ops =
  let n = Array.length ops in
  Mutex.lock b.b_mutex;
  let queued = Atomic.get b.b_queued in
  if max_queue_ops < 0 || (b.b_leader && queued + n > max_queue_ops) then begin
    Mutex.unlock b.b_mutex;
    Error queued
  end
  else begin
    let job =
      {
        j_participant = participant;
        j_ops = ops;
        j_results = Array.make n R_pending;
        j_records = 0;
        j_failed = None;
        j_done = false;
      }
    in
    b.b_queue <- job :: b.b_queue;
    ignore (Atomic.fetch_and_add b.b_queued n);
    if b.b_leader then begin
      while not job.j_done do
        Condition.wait b.b_cond b.b_mutex
      done;
      Mutex.unlock b.b_mutex
    end
    else begin
      b.b_leader <- true;
      while b.b_queue <> [] do
        let jobs = List.rev b.b_queue in
        b.b_queue <- [];
        Atomic.set b.b_queued 0;
        Mutex.unlock b.b_mutex;
        (try run jobs
         with e ->
           (* [run] catches per-group failures; anything escaping is a
              harness-level surprise — fail the drained jobs rather
              than deadlock their waiters. *)
           let msg = F_failed (Printexc.to_string e) in
           List.iter (fun j -> j.j_failed <- Some msg) jobs);
        Mutex.lock b.b_mutex;
        List.iter (fun j -> j.j_done <- true) jobs;
        Condition.broadcast b.b_cond
      done;
      b.b_leader <- false;
      Mutex.unlock b.b_mutex;
      (* a drain may be waiting for exactly this: the batcher went
         leaderless with an empty queue (signalled lock-free) *)
      on_idle ()
    end;
    Ok job
  end
