(* Idempotency: the request-id dedup table.

   A client retrying a write it never saw an answer for (dropped
   connection, lost response) re-sends it under the same request id.
   The table remembers the outcome of every recently completed write
   keyed by rid, so the retry returns the original result instead of
   executing twice.  [Pending] marks a rid whose original is still in
   flight: a duplicate arriving meanwhile (the retry raced the
   original) waits for that outcome rather than re-executing. *)

module Message = Tep_wire.Message

type state = Pending | Done of Message.response

type t = {
  mutex : Mutex.t;
  cond : Condition.t; (* Pending -> Done transitions *)
  tbl : (string, state) Hashtbl.t;
  order : string Queue.t; (* completed rids, oldest first (eviction) *)
  hits : int Atomic.t; (* retried writes answered without executing *)
}

(* completed entries kept; pendings are never evicted *)
let capacity = 1024

let create () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 64;
    order = Queue.create ();
    hits = Atomic.make 0;
  }

let hits t = Atomic.get t.hits
let note_hit t = Atomic.incr t.hits

(* A pending rid makes the duplicate wait for the original's outcome —
   two executions of one rid can never overlap. *)
let claim t rid =
  Mutex.lock t.mutex;
  let rec go () =
    match Hashtbl.find_opt t.tbl rid with
    | Some (Done resp) ->
        Mutex.unlock t.mutex;
        note_hit t;
        `Hit resp
    | Some Pending ->
        Condition.wait t.cond t.mutex;
        go ()
    | None ->
        Hashtbl.replace t.tbl rid Pending;
        Mutex.unlock t.mutex;
        `Run
  in
  go ()

(* Only deterministic outcomes are worth caching: a Submitted (the op
   committed) or a Bad_request (the engine rejected it without
   touching state; a blind retry gets the same answer).  Commit-level
   failures and sheds are transient — the retry should re-execute. *)
let cacheable (resp : Message.response) =
  match resp with
  | Message.Submitted _ | Message.Checkpointed _ -> true
  | Message.Error_resp { code = Message.Bad_request; _ } -> true
  | _ -> false

(* A cacheable response is kept (bounded FIFO eviction of completed
   entries); any other forgets the rid so a client retry re-executes —
   used for commit-level failures, where nothing was applied and
   re-running is the correct recovery. *)
let resolve t rid resp =
  Mutex.lock t.mutex;
  if cacheable resp then begin
    Hashtbl.replace t.tbl rid (Done resp);
    Queue.push rid t.order;
    while Queue.length t.order > capacity do
      Hashtbl.remove t.tbl (Queue.pop t.order)
    done
  end
  else Hashtbl.remove t.tbl rid;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex
