(* The write path: routing, the per-shard group commit, the two-phase
   cross-shard commit, and the whole-service checkpoint. *)

module Message = Tep_wire.Message
module Engine = Tep_core.Engine
module Participant = Tep_core.Participant
module Shards = Tep_core.Shards
module Oid = Tep_tree.Oid
module Fault = Tep_fault.Fault
open Batcher

let error_resp = State.error_resp

(* Hit by a cross-shard commit right after it releases the shards'
   write locks; arming it with [Fault.Delay] holds the commit in that
   window, which is how the tests check that a concurrent Prove already
   sees the commit's published roots. *)
let cross_committed_site = "server.cross.committed"
let () = Fault.register cross_committed_site

let apply_op engine participant (op : Message.op) : submit_result =
  match op with
  | Message.Op_insert { table; cells } -> (
      match Engine.insert_row engine participant ~table cells with
      | Ok row -> R_row row
      | Error e -> R_err e)
  | Message.Op_update { table; row; col; value } -> (
      match Engine.update_cell engine participant ~table ~row ~col value with
      | Ok () -> R_unit
      | Error e -> R_err e)
  | Message.Op_delete { table; row } -> (
      match Engine.delete_row engine participant ~table row with
      | Ok () -> R_unit
      | Error e -> R_err e)
  | Message.Op_aggregate { inputs; value } -> (
      match Engine.aggregate_objects engine participant ~value inputs with
      | Ok oid -> R_oid oid
      | Error e -> R_err e)

(* The wire answer for one op of a commit that emitted [records]
   provenance records. *)
let response_of_result ~records = function
  | R_err e -> error_resp Message.Bad_request e
  | R_row row -> Message.Submitted { row = Some row; oid = None; records }
  | R_oid oid -> Message.Submitted { row = None; oid = Some oid; records }
  | R_unit -> Message.Submitted { row = None; oid = None; records }
  | R_pending ->
      (* unreachable: a commit fills every slot before it answers *)
      error_resp Message.Failed "commit left the operation pending"

(* The body of one complex operation: apply every slot's op in order
   and [store] its outcome.  If nothing survived there is nothing to
   commit: erroring out of the body skips the (empty) commit, exactly
   like a failed singleton submit. *)
let apply_each engine participant slots ~op ~store =
  let any_ok = ref false in
  List.iter
    (fun x ->
      let r = apply_op engine participant (op x) in
      (match r with R_err _ -> () | _ -> any_ok := true);
      store x r)
    slots;
  if !any_ok then Ok () else Error "no operation in the batch succeeded"

(* Execute one drained queue under the write lock.  Jobs are grouped
   by participant ({!Engine.complex_op} signs a batch as one identity);
   within a group, ops run in arrival order inside a single complex
   operation, so the whole group costs one signing pass over the
   touched set, one root rehash, and one WAL append+flush.

   Failure semantics: an op the engine rejects (bad table, missing
   row) gets its own error response while the rest of the batch
   commits — same per-op outcome a singleton submit would see.  If the
   commit itself raises (WAL error, simulated crash), every op of the
   group fails atomically: nothing was durably recorded, and recovery
   rolls the store back to the last commit marker.  The engine's
   memory still holds the group's ops, so the shard is fenced: every
   later group is refused. *)
let run_batch (t : State.t) (shard : Shard.t) (jobs : job list) =
  Shard.note_batch shard
    ~ops:(List.fold_left (fun n j -> n + Array.length j.j_ops) 0 jobs);
  Rwlock.with_write shard.s_rwlock (fun () ->
      (* Group by participant, preserving arrival order of both the
         groups and the ops within each. *)
      let order : string list ref = ref [] in
      let groups : (string, (job * int) list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      List.iter
        (fun job ->
          let name = Participant.name job.j_participant in
          let bucket =
            match Hashtbl.find_opt groups name with
            | Some b -> b
            | None ->
                let b = ref [] in
                Hashtbl.replace groups name b;
                order := name :: !order;
                b
          in
          Array.iteri (fun i _ -> bucket := (job, i) :: !bucket) job.j_ops)
        jobs;
      List.iter
        (fun name ->
          let entries = List.rev !(Hashtbl.find groups name) in
          let participant = (fst (List.hd entries)).j_participant in
          let outcome =
            match Shard.refusal shard with
            | Some m -> Error (F_wal m)
            | None -> (
                match
                  Engine.complex_op shard.s_engine participant (fun () ->
                      apply_each shard.s_engine participant entries
                        ~op:(fun (job, i) -> job.j_ops.(i))
                        ~store:(fun (job, i) r -> job.j_results.(i) <- r))
                with
                | Ok v -> Ok v
                | Error e -> Error (F_failed e)
                | exception Engine.Wal_failure e ->
                    let m = "wal: " ^ e in
                    Atomic.incr t.wal_failures;
                    Shard.fence shard m;
                    Error (F_wal m)
                | exception e ->
                    let m = "commit failed: " ^ Printexc.to_string e in
                    Shard.fence shard m;
                    Error (F_failed m))
          in
          match outcome with
          | Ok ((), m) ->
              Shard.mark_committed shard;
              Shard.note_signed shard m;
              List.iter
                (fun (job, _) -> job.j_records <- m.Engine.records_emitted)
                entries
          | Error msg ->
              (* Distinguish per-op rejections (results already carry
                 their own errors; the batch just had nothing to
                 commit) from a commit-level failure, which voids every
                 op of the group atomically. *)
              let all_rejected =
                List.for_all
                  (fun (job, i) ->
                    match job.j_results.(i) with R_err _ -> true | _ -> false)
                  entries
              in
              if not all_rejected then
                List.iter (fun (job, _) -> job.j_failed <- Some msg) entries)
        (List.rev !order))

let overloaded (t : State.t) queued =
  Message.Overloaded_resp
    {
      retry_after_ms = t.admission.retry_after_ms;
      message =
        Printf.sprintf "admission limit reached (%d op(s) queued)" queued;
    }

let shutting_down n =
  Array.make n (error_resp Message.Shutting_down "server is draining")

(* Commit through one shard's batcher.  A draining server refuses all
   writes (Shutting_down); a job admission sheds gets a typed
   Overloaded response carrying a retry-after hint. *)
let submit_to_shard (t : State.t) (shard : Shard.t) participant
    (ops : Message.op array) : Message.response array =
  let n = Array.length ops in
  if State.draining t then shutting_down n
  else
    match
      Batcher.submit shard.s_batcher
        ~max_queue_ops:t.admission.max_queue_ops ~run:(run_batch t shard)
        ~on_idle:(fun () -> State.signal_idle t)
        participant ops
    with
    | Error queued ->
        ignore (Atomic.fetch_and_add t.shed n);
        Array.make n (overloaded t queued)
    | Ok job ->
        Array.init n (fun i ->
            match job.j_failed with
            | Some (F_wal e) -> error_resp Message.Wal_failed e
            | Some (F_failed e) -> error_resp Message.Failed e
            | None ->
                response_of_result ~records:job.j_records job.j_results.(i))

let owning_shard t oid = State.probe_owner t oid (fun s -> s.Shard.s_index)

(* Table-addressed ops route by the stable table hash; aggregates
   route to the single shard owning every input (per-shard oid spaces
   make a cross-shard aggregate meaningless — the copied subtrees and
   their provenance must land in one forest). *)
let shard_of_op t (op : Message.op) : (int, string) result =
  match op with
  | Message.Op_insert { table; _ }
  | Message.Op_update { table; _ }
  | Message.Op_delete { table; _ } ->
      Ok (Shards.shard_of_table ~shards:(State.shard_count t) table)
  | Message.Op_aggregate { inputs; _ } -> (
      match inputs with
      | [] -> Ok 0 (* nothing to route on; shard 0's engine rejects it *)
      | first :: rest -> (
          match owning_shard t first with
          | None ->
              Error
                (Printf.sprintf "aggregate input oid %d not found"
                   (Oid.to_int first))
          | Some k ->
              if List.for_all (fun oid -> owning_shard t oid = Some k) rest
              then Ok k
              else
                Error
                  "aggregate inputs span shards: all inputs must live on \
                   one shard"))

(* A job whose ops span shards commits atomically under the 2PC marker
   protocol: the coordinator lock serialises these transactions, the
   participating shards' write locks are taken in ascending index
   order (the same order every other multi-lock path uses), and
   {!Shards.commit_cross} runs prepare → decide → phase 2.  Abort —
   any WAL trouble before the Decide is durable — voids every op of
   the job atomically, exactly like a single-shard commit failure, and
   fences every shard whose engine it had already changed.  A
   coordinator log that failed refuses the job before any shard
   prepares. *)
let submit_cross (t : State.t) participant (ops : Message.op array)
    (groups : (int * int array) list) (responses : Message.response option array)
    =
  let fill_all resp =
    List.iter
      (fun (_, slots) ->
        Array.iter (fun i -> responses.(i) <- Some resp) slots)
      groups
  in
  match t.coord with
  | None ->
      fill_all
        (error_resp Message.Failed
           "no coordinator log: cross-shard writes unavailable")
  | Some coord when Tep_store.Wal.fenced coord ->
      fill_all
        (error_resp Message.Wal_failed
           "the coordinator log failed a write: cross-shard writes are \
            refused; stop provdbd and run `provdb recover`")
  | Some coord ->
      Mutex.lock t.coord_lock;
      Atomic.set t.cross_busy true;
      Fun.protect
        ~finally:(fun () ->
          Atomic.set t.cross_busy false;
          Mutex.unlock t.coord_lock;
          State.signal_idle t)
        (fun () ->
          let results = Array.make (Array.length ops) R_pending in
          (* [changed.(k)]: shard k's body ran and did not reject every
             op, so its engine holds the job's writes *)
          let changed = Array.make (Array.length t.shards) false in
          let parts =
            List.map
              (fun (k, slots) ->
                let engine = t.shards.(k).s_engine in
                {
                  Shards.p_shard = k;
                  p_engine = engine;
                  p_by = participant;
                  p_body =
                    (fun () ->
                      changed.(k) <- true;
                      let r =
                        apply_each engine participant (Array.to_list slots)
                          ~op:(fun i -> ops.(i))
                          ~store:(fun i r -> results.(i) <- r)
                      in
                      changed.(k) <- Result.is_ok r;
                      r);
                })
              groups
          in
          (* Arrival accounting, like the shard leaders do at drain. *)
          List.iter
            (fun (k, slots) ->
              Shard.note_batch t.shards.(k) ~ops:(Array.length slots))
            groups;
          let txid = State.fresh_txid t in
          let records = Array.make (Array.length t.shards) 0 in
          let fence_changed reason =
            List.iter
              (fun (k, _) -> if changed.(k) then Shard.fence t.shards.(k) reason)
              groups
          in
          (* Publish or fence every participant before its write lock is
             released: a request admitted after the unlock must see the
             commit's roots, or the fence. *)
          let commit () =
            match
              List.find_map (fun (k, _) -> Shard.refusal t.shards.(k)) groups
            with
            | Some m -> Error (`Refused m)
            | None -> (
                match Shards.commit_cross ~coord ~txid parts with
                | Ok (committed, _) as r ->
                    List.iter
                      (fun (k, _) -> Shard.mark_committed t.shards.(k))
                      committed;
                    r
                | Error e ->
                    fence_changed e;
                    Error (`Aborted e)
                | exception e ->
                    fence_changed
                      ("cross-shard commit failed: " ^ Printexc.to_string e);
                    raise e)
          in
          match
            let r = State.with_writes t (List.map fst groups) commit in
            Fault.hit cross_committed_site;
            r
          with
          | Ok (committed, warnings) ->
              List.iter
                (fun (k, m) ->
                  records.(k) <- m.Engine.records_emitted;
                  Shard.note_signed t.shards.(k) m)
                committed;
              ignore
                (Atomic.fetch_and_add t.wal_failures (List.length warnings));
              List.iter
                (fun (k, slots) ->
                  Array.iter
                    (fun i ->
                      responses.(i) <-
                        Some
                          (response_of_result ~records:records.(k) results.(i)))
                    slots)
                groups
          | Error (`Refused m) -> fill_all (error_resp Message.Wal_failed m)
          | Error (`Aborted e) ->
              Atomic.incr t.wal_failures;
              fill_all (error_resp Message.Wal_failed e)
          | exception e ->
              (* [Fault.Crash] must escape (simulated crash); anything
                 else fails the whole job without deadlocking it. *)
              (match e with Fault.Crash _ -> raise e | _ -> ());
              fill_all
                (error_resp Message.Failed
                   ("cross-shard commit failed: " ^ Printexc.to_string e)))

(* Route, then commit.  Single-shard servers (and jobs whose surviving
   ops all land on one shard) take the concurrent per-shard batcher
   path untouched; only genuinely cross-shard jobs pay the
   coordinator. *)
let submit_ops (t : State.t) participant (ops : Message.op array) :
    Message.response array =
  let n = Array.length ops in
  let nshards = State.shard_count t in
  if nshards = 1 then submit_to_shard t t.shards.(0) participant ops
  else if State.draining t then shutting_down n
  else begin
    let responses : Message.response option array = Array.make n None in
    let by_shard = Array.make nshards [] in
    Array.iteri
      (fun i op ->
        match shard_of_op t op with
        | Ok k -> by_shard.(k) <- i :: by_shard.(k)
        | Error e -> responses.(i) <- Some (error_resp Message.Bad_request e))
      ops;
    let groups =
      List.filter_map
        (fun k ->
          match by_shard.(k) with
          | [] -> None
          | slots -> Some (k, Array.of_list (List.rev slots)))
        (List.init nshards Fun.id)
    in
    (match groups with
    | [] -> ()
    | [ (k, slots) ] ->
        let sub = Array.map (fun i -> ops.(i)) slots in
        let resps = submit_to_shard t t.shards.(k) participant sub in
        Array.iteri (fun j slot -> responses.(slot) <- Some resps.(j)) slots
    | groups -> submit_cross t participant ops groups responses);
    Array.map
      (function
        | Some r -> r
        | None -> error_resp Message.Failed "operation was never routed")
      responses
  end

(* Checkpoint every shard under all write locks.  With every shard
   write-locked no 2PC can be mid-flight, so [Shards.checkpoint_all]
   may truncate the coordinator's decision log once every shard is
   checkpointed. *)
let checkpoint (t : State.t) =
  let durable (s : Shard.t) =
    Option.map (fun (dir, wal) -> (dir, wal, s.s_engine)) s.s_checkpoint
  in
  let parts = List.filter_map durable (Array.to_list t.shards) in
  if State.draining t then
    error_resp Message.Shutting_down "server is draining"
  else if List.length parts < State.shard_count t then
    error_resp Message.Failed "checkpointing not configured"
  else
    State.with_writes t (List.init (State.shard_count t) Fun.id) (fun () ->
        match List.find_map Shard.refusal (State.all_shards t) with
        | Some m -> error_resp Message.Wal_failed m
        | None -> (
            try
              match Shards.checkpoint_all ~coord:t.coord parts with
              | Ok gens ->
                  let generation, lsn = List.hd gens in
                  Message.Checkpointed { generation; lsn }
              | Error e -> error_resp Message.Failed e
            with e -> error_resp Message.Failed (Printexc.to_string e)))
