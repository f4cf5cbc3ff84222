(* The read-side dispatch.  Read-only requests run concurrently with
   each other: nothing here may mutate any engine.  Each shard's audit
   checkpoint and its Merkle cache (which a proof walk memoises into)
   are the read-side mutables; each sits behind its own per-shard
   mutex, taken inside the read lock.  Per-shard read locks are taken
   as close to each shard access as possible.  Roots are atomics and
   take no lock at all. *)

module Message = Tep_wire.Message
module Engine = Tep_core.Engine
module Audit = Tep_core.Audit
module Provstore = Tep_core.Provstore
module Shards = Tep_core.Shards
module Prov_index = Tep_core.Prov_index
module Lineage = Tep_prov.Lineage
module Polynomial = Tep_prov.Polynomial
module Annotate = Tep_prov.Annotate
module Annot = Tep_prov.Annot
module Oid = Tep_tree.Oid
module Forest = Tep_tree.Forest
module Tree_view = Tep_tree.Tree_view
module Fault = Tep_fault.Fault

let error_resp = State.error_resp

(* Hit on the read-side dispatch of every Verify request; arming it
   with [Fault.Delay] holds a verification in flight, which is how the
   tests observe that readers are not serialised. *)
let verify_site = "server.dispatch.verify"
let () = Fault.register verify_site

let report = Message.report_of_verifier

let empty_report =
  {
    Message.rp_records = 0;
    rp_objects = 0;
    rp_signatures = 0;
    rp_violations = [];
  }

let sum f xs = List.fold_left (fun n x -> n + f x) 0 xs

(* Counters summed, violation lists concatenated in order — one pass,
   so folding a sweep's thousands of per-object reports stays linear. *)
let concat_reports (reports : Message.report list) =
  {
    Message.rp_records = sum (fun r -> r.Message.rp_records) reports;
    rp_objects = sum (fun r -> r.Message.rp_objects) reports;
    rp_signatures = sum (fun r -> r.Message.rp_signatures) reports;
    rp_violations = List.concat_map (fun r -> r.Message.rp_violations) reports;
  }

(* A fenced shard answers every read with wal-failed.  The check runs
   under the shard's read lock, after any commit that fenced it. *)
exception Fenced of string

let check_fence s = Option.iter (fun m -> raise (Fenced m)) (Shard.refusal s)

(* [f shard] for every shard in index order, each under its own read
   lock.  Sequential, not nested: no read lock is held while another
   shard's is awaited, so a fan-out read can never participate in a
   lock cycle. *)
let map_shards (t : State.t) f =
  Array.to_list
    (Array.map
       (fun (s : Shard.t) ->
         Rwlock.with_read s.s_rwlock (fun () ->
             check_fence s;
             f s))
       t.shards)

(* The per-shard results, or the first shard's error. *)
let all_ok results =
  match List.find_map (function Error e -> Some e | Ok _ -> None) results with
  | Some e -> Error e
  | None -> Ok (List.map Result.get_ok results)

(* Oid-addressed reads resolve against the owning shard and run under
   its read lock in one step. *)
let with_owning_shard t oid f =
  match
    State.probe_owner t oid (fun s ->
        check_fence s;
        f s)
  with
  | Some resp -> resp
  | None -> error_resp Message.Not_found "object not found in any shard"

let pong (t : State.t) =
  let shards = List.map Shard.stat (Array.to_list t.shards) in
  let draining = State.draining t in
  Message.Pong
    {
      ready = not draining;
      draining;
      active = Atomic.get t.active;
      queued_ops = sum (fun s -> s.Message.ss_queued) shards;
      batches = sum (fun s -> s.Message.ss_batches) shards;
      ops = sum (fun s -> s.Message.ss_ops) shards;
      dedup_hits = Dedup.hits t.dedup;
      wal_failures = Atomic.get t.wal_failures;
      shed = Atomic.get t.shed;
      reaped = Atomic.get t.reaped;
    }

(* The hash the service publishes, from the per-shard committed roots. *)
let published_root (t : State.t) =
  Shards.published_root
    (Engine.algo (State.engine t))
    (List.map Shard.root (State.all_shards t))

let lineage (s : Shard.t) kind oid =
  let idx = Prov_index.of_store (Engine.provstore s.s_engine) in
  match kind with
  | Message.L_why ->
      let p = Lineage.why idx oid in
      Message.Lineage_resp
        {
          poly = Polynomial.encoded p;
          depth = Lineage.depth idx oid;
          oids = List.map Oid.of_int (Polynomial.vars p);
        }
  | Message.L_inputs ->
      Message.Lineage_resp
        { poly = ""; depth = 0; oids = Lineage.which_inputs idx oid }
  | Message.L_depth ->
      Message.Lineage_resp
        { poly = ""; depth = Lineage.depth idx oid; oids = [] }
  | Message.L_impact ->
      Message.Lineage_resp
        { poly = ""; depth = 0; oids = Lineage.impact idx oid }

(* The annotation binds the published root, read inside the shard's
   read lock: the owning shard's part of it is the root of exactly the
   rows signed. *)
let annotated_query (t : State.t) participant ~table ~where ~agg =
  let (s : Shard.t) =
    t.shards.(Shards.shard_of_table ~shards:(State.shard_count t) table)
  in
  Rwlock.with_read s.s_rwlock (fun () ->
      check_fence s;
      let root = published_root t in
      match Tep_store.Database.get_table (Engine.backend s.s_engine) table with
      | None -> error_resp Message.Not_found ("no such table " ^ table)
      | Some tbl -> (
          match
            Annotate.query
              ~var:(Annotate.row_var (Engine.mapping s.s_engine) table)
              tbl ~where
              ~agg:(if agg = "" then None else Some agg)
          with
          | Error (Annotate.Parse e | Annotate.Eval e) ->
              error_resp Message.Bad_request e
          | Ok q ->
              let annot =
                Annot.make ~id:"" ~table
                  ~pred:(Tep_store.Query.pred_to_string q.Annotate.q_pred) ~agg
                  ~rows:(List.map (fun (_, v, p) -> (v, p)) q.q_rows)
                  ~value:q.q_value ~root participant
              in
              Message.Annotated_resp
                {
                  arows =
                    List.map
                      (fun ((r : Tep_store.Table.row), v, p) ->
                        (v, r.Tep_store.Table.cells, Polynomial.encoded p))
                      q.q_rows;
                  avalue = q.q_value;
                  annot = Annot.encoded annot;
                }))

(* Everything the client will recheck must come from ONE committed
   state of the owning shard: shard k's root and the proofs are read
   inside its read lock, where no commit can land in between.  The
   other shards' roots are read there too, from their atomics.  A
   commit elsewhere only means the root-of-roots the client recomputes
   no longer matches a trusted root fetched earlier — the client
   re-fetches Root_hash and retries, like any stale read. *)
let prove (t : State.t) ~table ~row ~col =
  let k = Shards.shard_of_table ~shards:(State.shard_count t) table in
  let (s : Shard.t) = t.shards.(k) in
  Rwlock.with_read s.s_rwlock (fun () ->
      check_fence s;
      let shard_roots = List.map Shard.root (State.all_shards t) in
      let mapping = Engine.mapping s.s_engine in
      let leaves =
        match col with
        | Some c -> (
            match Tree_view.cell_oid mapping table row c with
            | Some oid -> Ok [ oid ]
            | None -> Error (Printf.sprintf "no cell %s[%d].%d" table row c))
        | None -> (
            match Tree_view.row_oid mapping table row with
            | None -> Error (Printf.sprintf "no row %s[%d]" table row)
            | Some oid -> (
                (* every cell of the row; a cell-less row is itself
                   atomic and proves directly *)
                match Forest.children (Engine.forest s.s_engine) oid with
                | [] -> Ok [ oid ]
                | cells -> Ok cells))
      in
      match leaves with
      | Error e -> error_resp Message.Not_found e
      | Ok leaves -> (
          let rec build acc = function
            | [] -> Ok (List.rev acc)
            | oid :: rest -> (
                match Shard.serve_proof s oid with
                | Error e -> Error e
                | Ok bytes ->
                    let records =
                      Provstore.provenance_object (Engine.provstore s.s_engine)
                        oid
                    in
                    build ((bytes, records) :: acc) rest)
          in
          match build [] leaves with
          | Ok items -> Message.Proof_resp { shard = k; shard_roots; items }
          | Error e -> error_resp Message.Failed e))

(* One DRBG, drawn in shard-then-oid order over the sorted live object
   lists, makes the sweep reproducible from the seed alone: any
   auditor can replay it and obtain the same sample, so a server
   cannot steer the sweep away from tampered objects.  [map_shards]
   visits shards sequentially in index order, so the draw order is
   deterministic.  Each sampled object gets the full recipient-side
   check of its provenance closure (R1–R8 over the DAG), giving the
   standard detection bound P(miss k tampered objects) ≤ (1−α)^k per
   sweep. *)
let audit_sample (t : State.t) ~seed ~alpha_ppm =
  let drbg = Tep_crypto.Drbg.create ~seed in
  let object_report (oid, result) =
    match result with
    | Ok r -> report r
    | Error e ->
        {
          empty_report with
          Message.rp_violations =
            [ Printf.sprintf "%s: %s" (Oid.to_string oid) e ];
        }
  in
  let per_shard =
    map_shards t (fun s ->
        Shards.sample_shard ?pool:t.pool ~drbg ~alpha_ppm s.s_engine)
  in
  let results = List.concat_map fst per_shard in
  Message.Audit_sample_resp
    {
      report = concat_reports (List.map object_report results);
      sampled = List.length results;
      population = sum snd per_shard;
    }

let dispatch_read (t : State.t) participant (req : Message.request) =
  match req with
  | Message.Hello _ | Message.Auth _ ->
      error_resp Message.Bad_request "already authenticated"
  | Message.Submit_idem _ | Message.Checkpoint_idem _ ->
      (* answered by the connection through the dedup table *)
      error_resp Message.Failed "write request on the read path"
  | Message.Ping -> pong t
  | Message.Query (Some oid) ->
      with_owning_shard t oid (fun s ->
          match Engine.deliver s.s_engine oid with
          | Ok (_, records) -> Message.Records records
          | Error e -> error_resp Message.Not_found e)
  | Message.Query None -> (
      (* the whole database: every shard's root provenance, in shard
         order *)
      match
        all_ok
          (map_shards t (fun s ->
               Engine.deliver s.s_engine (Engine.root_oid s.s_engine)))
      with
      | Ok delivered -> Message.Records (List.concat_map snd delivered)
      | Error e -> error_resp Message.Not_found e)
  | Message.Verify (Some oid) ->
      Fault.hit verify_site;
      with_owning_shard t oid (fun s ->
          match Engine.verify_object s.s_engine oid with
          | Ok r -> Message.Verified { report = report r; store_audit = None }
          | Error e -> error_resp Message.Not_found e)
  | Message.Verify None -> (
      Fault.hit verify_site;
      (* per-shard root verification + store audit, merged: violation
         lists concatenate in shard order, counters sum — R1-R8 cover
         the union of the shards, which is the whole database *)
      let verify_one (s : Shard.t) =
        Result.map
          (function
            | None -> (empty_report, empty_report)
            | Some (r, store) -> (report r, report store))
          (Shards.verify_shard ?pool:t.pool ~shards:(State.shard_count t)
             s.s_engine)
      in
      match all_ok (map_shards t verify_one) with
      | Ok reports ->
          Message.Verified
            {
              report = concat_reports (List.map fst reports);
              store_audit = Some (concat_reports (List.map snd reports));
            }
      | Error e -> error_resp Message.Failed e)
  | Message.Audit ->
      let directory = State.directory t in
      let audits =
        map_shards t (fun s ->
            Shard.locked s.s_audit_lock (fun () ->
                let r, cp, examined =
                  Audit.incremental_audit ?pool:t.pool ~directory
                    !(s.s_audit_cp)
                    (Engine.provstore s.s_engine)
                in
                s.s_audit_cp := cp;
                (report r, examined, Audit.objects cp)))
      in
      Message.Audited
        {
          report = concat_reports (List.map (fun (r, _, _) -> r) audits);
          examined = sum (fun (_, e, _) -> e) audits;
          objects = sum (fun (_, _, o) -> o) audits;
        }
  | Message.Root_hash ->
      List.iter check_fence (State.all_shards t);
      Message.Root { hash = published_root t }
  | Message.Shard_stats ->
      Message.Shard_stats_resp (List.map Shard.stat (Array.to_list t.shards))
  | Message.Lineage { kind; oid } ->
      with_owning_shard t oid (fun s -> lineage s kind oid)
  | Message.Annotated_query { table; where; agg } ->
      annotated_query t participant ~table ~where ~agg
  | Message.Prove { table; row; col } -> prove t ~table ~row ~col
  | Message.Audit_sample { seed; alpha_ppm } ->
      if alpha_ppm <= 0 || alpha_ppm > 1_000_000 then
        error_resp Message.Bad_request
          "sample fraction must be in (0, 1] (1..1000000 ppm)"
      else audit_sample t ~seed ~alpha_ppm

let dispatch t participant req =
  try dispatch_read t participant req
  with Fenced m -> error_resp Message.Wal_failed m
