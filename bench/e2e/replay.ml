(* The traced replay: a workload's op stream, regenerated from the same
   seed, run in-process against a copy of the same base workspace, with
   a span around every call into a layer's public functions.

   A request goes through the steps the daemon and the client take for
   it — request codec and seal, the engine calls the server's dispatch
   makes, response codec and seal, the client's recheck — but without
   the reactor, the batcher or any lock, which is what the daemon's CPU
   beyond the traced daemon work is left to account for.  The commit
   stages inside [Engine.complex_op] (hashing, signing, journaling)
   have no public entry point of their own, so they appear as child
   spans whose lengths are the engine's own commit timers. *)

open Proc
module Engine = Tep_core.Engine
module Shards = Tep_core.Shards
module Provstore = Tep_core.Provstore
module Verifier = Tep_core.Verifier
module Checksum = Tep_core.Checksum
module Prov_index = Tep_core.Prov_index
module Wal = Tep_store.Wal
module Snapshot = Tep_store.Snapshot
module Forest = Tep_tree.Forest
module Tree_view = Tep_tree.Tree_view
module Proof = Tep_tree.Proof
module Merkle = Tep_tree.Merkle
module Subtree = Tep_tree.Subtree
module Message = Tep_wire.Message
module Frame = Tep_wire.Frame
module Session = Tep_wire.Session
module Client = Tep_client.Client
module Lineage = Tep_prov.Lineage
module Polynomial = Tep_prov.Polynomial
module Span = Provbench_lib.Span

let algo = Tep_crypto.Digest_algo.SHA1

type counters = {
  mutable requests : int; (* every request through the wire steps *)
  mutable writes : int; (* ops applied *)
  mutable commits : int; (* single-shard complex operations *)
  mutable cross : int; (* cross-shard transactions *)
  mutable records : int; (* signed records emitted *)
  mutable nodes : int; (* Merkle nodes digested by commits *)
  mutable hash_s : float;
  mutable sign_cpu_s : float;
  mutable proofs : int;
  mutable proof_bytes : int;
  mutable closure_records : int;
  mutable reads : int; (* prove and lineage reads *)
  mutable read_resp_bytes : int;
  mutable verified_records : int; (* records through Verifier / verify_object *)
  mutable wal_growth : int; (* bytes the shard WALs grew by *)
  mutable sampled : (string * int) list; (* audit: (seed, objects sampled) *)
  mutable wall : float; (* the whole replay, load to last measurement *)
}

let counters () =
  {
    requests = 0;
    writes = 0;
    commits = 0;
    cross = 0;
    records = 0;
    nodes = 0;
    hash_s = 0.;
    sign_cpu_s = 0.;
    proofs = 0;
    proof_bytes = 0;
    closure_records = 0;
    reads = 0;
    read_resp_bytes = 0;
    verified_records = 0;
    wal_growth = 0;
    sampled = [];
    wall = 0.;
  }

type env = {
  sp : Span.t;
  c : counters;
  engines : Engine.t array;
  wals : Wal.t array;
  coord : Wal.t option;
  directory : Participant.Directory.t;
  me : Participant.t;
  key : Session.keyed;
}

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* ------------------------------------------------------------------ *)
(* Wire steps                                                          *)
(* ------------------------------------------------------------------ *)

let parse_frame s =
  match Frame.parse s 0 with
  | Frame.Frame { payload; _ } -> payload
  | _ -> failwith "replay: frame did not parse"

(* Client encodes, seals and frames; the daemon unframes, opens and
   decodes.  Sequence numbers do not matter to the cost. *)
let request env ~req (r : Message.request) =
  let sp = env.sp in
  env.c.requests <- env.c.requests + 1;
  let msg =
    Span.with_span sp ~daemon:false ~req "wire.codec" (fun () ->
        Message.with_cid 1 (Message.request_to_string r))
  in
  let sealed =
    Span.with_span sp ~daemon:false ~req "crypto.seal_open" (fun () ->
        Session.seal_keyed env.key ~dir:Session.To_server ~seq:0 msg)
  in
  let frame =
    Span.with_span sp ~daemon:false ~req "wire.codec" (fun () ->
        Frame.to_string ~kind:Frame.Sealed sealed)
  in
  let payload = Span.with_span sp ~req "wire.codec" (fun () -> parse_frame frame) in
  let opened =
    Span.with_span sp ~req "crypto.seal_open" (fun () ->
        ok "open" (Session.open_keyed env.key ~dir:Session.To_server ~seq:0 payload))
  in
  Span.with_span sp ~req "wire.codec" (fun () ->
      match Message.read_cid opened with
      | Some (_, off) -> ignore (Message.decode_request opened off)
      | None -> failwith "replay: request lost its cid")

(* The daemon encodes, seals and frames; the client unframes, opens and
   decodes.  Returns the frame size and the decoded response. *)
let response env ~req (r : Message.response) =
  let sp = env.sp in
  let frame =
    Span.with_span sp ~req "wire.codec" (fun () -> Message.with_cid 1 (Message.response_to_string r))
    |> fun msg ->
    Span.with_span sp ~req "crypto.seal_open" (fun () ->
        Session.seal_keyed env.key ~dir:Session.To_client ~seq:0 msg)
    |> fun sealed -> Span.with_span sp ~req "wire.codec" (fun () -> Frame.to_string ~kind:Frame.Sealed sealed)
  in
  let payload = Span.with_span sp ~daemon:false ~req "wire.codec" (fun () -> parse_frame frame) in
  let opened =
    Span.with_span sp ~daemon:false ~req "crypto.seal_open" (fun () ->
        ok "open" (Session.open_keyed env.key ~dir:Session.To_client ~seq:0 payload))
  in
  let decoded =
    Span.with_span sp ~daemon:false ~req "wire.codec" (fun () ->
        match Message.read_cid opened with
        | Some (_, off) -> fst (Message.decode_response opened off)
        | None -> failwith "replay: response lost its cid")
  in
  (String.length frame, decoded)

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)
(* ------------------------------------------------------------------ *)

let apply env ~req e (op : Message.op) =
  Span.with_span env.sp ~req "core.apply" (fun () ->
      let me = env.me in
      match op with
      | Message.Op_insert { table; cells } ->
          ignore (ok "insert" (Engine.insert_row e me ~table cells))
      | Message.Op_update { table; row; col; value } ->
          ok "update" (Engine.update_cell e me ~table ~row ~col value)
      | Message.Op_delete { table; row } -> ok "delete" (Engine.delete_row e me ~table row)
      | Message.Op_aggregate _ -> failwith "replay: aggregates are not generated");
  env.c.writes <- env.c.writes + 1

let tally env (m : Engine.metrics) =
  env.c.records <- env.c.records + m.Engine.records_emitted;
  env.c.nodes <- env.c.nodes + m.Engine.nodes_hashed;
  env.c.hash_s <- env.c.hash_s +. m.Engine.hash_s;
  env.c.sign_cpu_s <- env.c.sign_cpu_s +. m.Engine.sign_cpu_s

(* The commit phase of one complex operation, [start, stop], split by
   the engine's commit timers: signing and journaling exactly, the
   hashing that is left after them (hash timers also count the
   pre-state hashes taken inside the body). *)
let commit_spans env ~req ~start ~stop (m : Engine.metrics) =
  let sp = env.sp in
  let parent = Span.record sp ~req ~parent:(Span.current sp) "core.commit" start stop in
  let lay a name dur =
    let b = Float.min stop (a +. dur) in
    ignore (Span.record sp ~req ~parent name a b);
    b
  in
  let a = lay start "crypto.sign" m.Engine.sign_s in
  let a = lay a "store.append" m.Engine.store_s in
  ignore (lay a "tree.hash" m.Engine.hash_s)

let commit_local env ~req k ops =
  let e = env.engines.(k) in
  Span.with_span env.sp ~req "core.complex_op" (fun () ->
      let body_end = ref 0. in
      let _, m =
        ok "commit"
          (Engine.complex_op e env.me (fun () ->
               List.iter (apply env ~req e) ops;
               body_end := Span.now ();
               Ok ()))
      in
      commit_spans env ~req ~start:!body_end ~stop:(Span.now ()) m;
      tally env m);
  env.c.commits <- env.c.commits + 1

let commit_cross env ~req coord groups =
  Span.with_span env.sp ~req "core.cross_commit" (fun () ->
      let parts =
        List.map
          (fun (k, ops) ->
            let e = env.engines.(k) in
            {
              Shards.p_shard = k;
              p_engine = e;
              p_by = env.me;
              p_body =
                (fun () ->
                  List.iter (apply env ~req e) ops;
                  Ok ());
            })
          groups
      in
      let committed, _warnings =
        ok "cross commit" (Shards.commit_cross ~coord ~txid:(Printf.sprintf "replay-%d" req) parts)
      in
      List.iter (fun (_, m) -> tally env m) committed);
  env.c.cross <- env.c.cross + 1

(* One group commit: the batch's submits arrive, commit together (as
   one 2PC transaction when they span shards), and are answered. *)
let write_batch env ~req ops =
  List.iteri
    (fun i op -> request env ~req (Message.Submit_idem { rid = Printf.sprintf "%d-%d" req i; op }))
    ops;
  let n = Array.length env.engines in
  let shard_of (op : Message.op) =
    match op with
    | Message.Op_insert { table; _ } | Message.Op_update { table; _ } | Message.Op_delete { table; _ } ->
        Shards.shard_of_table ~shards:n table
    | Message.Op_aggregate _ -> 0
  in
  let groups =
    List.filter_map
      (fun k ->
        match List.filter (fun op -> shard_of op = k) ops with [] -> None | g -> Some (k, g))
      (List.init n Fun.id)
  in
  (match (groups, env.coord) with
  | [ (k, g) ], _ -> commit_local env ~req k g
  | _, Some coord -> commit_cross env ~req coord groups
  | _, None -> failwith "replay: cross-shard batch without a coordinator log");
  List.iter
    (fun _ -> ignore (response env ~req (Message.Submitted { row = None; oid = None; records = 0 })))
    ops

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

let published_root roots =
  match roots with [ r ] -> r | rs -> Merkle.root_of_roots algo rs

(* Prove one cell and recheck it as a client would, then re-run the
   recheck's two steps (the membership proof, the record chain) and the
   per-record signature checks on their own so each gets its own
   time. *)
let prove_read env ~req ~table ~row ~col =
  request env ~req (Message.Prove { table; row; col = Some col });
  let sp = env.sp in
  let n = Array.length env.engines in
  let k = Shards.shard_of_table ~shards:n table in
  let e = env.engines.(k) in
  let roots =
    Array.to_list
      (Array.map (fun e -> Span.with_span sp ~req "tree.root_hash" (fun () -> Engine.root_hash e)) env.engines)
  in
  let oid = Option.get (Tree_view.cell_oid (Engine.mapping e) table row col) in
  let proof = Span.with_span sp ~req "tree.prove" (fun () -> ok "prove" (Engine.prove e oid)) in
  let bytes = Span.with_span sp ~req "wire.codec" (fun () -> Proof.to_string proof) in
  let records =
    Span.with_span sp ~req "core.closure" (fun () -> Provstore.provenance_object (Engine.provstore e) oid)
  in
  env.c.proofs <- env.c.proofs + 1;
  env.c.proof_bytes <- env.c.proof_bytes + String.length bytes;
  env.c.closure_records <- env.c.closure_records + List.length records;
  let size, resp =
    response env ~req (Message.Proof_resp { shard = k; shard_roots = roots; items = [ (bytes, records) ] })
  in
  env.c.reads <- env.c.reads + 1;
  env.c.read_resp_bytes <- env.c.read_resp_bytes + size;
  let proofs =
    Span.with_span sp ~daemon:false ~req "wire.codec" (fun () ->
        match resp with
        | Message.Proof_resp { shard; shard_roots; items } ->
            {
              Client.pf_shard = shard;
              pf_shard_roots = shard_roots;
              pf_items =
                List.map
                  (fun (b, rs) -> { Client.pf_proof = ok "decode proof" (Proof.of_encoded b); pf_encoded = b; pf_records = rs })
                  items;
            }
        | _ -> failwith "replay: unexpected prove response")
  in
  let trusted = published_root roots in
  let report =
    Span.with_span sp ~daemon:false ~req "client.recheck" (fun () ->
        ok "recheck" (Client.check_proofs ~algo ~directory:env.directory ~trusted_root:trusted proofs))
  in
  if report.Verifier.violations <> [] then failwith "replay: recheck found violations";
  Span.with_span sp ~daemon:false ~req "tree.proof_verify" (fun () ->
      ok "proof" (Proof.verify algo ~root_hash:(List.nth roots k) proof));
  let r =
    Span.with_span sp ~daemon:false ~req "core.verify" (fun () ->
        Verifier.verify ~algo ~directory:env.directory
          ~data:(Subtree.atom proof.Proof.leaf_oid proof.Proof.leaf_value)
          records)
  in
  env.c.verified_records <- env.c.verified_records + r.Verifier.records_checked;
  List.iter
    (fun rc ->
      Span.with_span sp ~daemon:false ~req "crypto.verify" (fun () ->
          ok "signature" (Checksum.verify_record env.directory rc)))
    records

let lineage_read env ~req ~row =
  let e = env.engines.(0) in
  let oid = Option.get (Tree_view.row_oid (Engine.mapping e) "t" row) in
  request env ~req (Message.Lineage { kind = Message.L_why; oid });
  let resp =
    Span.with_span env.sp ~req "prov.lineage" (fun () ->
        let idx = Prov_index.of_store (Engine.provstore e) in
        let p = Lineage.why idx oid in
        Message.Lineage_resp
          {
            poly = Polynomial.encoded p;
            depth = Lineage.depth idx oid;
            oids = List.map Tep_tree.Oid.of_int (Polynomial.vars p);
          })
  in
  let size, _ = response env ~req resp in
  env.c.reads <- env.c.reads + 1;
  env.c.read_resp_bytes <- env.c.read_resp_bytes + size

(* One sampled-audit sweep, as the daemon runs it: one DRBG drawn in
   shard-then-oid order over the live objects, full verification of
   each sampled object.  Every 8th sampled object's records also get
   their signatures checked one by one, for a per-signature time.  The
   caller checks that each seed samples as many objects here as in the
   daemon, so this copy of the daemon's handler cannot drift from it
   unnoticed. *)
let audit_sweep env ~req ~seed ~alpha_ppm =
  request env ~req (Message.Audit_sample { seed; alpha_ppm });
  let sp = env.sp in
  let drbg = Tep_crypto.Drbg.create ~seed in
  let sampled = ref 0 and checked = ref 0 in
  Array.iter
    (fun e ->
      let sample =
        Span.with_span sp ~req "core.audit_sample" (fun () ->
            List.filter (Forest.mem (Engine.forest e)) (Provstore.objects (Engine.provstore e))
            |> List.filter (fun _ -> Tep_crypto.Drbg.uniform_int drbg 1_000_000 < alpha_ppm))
      in
      List.iter
        (fun oid ->
          let r = Span.with_span sp ~req "core.verify" (fun () -> ok "verify" (Engine.verify_object e oid)) in
          if r.Verifier.violations <> [] then failwith "replay: audit found violations";
          checked := !checked + r.Verifier.records_checked;
          incr sampled;
          if !sampled mod 8 = 0 then
            List.iter
              (fun rc ->
                Span.with_span sp ~daemon:false ~req "crypto.verify" (fun () ->
                    ok "signature" (Checksum.verify_record env.directory rc)))
              (Span.with_span sp ~daemon:false ~req "core.closure" (fun () ->
                   Provstore.provenance_object (Engine.provstore e) oid)))
        sample)
    env.engines;
  env.c.verified_records <- env.c.verified_records + !checked;
  env.c.sampled <- (seed, !sampled) :: env.c.sampled;
  let report = { Message.rp_records = !checked; rp_objects = !sampled; rp_signatures = !checked; rp_violations = [] } in
  ignore (response env ~req (Message.Audit_sample_resp { report; sampled = !sampled; population = 0 }))

(* ------------------------------------------------------------------ *)
(* Loading, the WAL measurements, and the replay itself                *)
(* ------------------------------------------------------------------ *)

(* Load every shard of [ws] as the daemon does at start: the snapshot
   files, then the engine over them (whose warm-up is a full-tree
   hash).  Both count as recovery work, not as any request's. *)
let load sp ws =
  let directory, me = identity ws in
  let shards =
    List.map
      (fun sdir ->
        let db, prov, forest, view, wal =
          Span.with_span sp ~daemon:false ~req:(-1) "store.snapshot_load" (fun () ->
              let db = ok "snapshot" (Snapshot.load (sdir // "backend.snap")) in
              let prov = ok "provstore" (Provstore.of_string (read_file (sdir // "prov.dat"))) in
              let forest, _ = Forest.decode (read_file (sdir // "forest.dat")) 0 in
              let view, _ = Tree_view.decode (read_file (sdir // "view.dat")) 0 in
              (db, prov, forest, view, Wal.open_file (sdir // "wal.log")))
        in
        let e =
          Span.with_span sp ~daemon:false ~req:(-1) "tree.warm_hash" (fun () ->
              Engine.of_parts ~wal ~pool:(Tep_parallel.Pool.default ()) ~provstore:prov ~directory ~forest
                ~view db)
        in
        (e, wal))
      (shard_dirs ws)
  in
  let coord =
    if List.length shards > 1 then Some (Wal.open_file (ws // "coord.wal")) else None
  in
  (directory, me, Array.of_list (List.map fst shards), Array.of_list (List.map snd shards), coord)

(* Re-append the WAL entries the replay journaled to a fresh log, with
   a flush after each commit marker, as the engine does at commit; then
   replay them into the base snapshot as recovery would. *)
let wal_measurements env ~base ~ws ~scratch =
  let sp = env.sp in
  List.iter2
    (fun bdir sdir ->
      let path = sdir // "wal.log" in
      env.c.wal_growth <- env.c.wal_growth + (Unix.stat path).Unix.st_size - (Unix.stat (bdir // "wal.log")).Unix.st_size;
      (try Sys.remove scratch with Sys_error _ -> ());
      let fresh = Wal.open_file scratch in
      List.iter
        (fun entry ->
          Span.with_span sp ~daemon:false ~req:(-1) "store.wal_append" (fun () ->
              ok "append" (Wal.append fresh entry));
          match entry with
          | Wal.Commit _ | Wal.Prepare _ ->
              Span.with_span sp ~daemon:false ~req:(-1) "store.wal_flush" (fun () ->
                  ok "flush" (Wal.flush fresh))
          | _ -> ())
        (Wal.read_file path);
      Wal.close fresh;
      Sys.remove scratch;
      let db =
        Span.with_span sp ~daemon:false ~req:(-1) "store.replay_snapshot" (fun () ->
            ok "snapshot" (Snapshot.load (bdir // "backend.snap")))
      in
      ignore
        (Span.with_span sp ~daemon:false ~req:(-1) "store.replay" (fun () ->
             ok "replay" (Wal.load_and_replay path db))))
    (shard_dirs base) (shard_dirs ws)

type plan = {
  streams : Gen.streams;
  share : float; (* the prefix of each stream to replay *)
  batch : int; (* ops per group commit, as the daemon batched them *)
  reads_per_write : float; (* the mixed reader's pace beside the writer *)
  alpha_ppm : int;
}

let prefix share a = Array.sub a 0 (max 1 (int_of_float (Float.round (share *. float_of_int (Array.length a)))))

(* Interleave per-connection streams in arrival order. *)
let interleave streams =
  let n = Array.fold_left (fun m s -> max m (Array.length s)) 0 streams in
  List.concat
    (List.init n (fun i ->
         List.filter_map (fun s -> if i < Array.length s then Some s.(i) else None) (Array.to_list streams)))

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take n [] l in
      c :: chunks n rest

(* Replay [plan] against a fresh copy of [base] at [ws]. *)
let run ~enabled ~base ~ws plan =
  rm_rf ws;
  copy_tree base ws;
  let sp = Span.create ~enabled in
  let c = counters () in
  let t0 = Span.now () in
  let directory, me, engines, wals, coord = load sp ws in
  let env =
    { sp; c; engines; wals; coord; directory; me; key = Session.keyed ~key:(String.make 32 'k') }
  in
  let req = ref 0 in
  let next () =
    incr req;
    !req
  in
  (match plan.streams with
  | Gen.Ingest conns ->
      List.iter
        (fun ops -> write_batch env ~req:(next ()) ops)
        (chunks plan.batch (interleave (Array.map (prefix plan.share) conns)))
  | Gen.Verify_read conns ->
      List.iter
        (fun r ->
          match r with
          | Gen.Prove { table; row; col } -> prove_read env ~req:(next ()) ~table ~row ~col
          | Gen.Lineage row -> lineage_read env ~req:(next ()) ~row)
        (interleave (Array.map (prefix plan.share) conns))
  | Gen.Mixed { writes; hot; picks } ->
      let owed = ref 0. in
      List.iter
        (fun ops ->
          write_batch env ~req:(next ()) ops;
          owed := !owed +. (plan.reads_per_write *. float_of_int (List.length ops));
          while !owed >= 1. do
            owed := !owed -. 1.;
            let table, row, col = hot.(Random.State.int picks (Array.length hot)) in
            prove_read env ~req:(next ()) ~table ~row ~col
          done)
        (chunks plan.batch (Array.to_list (prefix plan.share writes)))
  | Gen.Audit seeds ->
      Array.iter
        (fun seed -> audit_sweep env ~req:(next ()) ~seed ~alpha_ppm:plan.alpha_ppm)
        (prefix plan.share seeds));
  Array.iter Wal.close wals;
  Option.iter Wal.close coord;
  wal_measurements env ~base ~ws ~scratch:(ws ^ ".wal-copy");
  c.wall <- Span.now () -. t0;
  rm_rf ws;
  (c, Span.spans sp)
