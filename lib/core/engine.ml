open Tep_store
open Tep_tree

exception Wal_failure of string
(* A WAL append or flush the engine could not make durable.  Typed so
   the service layer can classify it (count it, answer with a
   wal-failed wire error) instead of pattern-matching on a generic
   [Failure] message escaping a batcher thread. *)

type mode = Basic | Economical

type metrics = {
  hash_s : float;
  sign_s : float;
  sign_cpu_s : float;
  store_s : float;
  records_emitted : int;
  nodes_hashed : int;
  checksum_bytes : int;
}

let zero_metrics =
  {
    hash_s = 0.;
    sign_s = 0.;
    sign_cpu_s = 0.;
    store_s = 0.;
    records_emitted = 0;
    nodes_hashed = 0;
    checksum_bytes = 0;
  }

let add_metrics a b =
  {
    hash_s = a.hash_s +. b.hash_s;
    sign_s = a.sign_s +. b.sign_s;
    sign_cpu_s = a.sign_cpu_s +. b.sign_cpu_s;
    store_s = a.store_s +. b.store_s;
    records_emitted = a.records_emitted + b.records_emitted;
    nodes_hashed = a.nodes_hashed + b.nodes_hashed;
    checksum_bytes = a.checksum_bytes + b.checksum_bytes;
  }

(* Pre-state of an object captured before its first mutation in a
   complex operation. *)
type captured = {
  before_hash : string option; (* None: object created in this batch *)
  prev_record : Record.t option;
  mutable direct : bool; (* directly modified (vs ancestor-inherited) *)
  (* Filled at aggregate time for aggregate outputs: *)
  mutable agg_inputs : (Oid.t * string * string) list option;
      (* (input oid, input hash, prev checksum) *)
}

type batch = {
  participant : Participant.t;
  touched : captured Oid.Tbl.t;
  mutable b_hash_s : float;
}

type t = {
  db : Database.t;
  forest : Forest.t;
  view : Tree_view.mapping;
  cache : Merkle.cache;
  prov : Provstore.t;
  dir : Participant.Directory.t;
  wal : Wal.t option;
  pool : Tep_parallel.Pool.t option;
  mutable mode : mode;
  mutable batch : batch option;
  mutable next_marker : string option;
      (* Some txid: the next commit is phase 1 of a cross-shard 2PC —
         journal Wal.Prepare (txid, root) instead of Wal.Commit *)
  mutable last : metrics;
  mutable total : metrics;
}

let now () = Unix.gettimeofday ()

let backend t = t.db
let forest t = t.forest
let provstore t = t.prov
let directory t = t.dir
let mapping t = t.view
let root_oid t = Tree_view.root t.view
let algo t = Merkle.algo t.cache
let mode t = t.mode
let set_mode t m = t.mode <- m
let last_metrics t = t.last
let total_metrics t = t.total

let of_parts ?(algo = Tep_crypto.Digest_algo.SHA1) ?(mode = Economical) ?wal
    ?pool ?provstore ~directory ~forest ~view db =
  let cache = Merkle.create_cache algo forest in
  (* Warm the cache so economical commits start incremental.  This is
     a cold full-tree pass — the pool (when given) hashes sibling
     subtrees on all domains. *)
  (match Merkle.hash ?pool cache (Tree_view.root view) with
  | Ok _ -> ()
  | Error e -> failwith ("Engine.create: " ^ e));
  {
    db;
    forest;
    view;
    cache;
    prov =
      (match provstore with
      | Some p -> p
      | None -> Provstore.create ~algo ());
    dir = directory;
    wal;
    pool;
    mode;
    batch = None;
    next_marker = None;
    last = zero_metrics;
    total = zero_metrics;
  }

let create ?algo ?mode ?wal ?pool ?provstore ~directory db =
  let forest = Forest.create () in
  let view = Tree_view.build forest db in
  of_parts ?algo ?mode ?wal ?pool ?provstore ~directory ~forest ~view db

let root_hash t =
  match Merkle.hash ?pool:t.pool t.cache (root_oid t) with
  | Ok h -> h
  | Error e -> failwith ("Engine.root_hash: " ^ e)

(* WAL appends are retried internally on transient errors; a
   persistent failure means the mutation's durability cannot be
   guaranteed, so it must not be silently ignored.  Simulated crashes
   (Tep_fault.Fault.Crash) propagate untouched. *)
let wal_log t entry =
  match t.wal with
  | None -> ()
  | Some w -> (
      match Wal.append w entry with
      | Ok () -> ()
      | Error e -> raise (Wal_failure e))

let wal_present t = Option.is_some t.wal

(* ------------------------------------------------------------------ *)
(* Batch capture                                                       *)
(* ------------------------------------------------------------------ *)

let require_batch t op =
  match t.batch with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Engine.%s: no active batch" op)

(* Record the pre-state of [oid] (which must currently exist) and of
   all its ancestors, if not captured yet in this batch. *)
let capture_existing t b ~direct oid =
  let capture_one ~direct oid =
    match Oid.Tbl.find_opt b.touched oid with
    | Some c -> if direct then c.direct <- true
    | None ->
        let t0 = now () in
        let before_hash =
          match Merkle.hash ?pool:t.pool t.cache oid with
          | Ok h -> Some h
          | Error e -> failwith ("Engine.capture: " ^ e)
        in
        b.b_hash_s <- b.b_hash_s +. (now () -. t0);
        let prev_record = Provstore.latest t.prov oid in
        Oid.Tbl.replace b.touched oid
          { before_hash; prev_record; direct; agg_inputs = None }
  in
  capture_one ~direct oid;
  List.iter (capture_one ~direct:false) (Forest.ancestors t.forest oid)

(* Record a brand-new object (no pre-state).  The parent path must
   have been captured with [capture_existing] BEFORE the insertion
   mutated the tree. *)
let mark_created b oid =
  Oid.Tbl.replace b.touched oid
    { before_hash = None; prev_record = None; direct = true; agg_inputs = None }

(* Journal a mutation, then apply its tree side through the function
   recovery replays it with, capturing pre-states on the way.  Returns
   the oids it created, in order.  Callers validate the entry against
   the backend first, so a tree-side failure is a broken invariant. *)
let journal t b entry =
  wal_log t entry;
  let created = ref [] in
  match
    Tree_view.mirror ~touch:(capture_existing t b)
      ~created:(fun oid ->
        mark_created b oid;
        created := oid :: !created)
      t.forest t.view entry
  with
  | Ok () -> List.rev !created
  | Error e -> failwith ("Engine: " ^ e)

(* ------------------------------------------------------------------ *)
(* Commit: emit one record per surviving touched object                *)
(* ------------------------------------------------------------------ *)

let object_depth t oid = List.length (Forest.ancestors t.forest oid)

(* Failpoint inside the signing stage: lets tests perturb signer
   completion order (Delay) or kill a signer (Crash) while records are
   fanned out across pool domains. *)
let sign_site = "engine.commit.sign"
let () = Tep_fault.Fault.register sign_site

(* Adaptive gate for the signing fan-out (ROADMAP 2b).  Below this
   many records the per-task handoff and domain wakeup exceed what the
   parallel signatures recover, so the stage runs on the caller; and a
   1-core host never fans out at all — there, pool dispatch is pure
   overhead at any batch size (the recorded pooled write path was ~30x
   slower than serial before this gate). *)
let sign_serial_below = 4
let host_cores = lazy (Domain.recommended_domain_count ())

(* A record fully prepared by the sequential hash/payload stage of
   [commit], awaiting only its signature. *)
type staged = {
  st_oid : Oid.t;
  st_kind : Record.kind;
  st_seq : int;
  st_inherited : bool;
  st_input_oids : Oid.t list;
  st_input_hashes : string list;
  st_output_hash : string;
  st_output_value : Value.t option;
  st_prev_checksums : string list;
  st_payload : string;
}

(* Commit is a deterministic three-stage pipeline:

   1. sequential deepest-first Merkle hashing + payload construction
      (warms the Economical cache bottom-up and fixes the canonical
      record order);
   2. signing of every staged payload — fanned out over the engine's
      pool when one is attached, sequential otherwise.  Payloads are
      mutually independent: each record's [prev_checksums] come from
      the pre-batch store snapshot (or, for aggregates, from Import
      records already emitted during the body), never from a sibling
      staged in the same commit, and [Pool.map_chunked] writes result
      [i] into slot [i], so the output is byte-identical either way;
   3. sequential append + WAL journaling in the stage-1 order, so
      Provstore arrival order and WAL bytes match the serial engine.

   Sequence numbers need one commit-local table: the old interleaved
   loop appended records as it produced them, so an aggregate staged
   after one of its inputs observed the input's in-commit record via
   [Provstore.latest].  [assigned] replays exactly that view without
   touching the store before the signing stage. *)
let commit t (b : batch) : metrics =
  Merkle.reset_stats t.cache;
  let hash_s = ref b.b_hash_s in
  (* Deepest objects first: their hashes warm the cache for ancestors,
     and their records read naturally (actual before inherited).
     Depths are computed once per survivor — [Forest.ancestors] walks
     the parent chain, so calling it inside the comparator would make
     the sort O(n·d log n). *)
  let survivors =
    Oid.Tbl.fold
      (fun oid c acc ->
        if Forest.mem t.forest oid then (object_depth t oid, oid, c) :: acc
        else acc)
      b.touched []
    |> List.sort (fun (da, a, _) (db, bo, _) ->
           if da <> db then Stdlib.compare db da else Oid.compare a bo)
  in
  (* Basic (Figure 7): re-hash every tree the batch touched from
     scratch — a cold pass, so the pool (when given) spreads it; the
     per-object hashes below are then cache hits. *)
  if t.mode = Basic then begin
    let t0 = now () in
    Merkle.clear t.cache;
    List.sort_uniq Oid.compare
      (List.map (fun (_, oid, _) -> Forest.root_of t.forest oid) survivors)
    |> List.iter (fun r ->
           match Merkle.hash_basic ?pool:t.pool t.cache r with
           | Ok _ -> ()
           | Error e -> failwith ("Engine.commit: " ^ e));
    hash_s := !hash_s +. (now () -. t0)
  end;
  (* Stage 1: hash + stage payloads, canonical order. *)
  let assigned = Oid.Tbl.create 16 in
  let staged =
    List.map
      (fun (_, oid, c) ->
        let t0 = now () in
        let output_hash =
          match Merkle.hash ?pool:t.pool t.cache oid with
          | Ok h -> h
          | Error e -> failwith ("Engine.commit: " ^ e)
        in
        hash_s := !hash_s +. (now () -. t0);
        let kind, seq_id, input_oids, input_hashes, prev_checksums =
          match c.agg_inputs with
          | Some inputs ->
              let oids = List.map (fun (o, _, _) -> o) inputs in
              let hashes = List.map (fun (_, h, _) -> h) inputs in
              let prevs = List.map (fun (_, _, p) -> p) inputs in
              let max_seq =
                List.fold_left
                  (fun acc (o, _, _) ->
                    match Oid.Tbl.find_opt assigned o with
                    | Some s -> max acc s
                    | None -> (
                        match Provstore.latest t.prov o with
                        | Some r -> max acc r.Record.seq_id
                        | None -> acc))
                  (-1) inputs
              in
              (Record.Aggregate, max_seq + 1, oids, hashes, prevs)
          | None -> (
              match (c.before_hash, c.prev_record) with
              | None, _ -> (Record.Insert, 0, [], [], [])
              | Some h, Some prev ->
                  ( Record.Update,
                    prev.Record.seq_id + 1,
                    [ oid ],
                    [ h ],
                    [ prev.Record.checksum ] )
              | Some h, None -> (Record.Import, 0, [ oid ], [ h ], []))
        in
        Oid.Tbl.replace assigned oid seq_id;
        let payload =
          Checksum.payload ~kind ~seq_id ~output_oid:oid ~input_hashes
            ~output_hash ~prev_checksums
        in
        let output_value =
          if Forest.is_leaf t.forest oid then
            match Forest.value t.forest oid with
            | Ok v -> Some v
            | Error _ -> None
          else None
        in
        {
          st_oid = oid;
          st_kind = kind;
          st_seq = seq_id;
          st_inherited = not c.direct;
          st_input_oids = input_oids;
          st_input_hashes = input_hashes;
          st_output_hash = output_hash;
          st_output_value = output_value;
          st_prev_checksums = prev_checksums;
          st_payload = payload;
        })
      survivors
    |> Array.of_list
  in
  (* Stage 2: sign.  [cpu] slots are disjoint per index, so parallel
     writes are safe; a chunk size of 1 maximises overlap (one RSA
     signature dwarfs the per-task queue cost). *)
  let n = Array.length staged in
  let cpu = Array.make (max n 1) 0. in
  let sign_one i =
    Tep_fault.Fault.hit sign_site;
    let t0 = now () in
    let c = Checksum.sign b.participant (Array.unsafe_get staged i).st_payload in
    cpu.(i) <- now () -. t0;
    c
  in
  let t_sign = now () in
  let checksums =
    match t.pool with
    | Some pool
      when Tep_parallel.Pool.size pool > 1 && n > 1
           && Lazy.force host_cores > 1 ->
        Tep_parallel.Pool.map_chunked ~serial_below:sign_serial_below ~chunk:1
          pool sign_one (Array.init n Fun.id)
    | _ -> Array.init n sign_one
  in
  let sign_s = now () -. t_sign in
  let sign_cpu_s = Array.fold_left ( +. ) 0. cpu in
  (* Stage 3: append + journal, stage-1 order. *)
  let store_s = ref 0. in
  Array.iteri
    (fun i st ->
      let record =
        {
          Record.seq_id = st.st_seq;
          participant = Participant.name b.participant;
          kind = st.st_kind;
          inherited = st.st_inherited;
          input_oids = st.st_input_oids;
          input_hashes = st.st_input_hashes;
          output_oid = st.st_oid;
          output_hash = st.st_output_hash;
          output_value = st.st_output_value;
          prev_checksums = st.st_prev_checksums;
          checksum = checksums.(i);
        }
      in
      let t0 = now () in
      Provstore.append t.prov record;
      (* Journal the record itself so post-checkpoint provenance
         survives a crash (Recovery re-appends it on replay). *)
      if wal_present t then wal_log t (Wal.Blob (Record.encoded record));
      store_s := !store_s +. (now () -. t0))
    staged;
  (* Commit marker: everything journaled before it is now one atomic
     recovery unit; frames after the last marker are rolled back. *)
  if wal_present t then begin
    let root_hash =
      match Merkle.hash ?pool:t.pool t.cache (Tree_view.root t.view) with
      | Ok h -> h
      | Error e -> failwith ("Engine.commit: " ^ e)
    in
    (match t.next_marker with
    | Some txid ->
        t.next_marker <- None;
        wal_log t (Wal.Prepare (txid, root_hash))
    | None -> wal_log t (Wal.Commit root_hash));
    match t.wal with
    | Some w -> (
        match Wal.flush w with
        | Ok () -> ()
        | Error e -> raise (Wal_failure e))
    | None -> ()
  end;
  {
    hash_s = !hash_s;
    sign_s;
    sign_cpu_s;
    store_s = !store_s;
    records_emitted = n;
    nodes_hashed = (Merkle.stats t.cache).Merkle.nodes_hashed;
    checksum_bytes = n * Provstore.paper_row_bytes;
  }

let complex_op t participant body =
  match t.batch with
  | Some _ -> Error "Engine.complex_op: already inside a complex operation"
  | None ->
      let b =
        { participant; touched = Oid.Tbl.create 64; b_hash_s = 0. }
      in
      t.batch <- Some b;
      let result =
        match body () with
        | exception e ->
            t.batch <- None;
            raise e
        | r -> r
      in
      (match result with
      | Error e ->
          t.batch <- None;
          Error e
      | Ok v ->
          let m =
            match commit t b with
            | m -> m
            | exception e ->
                (* A crash or WAL failure mid-commit must not leave the
                   engine wedged inside a phantom batch. *)
                t.batch <- None;
                raise e
          in
          t.batch <- None;
          t.last <- m;
          t.total <- add_metrics t.total m;
          Ok (v, m))

(* Phase 1 of a cross-shard two-phase commit: exactly [complex_op],
   except the commit marker journaled is [Wal.Prepare (txid, root)]
   instead of [Wal.Commit root].  The prepared work is durable but not
   yet a recovery unit — it becomes one when the coordinator's
   [Wal.Decide] for [txid] lands (see Shards). *)
let complex_op_prepare t participant ~txid body =
  t.next_marker <- Some txid;
  match complex_op t participant body with
  | r ->
      t.next_marker <- None;
      r
  | exception e ->
      t.next_marker <- None;
      raise e

(* Phase 2: upgrade the shard's last prepared state to a plain commit
   marker, so later recoveries need not consult the coordinator log
   for this transaction.  The root hash is re-read from the (warm)
   cache — nothing has mutated since the prepare. *)
let write_commit_marker t =
  if wal_present t then begin
    let root_hash =
      match Merkle.hash ?pool:t.pool t.cache (Tree_view.root t.view) with
      | Ok h -> h
      | Error e -> failwith ("Engine.write_commit_marker: " ^ e)
    in
    wal_log t (Wal.Commit root_hash);
    match t.wal with
    | Some w -> (
        match Wal.flush w with
        | Ok () -> ()
        | Error e -> raise (Wal_failure e))
    | None -> ()
  end

(* Run [f] inside the current batch, or as a singleton complex op. *)
let in_batch t participant f =
  match t.batch with
  | Some b ->
      if Participant.name b.participant <> Participant.name participant then
        Error "Engine: complex operation participant mismatch"
      else f b
  | None -> (
      match complex_op t participant (fun () -> f (require_batch t "in_batch")) with
      | Ok (v, _) -> Ok v
      | Error e -> Error e)

(* ------------------------------------------------------------------ *)
(* Primitive object operations                                         *)
(* ------------------------------------------------------------------ *)

let insert_object t p ?parent value =
  in_batch t p (fun b ->
      match parent with
      | Some par when not (Forest.mem t.forest par) ->
          Error (Printf.sprintf "parent %s not found" (Oid.to_string par))
      | _ -> (
          (* Capture the ancestor path before the tree changes. *)
          Option.iter (capture_existing t b ~direct:false) parent;
          match Forest.insert ?parent t.forest value with
          | Error e -> Error e
          | Ok oid ->
              mark_created b oid;
              Ok oid))

let delete_object t p oid =
  in_batch t p (fun b ->
      if not (Forest.mem t.forest oid) then
        Error (Printf.sprintf "no object %s" (Oid.to_string oid))
      else begin
        capture_existing t b ~direct:true oid;
        match Forest.delete t.forest oid with
        | Error e -> Error e
        | Ok _ ->
            Tree_view.unregister t.view oid;
            Ok ()
      end)

let aggregate_objects t p ?(value = Value.Text "aggregate") inputs =
  in_batch t p (fun b ->
      if inputs = [] then Error "aggregate: no inputs"
      else begin
        (* Capture input hashes and latest checksums; make sure every
           input has a citable record (emitting Imports if needed). *)
        let rec input_info acc = function
          | [] -> Ok (List.rev acc)
          | oid :: rest -> (
              if not (Forest.mem t.forest oid) then
                Error (Printf.sprintf "no object %s" (Oid.to_string oid))
              else
                let t0 = now () in
                let h =
                  match Merkle.hash ?pool:t.pool t.cache oid with
                  | Ok h -> h
                  | Error e -> failwith e
                in
                b.b_hash_s <- b.b_hash_s +. (now () -. t0);
                match Provstore.latest t.prov oid with
                | Some r -> input_info ((oid, h, r.Record.checksum) :: acc) rest
                | None ->
                    (* Emit an Import record for the untracked input. *)
                    let payload =
                      Checksum.payload ~kind:Record.Import ~seq_id:0
                        ~output_oid:oid ~input_hashes:[ h ] ~output_hash:h
                        ~prev_checksums:[]
                    in
                    let checksum = Checksum.sign b.participant payload in
                    let record =
                      {
                        Record.seq_id = 0;
                        participant = Participant.name b.participant;
                        kind = Record.Import;
                        inherited = false;
                        input_oids = [ oid ];
                        input_hashes = [ h ];
                        output_oid = oid;
                        output_hash = h;
                        output_value = None;
                        prev_checksums = [];
                        checksum;
                      }
                    in
                    Provstore.append t.prov record;
                    if wal_present t then
                      wal_log t (Wal.Blob (Record.encoded record));
                    input_info ((oid, h, checksum) :: acc) rest)
        in
        match input_info [] inputs with
        | Error e -> Error e
        | Ok infos -> (
            match
              journal t b (Wal.Aggregate (value, List.map Oid.to_int inputs))
            with
            | [ boid ] ->
                (Oid.Tbl.find b.touched boid).agg_inputs <- Some infos;
                Ok boid
            | _ -> assert false)
      end)

(* ------------------------------------------------------------------ *)
(* Relational operations                                               *)
(* ------------------------------------------------------------------ *)

let create_table t p ~name schema =
  in_batch t p (fun b ->
      match Database.create_table t.db ~name schema with
      | Error e -> Error e
      | Ok _ ->
          ignore (journal t b (Wal.Create_table (name, schema)));
          Ok ())

let insert_row t p ~table cells =
  in_batch t p (fun b ->
      match Database.get_table t.db table with
      | None -> Error (Printf.sprintf "no table %s" table)
      | Some tbl -> (
          match Tree_view.table_oid t.view table with
          | None -> Error (Printf.sprintf "table %s has no tree node" table)
          | Some _ -> (
              match Table.insert tbl cells with
              | Error e -> Error e
              | Ok row_id ->
                  ignore (journal t b (Wal.Insert_row (table, row_id, cells)));
                  Ok row_id)))

let delete_row t p ~table row =
  in_batch t p (fun b ->
      match Database.get_table t.db table with
      | None -> Error (Printf.sprintf "no table %s" table)
      | Some tbl -> (
          if Tree_view.row_oid t.view table row = None
             || not (Table.delete tbl row)
          then Error (Printf.sprintf "no row %d in %s" row table)
          else begin
            ignore (journal t b (Wal.Delete_row (table, row)));
            Ok ()
          end))

let update_cell t p ~table ~row ~col value =
  in_batch t p (fun b ->
      match Database.get_table t.db table with
      | None -> Error (Printf.sprintf "no table %s" table)
      | Some tbl -> (
          match Tree_view.cell_oid t.view table row col with
          | None ->
              Error
                (Printf.sprintf "no cell (%s, row %d, col %d)" table row col)
          | Some _ -> (
              match Table.update_cell tbl row col value with
              | Error e -> Error e
              | Ok _prev ->
                  ignore (journal t b (Wal.Update_cell (table, row, col, value)));
                  Ok ())))

(* An object that is a cell updates like one, so the backend and the
   WAL follow. *)
let update_object t p oid value =
  match Tree_view.locate t.view oid with
  | Some (Tree_view.Cell (table, row, col)) ->
      update_cell t p ~table ~row ~col value
  | _ ->
      in_batch t p (fun b ->
          if not (Forest.mem t.forest oid) then
            Error (Printf.sprintf "no object %s" (Oid.to_string oid))
          else begin
            capture_existing t b ~direct:true oid;
            match Forest.update t.forest oid value with
            | Error e -> Error e
            | Ok _prev -> Ok ()
          end)

let update_cell_named t p ~table ~row ~column value =
  match Database.get_table t.db table with
  | None -> Error (Printf.sprintf "no table %s" table)
  | Some tbl -> (
      match Schema.column_index (Table.schema tbl) column with
      | None -> Error (Printf.sprintf "no column %s in %s" column table)
      | Some col -> update_cell t p ~table ~row ~col value)

(* ------------------------------------------------------------------ *)
(* Delivery / verification                                             *)
(* ------------------------------------------------------------------ *)

let deliver ?(deep = false) t oid =
  match Forest.subtree t.forest oid with
  | Error e -> Error e
  | Ok snapshot ->
      let records =
        if not deep then Provstore.provenance_object t.prov oid
        else begin
          (* union of the provenance objects of the whole subtree *)
          let seen = Hashtbl.create 256 in
          let out = ref [] in
          Forest.iter_preorder t.forest oid (fun o _ ->
              List.iter
                (fun (r : Record.t) ->
                  if not (Hashtbl.mem seen r.Record.checksum) then begin
                    Hashtbl.replace seen r.Record.checksum ();
                    out := r :: !out
                  end)
                (Provstore.provenance_object t.prov o));
          List.sort Record.compare_seq !out
        end
      in
      Ok (snapshot, records)

let verify_object t oid =
  match deliver t oid with
  | Error e -> Error e
  | Ok (data, records) ->
      Ok (Verifier.verify ?pool:t.pool ~algo:(algo t) ~directory:t.dir ~data records)

let prove t oid = Proof.prove t.cache t.forest oid
