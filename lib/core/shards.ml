(* Cross-shard plumbing shared by the server, the CLI and recovery:
   the routing hash that assigns tables to shards, the coordinator
   decision log, and the two failpoint sites the crash-enumeration
   tests drive.

   The two-phase protocol layered on the WAL commit-marker format:

     phase 1  every participant shard runs the transaction's sub-batch
              as [Engine.complex_op_prepare ~txid], journaling
              [Wal.Prepare (txid, root)] + flush in place of its
              normal [Wal.Commit];
     decide   once ALL prepares are durable, the coordinator appends
              [Wal.Decide (txid, shard indices)] to its own log and
              flushes — this single durable frame is the commit point;
     phase 2  each shard appends a plain [Wal.Commit root] marker, so
              later recoveries need not consult the coordinator for
              this transaction.

   Crash anywhere before the Decide is durable: every shard's Prepare
   is undecided, recovery rolls the prepared frames back on all
   shards.  Crash after: [Recovery.recover ~is_decided] treats each
   Prepare as a commit marker, so all shards come back committed —
   whether or not phase 2 reached them.  Either way the shards agree,
   which is all atomicity requires. *)

let site_decide = "shard.2pc.decide"
let site_phase2 = "shard.2pc.phase2"
let () = List.iter Tep_fault.Fault.register [ site_decide; site_phase2 ]

(* FNV-1a over the key, folded mod the shard count.  Deliberately not
   [Hashtbl.hash]: the shard map is durable state (it decides which
   shard directory owns a table), so it must be stable across OCaml
   releases and word sizes. *)
let hash_key s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

(* Fold the full 64-bit digest with an unsigned remainder: truncating
   to the native int first would be word-size dependent (and a 63-bit
   unsigned value wraps negative in a 63-bit signed int, sending [mod]
   out of range). *)
let shard_of_key ~shards key =
  if shards <= 1 then 0
  else Int64.to_int (Int64.unsigned_rem (hash_key key) (Int64.of_int shards))

(* Table-aware override: a deployment can pin hot tables to chosen
   shards; everything else routes by hash. *)
let shard_of_table ~shards ?(overrides = []) table =
  match List.assoc_opt table overrides with
  | Some s when s >= 0 && s < shards -> s
  | _ -> shard_of_key ~shards table

(* ------------------------------------------------------------------ *)
(* Coordinator decision log                                            *)
(* ------------------------------------------------------------------ *)

(* The coordinator log holds only [Wal.Decide] frames; everything else
   (from damage or foreign writers) is ignored.  Salvage-mode reading
   means a torn final Decide is simply absent — exactly the "crash
   before the decision was durable" outcome. *)
let decided_txids coord_path =
  if Sys.file_exists coord_path then
    List.filter_map
      (function Tep_store.Wal.Decide (txid, _) -> Some txid | _ -> None)
      (Tep_store.Wal.read_file coord_path)
  else []

let is_decided_from coord_path =
  let tbl = Hashtbl.create 16 in
  List.iter (fun txid -> Hashtbl.replace tbl txid ()) (decided_txids coord_path);
  fun txid -> Hashtbl.mem tbl txid

(* The commit point: append [Wal.Decide] to the coordinator log and
   flush, once every participant's prepare is durable.  [Error] means
   the decision is not durable, so recovery rolls the prepares back. *)
let record_decision ~coord ~txid ~shards =
  Tep_fault.Fault.hit site_decide;
  match Tep_store.Wal.append coord (Tep_store.Wal.Decide (txid, shards)) with
  | Error e -> Error ("2pc decide: " ^ e)
  | Ok () -> (
      match Tep_store.Wal.flush coord with
      | Ok () -> Ok ()
      | Error e -> Error ("2pc decide flush: " ^ e))

(* Phase 2 for one participant; a [Wal_failure] here is harmless for
   atomicity (the Decide already committed) but surfaced to count. *)
let finalize_shard engine =
  Tep_fault.Fault.hit site_phase2;
  Engine.write_commit_marker engine

(* ------------------------------------------------------------------ *)
(* The coordinator commit sequence                                     *)
(* ------------------------------------------------------------------ *)

type participant_op = {
  p_shard : int;
  p_engine : Engine.t;
  p_by : Participant.t;
  p_body : unit -> (unit, string) result;
}

(* A body that returns [Error] made no mutation (every op it tried was
   rejected before touching state), so [complex_op_prepare] skips the
   commit entirely — no Prepare frame, nothing to roll back.  Such a
   shard simply drops out of the transaction, mirroring how the
   single-shard batcher skips a commit when a whole group is rejected.

   A [Wal_failure] during phase 1 or during the decision aborts the
   transaction: no Decide is ever written, so every shard's Prepare is
   undecided and recovery rolls the prepared frames back.  (As with a
   single-shard WAL failure, the live engines' in-memory state keeps
   the prepared mutations; durability is what recovery restores.)
   [Fault.Crash] escapes untouched at every step — that is the whole
   point of the crash-enumeration tests. *)
let commit_cross ~coord ~txid parts =
  let parts =
    List.sort (fun a b -> compare a.p_shard b.p_shard) parts
  in
  let prepared = ref [] in
  let abort = ref None in
  List.iter
    (fun p ->
      if !abort = None then
        match Engine.complex_op_prepare p.p_engine p.p_by ~txid p.p_body with
        | Ok ((), m) -> prepared := (p, m) :: !prepared
        | Error _ -> () (* no mutation, no Prepare: shard drops out *)
        | exception Engine.Wal_failure e ->
            abort := Some ("2pc prepare (shard " ^ string_of_int p.p_shard
                           ^ "): " ^ e))
    parts;
  match !abort with
  | Some e -> Error e
  | None -> (
      let prepared = List.rev !prepared in
      if prepared = [] then Ok ([], [])
      else
        let shards = List.map (fun (p, _) -> p.p_shard) prepared in
        match record_decision ~coord ~txid ~shards with
        | Error e -> Error e
        | Ok () ->
            (* Committed.  Phase 2 is best-effort: a shard whose
               upgrade marker fails stays committed via the Decide;
               the failure is only reported so the server can count
               it. *)
            let warnings = ref [] in
            List.iter
              (fun (p, _) ->
                try finalize_shard p.p_engine
                with Engine.Wal_failure e ->
                  warnings :=
                    ("2pc phase 2 (shard " ^ string_of_int p.p_shard ^ "): "
                     ^ e)
                    :: !warnings)
              prepared;
            Ok
              ( List.map (fun (p, m) -> (p.p_shard, m)) prepared,
                List.rev !warnings ))

(* ------------------------------------------------------------------ *)
(* Whole-database operations                                           *)
(* ------------------------------------------------------------------ *)

let published_root algo = function
  | [ root ] -> root (* byte-compatible with an unsharded engine *)
  | roots -> Tep_tree.Merkle.root_of_roots algo roots

(* A shard that never received a write has nothing signed to verify:
   the same objects simply would not exist in a serial run. *)
let verify_shard ?pool ~shards engine =
  let prov = Engine.provstore engine in
  if
    shards > 1
    && Provstore.record_count prov = 0
    && Tep_store.Database.total_rows (Engine.backend engine) = 0
  then Ok None
  else
    Result.map
      (fun root ->
        Some
          ( root,
            Verifier.verify_records ?pool ~algo:(Engine.algo engine)
              ~directory:(Engine.directory engine) (Provstore.all prov) ))
      (Engine.verify_object engine (Engine.root_oid engine))

(* Two phases.  The draws are the sweep's reproducibility contract —
   one [uniform_int drbg 1_000_000] per live object in oid order, so an
   auditor holding the seed replays the same sample — and they thread
   one DRBG, so they run serially.  The sampled objects are independent
   reads, so they fan out over the pool one object per item.  Each
   object's verify gets the pool as well: a cell's closure of one to
   three records stays on its domain (Verifier's serial gate), but the
   root's or a table's is every record below it and spreads over the
   pool from inside its item.  [map_list] keeps input order, so the
   results come back in oid order whatever the scheduling. *)
let sample_shard ?pool ~drbg ~alpha_ppm engine =
  let live =
    List.filter
      (Tep_tree.Forest.mem (Engine.forest engine))
      (Provstore.objects (Engine.provstore engine))
  in
  let sample =
    List.rev
      (List.fold_left
         (fun acc oid ->
           if Tep_crypto.Drbg.uniform_int drbg 1_000_000 < alpha_ppm then
             oid :: acc
           else acc)
         [] live)
  in
  let check oid =
    ( oid,
      Result.map
        (fun (data, records) ->
          Verifier.verify ?pool ~algo:(Engine.algo engine)
            ~directory:(Engine.directory engine) ~data records)
        (Engine.deliver engine oid) )
  in
  let results =
    match pool with
    | Some p -> Tep_parallel.Pool.map_list p check sample
    | None -> List.map check sample
  in
  (results, List.length live)

(* Only once every shard is checkpointed does no Prepare frame survive
   in any shard WAL, so only then do the coordinator's decisions carry
   no live information. *)
let checkpoint_all ?keep ~coord shards =
  let rec go k acc = function
    | [] -> Ok (List.rev acc)
    | (dir, wal, engine) :: rest -> (
        match Recovery.checkpoint ?keep ~dir ~wal engine with
        | Error e -> Error (Printf.sprintf "shard %d: %s" k e)
        | Ok gen -> go (k + 1) ((gen, Tep_store.Wal.last_seq wal) :: acc) rest)
  in
  match (go 0 [] shards, coord) with
  | Ok gens, Some coord -> (
      match Tep_store.Wal.truncate coord ~upto:(Tep_store.Wal.last_seq coord) with
      | Ok () -> Ok gens
      | Error e -> Error ("coordinator log: " ^ e))
  | result, _ -> result
