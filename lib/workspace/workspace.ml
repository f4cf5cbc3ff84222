(* Workspace persistence shared by the provdb CLI, the provdbd daemon
   and the crash-state tests.

   A workspace directory holds a backend database snapshot, the forest
   / oid mapping, the provenance store, the CA, participant
   credentials, the WAL and checkpoint generations.  Every file in it
   is written through {!Tep_store.Durable}.

   Sharded layout: a `shards` meta file at the workspace root records
   the shard count N.  When absent (or 1) the workspace uses the
   legacy flat layout — every data file directly under [dir].  When
   N > 1, each shard k owns a `shard-00k/` subdirectory with its own
   backend.snap / prov.dat / forest.dat / view.dat / wal.log /
   checkpoints, while the CA, participant credentials and the
   cross-shard coordinator log (`coord.wal`) stay at the root.  Tables
   route to shards by {!Tep_core.Shards.shard_of_table}; the shard
   count is fixed at init time (the routing hash is durable state). *)

open Tep_store
open Tep_tree
open Tep_core

type shard_ws = { s_dir : string; s_engine : Engine.t; s_wal : Wal.t }

type t = {
  dir : string;
  ca : Tep_crypto.Pki.ca;
  directory : Participant.Directory.t;
  participants : (string * Participant.t) list;
  shards : shard_ws array;
  coord : Wal.t option; (* Some iff Array.length shards > 1 *)
}

let ( // ) = Filename.concat
let ( let* ) = Result.bind
let errorf fmt = Printf.ksprintf (fun s -> Error s) fmt

let site = Durable.site "workspace.save"
let write path data = Durable.replace site path data

let ca_path dir = dir // "ca"
let participants_dir dir = dir // "participants"
let ckpt_dir dir = dir // "checkpoints"
let wal_path dir = dir // "wal.log"
let socket_path dir = dir // "provdbd.sock"
let shards_meta_path dir = dir // "shards"
let coord_path dir = dir // "coord.wal"
let annot_path dir = dir // "annot.dat"
let audit_path s = s.s_dir // "audit.ckpt"

(* The on-disk shard count.  A missing meta file is the legacy flat
   single-shard layout; one that does not hold 1..64 is damaged. *)
let shard_count dir =
  let path = shards_meta_path dir in
  if Sys.file_exists path then
    match int_of_string_opt (String.trim (Durable.read path)) with
    | Some n when n >= 1 && n <= 64 -> Ok n
    | _ | (exception Sys_error _) ->
        errorf "%s: damaged shard count (expected an integer in 1..64)" path
  else Ok 1

let shard_dir dir ~shards k =
  if shards <= 1 then dir else dir // Printf.sprintf "shard-%03d" k

(* Shared domain pool for verification / audit / Merkle sweeps.  Size
   comes from TEP_DOMAINS or the host's recommended domain count; on a
   single-core host this degrades to the sequential code path.  All
   shard engines share the one process-wide pool. *)
let pool () = Tep_parallel.Pool.default ()

(* Qualifies per-shard output and errors in a multi-shard workspace. *)
let shard_label ~shards k = if shards = 1 then "" else Printf.sprintf "shard %d: " k

(* The database-wide root, exactly as provdbd publishes it. *)
let published_root ws =
  Shards.published_root
    (Engine.algo ws.shards.(0).s_engine)
    (Array.to_list (Array.map (fun s -> Engine.root_hash s.s_engine) ws.shards))

(* [f k] for k = 0 .. n-1 in order, stopping at the first error. *)
let collect n f =
  let rec go k acc =
    if k = n then Ok (List.rev acc)
    else
      let* x = f k in
      go (k + 1) (x :: acc)
  in
  go 0 []

let each f shards =
  Result.map ignore (collect (Array.length shards) (fun k -> f shards.(k)))

(* CA + participant credentials, shared by normal loads and by
   [recover] (which rebuilds everything else from checkpoints).  A
   `.tmp` file is a replacement a crash interrupted, not a
   participant. *)
let load_identity dir =
  if not (Sys.file_exists (ca_path dir)) then
    errorf "%s is not a provdb workspace (run `provdb init %s` first)" dir dir
  else begin
    match Tep_crypto.Pki.ca_of_string (Durable.read (ca_path dir)) with
    | None -> Error "corrupt CA file"
    | Some ca ->
        let directory =
          Participant.Directory.create
            ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
        in
        let pdir = participants_dir dir in
        let participants =
          if Sys.file_exists pdir then
            Sys.readdir pdir |> Array.to_list |> List.sort compare
            |> List.filter (fun f -> not (Filename.check_suffix f ".tmp"))
            |> List.filter_map (fun f ->
                   match Participant.of_string (Durable.read (pdir // f)) with
                   | Some p ->
                       Participant.Directory.register directory p;
                       Some (Participant.name p, p)
                   | None -> None)
          else []
        in
        Ok (ca, directory, participants)
  end

(* [Some reason] when [sdir]'s flat files may lag the shard's newest
   checkpoint generation.  They are rewritten only by {!save}, while a
   running provdbd may checkpoint a newer generation between saves. *)
let staleness sdir engine =
  match Recovery.newest_root ~dir:(ckpt_dir sdir) with
  | Ok (Some root) when not (String.equal root (Engine.root_hash engine)) ->
      Some "the newest checkpoint generation holds a different root"
  | Ok _ -> None
  | Error e -> Some e

(* One shard's data files, loaded from its own directory.  [label]
   qualifies error messages in multi-shard workspaces.  Refuses
   files that are not the shard's latest committed state: opening
   them would serve, and at the next save checkpoint over, a state
   that lost acknowledged writes. *)
let load_shard ~directory ~label ~recover_hint sdir =
  let refuse why =
    errorf
      "%sthe workspace files are stale: %s. Either a provdbd is serving \
       this workspace (stop it first) or a previous session crashed \
       (run `provdb recover %s`)"
      label why recover_hint
  in
  let within what = Result.map_error (fun e -> label ^ what ^ ": " ^ e) in
  match Wal.salvage_file (wal_path sdir) with
  | Ok sv when sv.Wal.entries <> [] ->
      refuse
        (Printf.sprintf "%d un-checkpointed WAL frame(s)"
           (List.length sv.Wal.entries))
  | Error e when Sys.file_exists (wal_path sdir) ->
      errorf "%s%s; run `provdb recover %s`" label e recover_hint
  | _ -> (
      let* db = within "backend" (Snapshot.load (sdir // "backend.snap")) in
      (* a missing file is an error naming it, like a damaged one *)
      let flat what decode file =
        within what
          (match Durable.read (sdir // file) with
          | s -> decode s
          | exception Sys_error e -> Error e)
      in
      let* prov = flat "provenance store" Provstore.of_string "prov.dat" in
      let* forest = flat "forest" (Codec.exact ~what:"forest.dat" Forest.read) "forest.dat" in
      let* view = flat "tree view" (Codec.exact ~what:"view.dat" Tree_view.read) "view.dat" in
      let wal = Wal.open_file (wal_path sdir) in
      let engine =
        Engine.of_parts ~wal ~pool:(pool ()) ~provstore:prov ~directory ~forest
          ~view db
      in
      match staleness sdir engine with
      | Some why ->
          Wal.close wal;
          refuse why
      | None -> Ok { s_dir = sdir; s_engine = engine; s_wal = wal })

let load dir =
  let* ca, directory, participants = load_identity dir in
  let* n = shard_count dir in
  let* shards =
    collect n (fun k ->
        load_shard ~directory ~label:(shard_label ~shards:n k) ~recover_hint:dir
          (shard_dir dir ~shards:n k))
  in
  let shards = Array.of_list shards in
  let coord = if n > 1 then Some (Wal.open_file (coord_path dir)) else None in
  Ok { dir; ca; directory; participants; shards; coord }

(* The [Shards.checkpoint_all] view of the workspace. *)
let durable ws =
  Array.to_list
    (Array.map (fun s -> (ckpt_dir s.s_dir, s.s_wal, s.s_engine)) ws.shards)

(* The flat files every load reads. *)
let save_files s =
  let sdir = s.s_dir in
  let* () = Snapshot.save (Engine.backend s.s_engine) (sdir // "backend.snap") in
  let* () =
    write (sdir // "prov.dat") (Provstore.to_string (Engine.provstore s.s_engine))
  in
  let buf = Buffer.create 4096 in
  Forest.encode buf (Engine.forest s.s_engine);
  let* () = write (sdir // "forest.dat") (Buffer.contents buf) in
  Buffer.clear buf;
  Tree_view.encode buf (Engine.mapping s.s_engine);
  write (sdir // "view.dat") (Buffer.contents buf)

(* The WAL frames first, so that a crash while the flat files are
   rewritten leaves frames that make loads refuse until recovery, never
   a loadable mix of old and new files; then the flat files, then a
   checkpoint generation per shard (the crash-safe copy of the same
   state) with WAL and coordinator-log truncation.  The CA and the
   participants are not written here: only {!init} and
   {!add_participant} change them. *)
let save ws =
  let* () = each (fun s -> Wal.sync s.s_wal) ws.shards in
  let* () = each save_files ws.shards in
  let* _ = Shards.checkpoint_all ~coord:ws.coord (durable ws) in
  Ok ()

(* The write steps of `provdb init`, over one database per shard.  The
   CA goes last: its file marks a workspace as initialised, so a crash
   before it leaves a directory that init accepts again, and the
   generations such a crash left are dropped first. *)
let init dir ~ca dbs =
  let shards = Array.length dbs in
  Durable.mkdir dir;
  Durable.mkdir (participants_dir dir);
  let* () =
    if shards > 1 then write (shards_meta_path dir) (string_of_int shards ^ "\n")
    else Ok (Durable.remove (shards_meta_path dir))
  in
  let directory =
    Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
  in
  let shard k db =
    let sdir = shard_dir dir ~shards k in
    if shards > 1 then Durable.mkdir sdir;
    List.iter (fun (_, p) -> Durable.remove p) (Recovery.generations ~dir:(ckpt_dir sdir));
    let wal = Wal.open_file (wal_path sdir) in
    let engine = Engine.create ~wal ~pool:(pool ()) ~directory db in
    { s_dir = sdir; s_engine = engine; s_wal = wal }
  in
  let shard_arr = Array.mapi shard dbs in
  let coord = if shards > 1 then Some (Wal.open_file (coord_path dir)) else None in
  let ws = { dir; ca; directory; participants = []; shards = shard_arr; coord } in
  let* () = save ws in
  let* () = write (ca_path dir) (Tep_crypto.Pki.ca_to_string ca) in
  Ok ws

(* The write steps of `provdb participant`, for a participant whose
   certificate [ws.ca] just issued.  The CA's bumped serial is durable
   before the credential that holds it, so a crash in between can skip
   a serial but never hand it out twice. *)
let add_participant ws p =
  let* () = write (ca_path ws.dir) (Tep_crypto.Pki.ca_to_string ws.ca) in
  write (participants_dir ws.dir // Participant.name p) (Participant.to_string p)

(* Rebuild every shard from its newest valid checkpoint generation plus
   the WAL tail and save both copies again — the path to take after a
   crash.  The coordinator log resolves prepared-but-unmarked
   cross-shard transactions: decided => commit, undecided => roll
   back. *)
let recover dir =
  let* ca, directory, participants = load_identity dir in
  let* n = shard_count dir in
  let is_decided =
    if n > 1 then Some (Shards.is_decided_from (coord_path dir)) else None
  in
  let* pairs =
    collect n (fun k ->
        let sdir = shard_dir dir ~shards:n k in
        let* engine, wal, report =
          (* the save below writes the post-recovery checkpoint *)
          Recovery.recover ~final_checkpoint:false ~pool:(pool ()) ?is_decided
            ~dir:(ckpt_dir sdir) ~wal_path:(wal_path sdir) ~directory ()
          |> Result.map_error (fun e -> shard_label ~shards:n k ^ e)
        in
        Ok ({ s_dir = sdir; s_engine = engine; s_wal = wal }, report))
  in
  let shards = Array.of_list (List.map fst pairs) in
  let coord = if n > 1 then Some (Wal.open_file (coord_path dir)) else None in
  let* () = save { dir; ca; directory; participants; shards; coord } in
  Ok (List.map snd pairs)

(* Each shard's audit checkpoint, living in the shard's own directory
   (the workspace root for a 1-shard layout).  A missing file means a
   first audit; a damaged one is refused, since replacing it would drop
   every anchor. *)
let audit_checkpoints ws =
  let load s =
    let path = audit_path s in
    if not (Sys.file_exists path) then Ok Audit.empty
    else
      Audit.of_string (Durable.read path)
      |> Result.map_error (fun e ->
             Printf.sprintf "%s is damaged (%s); deleting it forces a full re-audit"
               path e)
  in
  Result.map Array.of_list
    (collect (Array.length ws.shards) (fun k -> load ws.shards.(k)))

(* An incremental audit of every shard's store against its audit
   checkpoint, which then moves forward: per shard, the report, the
   records examined and the objects the checkpoint covers. *)
let audit ws =
  let* cps = audit_checkpoints ws in
  collect (Array.length ws.shards) (fun k ->
      let s = ws.shards.(k) in
      let report, cp, examined =
        Audit.incremental_audit ~pool:(pool ()) ~directory:ws.directory cps.(k)
          (Engine.provstore s.s_engine)
      in
      let* () = write (audit_path s) (Audit.to_string cp) in
      Ok (report, examined, Audit.objects cp))

(* Drop the records of objects no longer in the forest, then rebuild
   each shard's engine over its pruned store so the save below writes
   the pruned store to the flat files and a new checkpoint generation
   alike — `provdb recover` must not bring the records back.  The audit
   checkpoint forgets the objects whose chains got shorter: their
   marks may point at records that are gone.  Returns the record
   counts before and after. *)
let prune ws =
  let* cps = audit_checkpoints ws in
  let before_total = ref 0 and after_total = ref 0 in
  let prune_shard k s =
    let e = s.s_engine in
    let prov = Engine.provstore e and forest = Engine.forest e in
    let live = ref [] in
    List.iter
      (fun root -> Forest.iter_preorder forest root (fun o _ -> live := o :: !live))
      (Forest.roots forest);
    let pruned = Provstore.prune prov ~live:!live in
    before_total := !before_total + Provstore.record_count prov;
    after_total := !after_total + Provstore.record_count pruned;
    let tip st oid =
      Option.map (fun (r : Record.t) -> r.Record.checksum) (Provstore.latest st oid)
    in
    let shortened =
      List.filter (fun oid -> tip pruned oid <> tip prov oid) (Provstore.objects prov)
    in
    let* () =
      if Audit.objects cps.(k) > 0 then
        write (audit_path s) (Audit.to_string (Audit.forget cps.(k) shortened))
      else Ok ()
    in
    ws.shards.(k) <-
      {
        s with
        s_engine =
          Engine.of_parts ~algo:(Engine.algo e) ~wal:s.s_wal ~pool:(pool ())
            ~provstore:pruned ~directory:ws.directory ~forest
            ~view:(Engine.mapping e) (Engine.backend e);
      };
    Ok ()
  in
  let* _ = collect (Array.length ws.shards) (fun k -> prune_shard k ws.shards.(k)) in
  let* () = save ws in
  Ok (!before_total, !after_total)

(* Append a signed annotation to annot.dat, which `provdb verify`
   checks from then on; returns how many it now holds. *)
let save_annotation ws annot =
  let path = annot_path ws.dir in
  let* l =
    if not (Sys.file_exists path) then Ok []
    else
      Tep_prov.Annot.list_of_string (Durable.read path)
      |> Result.map_error (fun e -> path ^ ": " ^ e)
  in
  let* () = write path (Tep_prov.Annot.list_to_string (l @ [ annot ])) in
  Ok (List.length l + 1)
