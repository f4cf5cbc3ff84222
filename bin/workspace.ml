(* Workspace persistence shared by the provdb CLI and the provdbd
   daemon.

   A workspace directory holds a backend database snapshot, the forest
   / oid mapping, the provenance store, the CA, participant
   credentials, the WAL and checkpoint generations.

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

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Command failures carry their exit-code class so every front end
   maps them uniformly: operational errors exit 1, malformed
   arguments exit 2, verification / audit failures (tampering
   detected) exit 3. *)
type failure = Fail of string | Usage of string | Verify_failed of string

let exit_ok = 0
let exit_fail = 1
let exit_usage = 2
let exit_verify = 3

let exit_forced = 4
(* a second signal arrived while provdbd was draining: the process
   died without completing the drain/checkpoint; recovery will replay
   the WAL tail on next start *)

let code_of_failure = function
  | Fail _ -> exit_fail
  | Usage _ -> exit_usage
  | Verify_failed _ -> exit_verify

let message_of_failure = function
  | Fail e | Usage e | Verify_failed e -> e

let ( let* ) = Result.bind
let lift r = Result.map_error (fun e -> Fail e) r (* an operational error *)
let fail fmt = Printf.ksprintf (fun s -> Error (Fail s)) fmt
let fail_usage fmt = Printf.ksprintf (fun s -> Error (Usage s)) fmt
let fail_verify fmt = Printf.ksprintf (fun s -> Error (Verify_failed s)) fmt

let ckpt_dir dir = dir // "checkpoints"
let wal_path dir = dir // "wal.log"
let socket_path dir = dir // "provdbd.sock"
let shards_meta_path dir = dir // "shards"
let coord_path dir = dir // "coord.wal"
let annot_path dir = dir // "annot.dat"

(* The on-disk shard count.  A missing meta file is the legacy flat
   single-shard layout. *)
let shard_count dir =
  if Sys.file_exists (shards_meta_path dir) then
    match int_of_string_opt (String.trim (read_file (shards_meta_path dir))) with
    | Some n when n >= 1 && n <= 64 -> n
    | _ -> 1
  else 1

let shard_dir dir ~shards k =
  if shards <= 1 then dir else dir // Printf.sprintf "shard-%03d" k

let write_shards_meta dir n =
  write_file (shards_meta_path dir) (string_of_int n ^ "\n")

(* Shared domain pool for verification / audit / Merkle sweeps.  Size
   comes from TEP_DOMAINS or the host's recommended domain count; on a
   single-core host this degrades to the sequential code path.  All
   shard engines share the one process-wide pool. *)
let pool () = Tep_parallel.Pool.default ()

let nshards ws = Array.length ws.shards
let shard_for_table ws table = Shards.shard_of_table ~shards:(nshards ws) table
let engine_for_table ws table = ws.shards.(shard_for_table ws table).s_engine

(* Qualifies per-shard output and errors in a multi-shard workspace. *)
let shard_label ~shards k = if shards = 1 then "" else Printf.sprintf "shard %d: " k

(* The database-wide root, exactly as provdbd publishes it. *)
let published_root ws =
  Shards.published_root
    (Engine.algo ws.shards.(0).s_engine)
    (Array.to_list (Array.map (fun s -> Engine.root_hash s.s_engine) ws.shards))

(* CA + participant credentials, shared by normal loads and by
   [recover] (which rebuilds everything else from checkpoints). *)
let load_identity dir =
  if not (Sys.file_exists (dir // "ca")) then
    fail "%s is not a provdb workspace (run `provdb init %s` first)" dir dir
  else begin
    match Tep_crypto.Pki.ca_of_string (read_file (dir // "ca")) with
    | None -> fail "corrupt CA file"
    | Some ca ->
        let directory =
          Participant.Directory.create
            ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
        in
        let pdir = dir // "participants" in
        let participants =
          if Sys.file_exists pdir then
            Sys.readdir pdir |> Array.to_list |> List.sort compare
            |> List.filter_map (fun f ->
                   match Participant.of_string (read_file (pdir // f)) with
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
    fail
      "%sthe workspace files are stale: %s. Either a provdbd is serving \
       this workspace (stop it first) or a previous session crashed \
       (run `provdb recover %s`)"
      label why recover_hint
  in
  let within what = Result.map_error (fun e -> Fail (label ^ what ^ ": " ^ e)) in
  match Wal.salvage_file (wal_path sdir) with
  | Ok sv when sv.Wal.entries <> [] ->
      refuse
        (Printf.sprintf "%d un-checkpointed WAL frame(s)"
           (List.length sv.Wal.entries))
  | Error e when Sys.file_exists (wal_path sdir) ->
      fail "%s%s; run `provdb recover %s`" label e recover_hint
  | _ -> (
      let* db = within "backend" (Snapshot.load (sdir // "backend.snap")) in
      let* prov =
        within "provenance store"
          (Provstore.of_string (read_file (sdir // "prov.dat")))
      in
      let forest, _ = Forest.decode (read_file (sdir // "forest.dat")) 0 in
      let view, _ = Tree_view.decode (read_file (sdir // "view.dat")) 0 in
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
  let n = shard_count dir in
  let rec load_all k acc =
    if k = n then Ok (Array.of_list (List.rev acc))
    else
      let* s =
        load_shard ~directory ~label:(shard_label ~shards:n k) ~recover_hint:dir
          (shard_dir dir ~shards:n k)
      in
      load_all (k + 1) (s :: acc)
  in
  let* shards = load_all 0 [] in
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
  write_file (sdir // "prov.dat")
    (Provstore.to_string (Engine.provstore s.s_engine));
  let buf = Buffer.create 4096 in
  Forest.encode buf (Engine.forest s.s_engine);
  write_file (sdir // "forest.dat") (Buffer.contents buf);
  Buffer.clear buf;
  Tree_view.encode buf (Engine.mapping s.s_engine);
  write_file (sdir // "view.dat") (Buffer.contents buf);
  Ok ()

(* Flat files, then a checkpoint generation per shard (the crash-safe
   copy of the same state) with WAL and coordinator-log truncation. *)
let save ws =
  write_file (ws.dir // "ca") (Tep_crypto.Pki.ca_to_string ws.ca);
  let rec files = function
    | [] -> Ok ()
    | s :: rest ->
        let* () = save_files s in
        files rest
  in
  let* () = files (Array.to_list ws.shards) in
  let* _ = Shards.checkpoint_all ~coord:ws.coord (durable ws) in
  Ok ()

let report_failure f = prerr_endline ("error: " ^ message_of_failure f)

let with_workspace ?(save_after = true) dir f =
  match
    let* ws = load dir in
    let* msg = f ws in
    let* () = if save_after then lift (save ws) else Ok () in
    Ok msg
  with
  | Ok msg ->
      if msg <> "" then print_endline msg;
      exit_ok
  | Error f ->
      report_failure f;
      code_of_failure f

let get_participant ws name =
  match List.assoc_opt name ws.participants with
  | Some p -> Ok p
  | None ->
      fail_usage "no participant %s (add with `provdb participant %s %s`)" name
        ws.dir name
