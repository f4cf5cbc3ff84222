open Tep_store
open Tep_tree

type rejected = { path : string; reason : string }

type report = {
  generation : int;
  checkpoint_lsn : int;
  rejected : rejected list;
  entries_replayed : int;
  records_replayed : int;
  frames_dropped : int;
  skipped_frames : int;
  torn_tail : bool;
  root_hash : string;
  committed_root_hash : string option;
  prov_root_hash : string option;
  hash_verified : bool;
}

let pp_report fmt r =
  let hex = Tep_crypto.Digest_algo.to_hex in
  Format.fprintf fmt
    "@[<v>recovered from generation %d (lsn %d)@,%a\
     replayed: %d entries, %d provenance records; dropped %d uncommitted \
     frame(s)@,\
     wal damage: %d skipped region(s)%s@,\
     root hash: %s@,\
     cross-check: %s@]"
    r.generation r.checkpoint_lsn
    (fun fmt -> function
      | [] -> ()
      | rej ->
          List.iter
            (fun { path; reason } ->
              Format.fprintf fmt "rejected %s: %s@," path reason)
            rej)
    r.rejected r.entries_replayed r.records_replayed r.frames_dropped
    r.skipped_frames
    (if r.torn_tail then ", torn tail" else "")
    (hex r.root_hash)
    (if r.hash_verified then "ok"
     else
       Printf.sprintf "MISMATCH (committed %s, provenance %s)"
         (match r.committed_root_hash with Some h -> hex h | None -> "-")
         (match r.prov_root_hash with Some h -> hex h | None -> "-"))

(* ------------------------------------------------------------------ *)
(* Checkpoint file codec                                               *)
(* ------------------------------------------------------------------ *)

let magic = "TEPCKPT1"

type ckpt = {
  c_gen : int;
  c_lsn : int;
  c_root_hash : string;
  c_db : Database.t;
  c_forest : Forest.t;
  c_view : Tree_view.mapping;
  c_prov : Provstore.t;
}

let encode_checkpoint ~gen ~lsn engine =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf magic;
  Value.add_varint buf gen;
  Value.add_varint buf (lsn + 1) (* lsn >= -1 *);
  Value.add_string buf (Engine.root_hash engine);
  Database.encode buf (Engine.backend engine);
  Forest.encode buf (Engine.forest engine);
  Tree_view.encode buf (Engine.mapping engine);
  Value.add_string buf (Provstore.to_string (Engine.provstore engine));
  let body = Buffer.contents buf in
  body ^ Tep_crypto.Sha256.digest body

(* magic, generation, lsn + 1, root hash: everything before the
   captured state.  @raise Failure on a truncated header. *)
let decode_header s =
  if String.length s < 8 || String.sub s 0 8 <> magic then
    failwith "bad magic"
  else
    let gen, off = Value.read_varint s 8 in
    let lsn1, off = Value.read_varint s off in
    let root_hash, off = Value.read_string s off in
    (gen, lsn1, root_hash, off)

let decode_checkpoint s =
  let dlen = Tep_crypto.Sha256.digest_size in
  let len = String.length s in
  if len < String.length magic + dlen then Error "checkpoint: too short"
  else begin
    let body = String.sub s 0 (len - dlen) in
    let trailer = String.sub s (len - dlen) dlen in
    if not (String.equal (Tep_crypto.Sha256.digest body) trailer) then
      Error "checkpoint: integrity trailer mismatch"
    else
      try
        let gen, lsn1, root_hash, off = decode_header body in
        let db, off = Database.decode body off in
        let forest, off = Forest.decode body off in
        let view, off = Tree_view.decode body off in
        let prov_s, off = Value.read_string body off in
        if off <> String.length body then Error "checkpoint: trailing garbage"
        else
          match Provstore.of_string prov_s with
          | Error e -> Error ("checkpoint: provenance store: " ^ e)
          | Ok prov ->
              Ok
                {
                  c_gen = gen;
                  c_lsn = lsn1 - 1;
                  c_root_hash = root_hash;
                  c_db = db;
                  c_forest = forest;
                  c_view = view;
                  c_prov = prov;
                }
      with Failure e | Invalid_argument e -> Error ("checkpoint: " ^ e)
  end

let generation_path ~dir gen = Filename.concat dir (Printf.sprintf "ckpt-%06d.snap" gen)

let generations ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           if
             String.length f = 16
             && String.sub f 0 5 = "ckpt-"
             && Filename.check_suffix f ".snap"
           then
             match int_of_string_opt (String.sub f 5 6) with
             | Some g -> Some (g, Filename.concat dir f)
             | None -> None
           else None)
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare b a)

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_generation path =
  match read_whole path with
  | exception Sys_error e -> Error e
  | s -> decode_checkpoint s

(* The header fits in 256 bytes whatever the digest algorithm, so
   neither the trailer nor the captured state is read. *)
let newest_root ~dir =
  match generations ~dir with
  | [] -> Ok None
  | (_, path) :: _ -> (
      try
        let ic = open_in_bin path in
        let s =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (min 256 (in_channel_length ic)))
        in
        let _, _, root, _ = decode_header s in
        Ok (Some root)
      with Sys_error e | Failure e | Invalid_argument e ->
        Error (path ^ ": " ^ e))

let ensure_dir dir =
  try Unix.mkdir dir 0o755
  with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let checkpoint ?(keep = 2) ~dir ~wal engine =
  let keep = max 1 keep in
  ensure_dir dir;
  match Wal.checkpoint wal with
  | Error e -> Error ("checkpoint: wal: " ^ e)
  | Ok lsn -> (
      let gen =
        match generations ~dir with (g, _) :: _ -> g + 1 | [] -> 0
      in
      let data = encode_checkpoint ~gen ~lsn engine in
      match Snapshot.write_atomic (generation_path ~dir gen) data with
      | Error e -> Error ("checkpoint: " ^ e)
      | Ok () -> (
          match Wal.truncate wal ~upto:lsn with
          | Error e -> Error ("checkpoint: " ^ e)
          | Ok () ->
              (* Old generations are pruned last: losing them can only
                 happen once the new one is durably in place. *)
              generations ~dir
              |> List.iteri (fun i (_, path) ->
                     if i >= keep then
                       try Sys.remove path with Sys_error _ -> ());
              Ok gen))

(* ------------------------------------------------------------------ *)
(* Recover                                                             *)
(* ------------------------------------------------------------------ *)

let recover ?mode ?pool ?wal_path ?(is_decided = fun _ -> false)
    ?(final_checkpoint = true) ~dir ~directory () =
  let wal_path =
    match wal_path with Some p -> p | None -> Filename.concat dir "wal.log"
  in
  match generations ~dir with
  | [] -> Error (Printf.sprintf "recover: no checkpoint generations in %s" dir)
  | gens -> (
      (* 1. newest valid generation, collecting rejections *)
      let rec pick rej = function
        | [] ->
            Error
              (Printf.sprintf "recover: all %d generation(s) invalid: %s"
                 (List.length gens)
                 (String.concat "; "
                    (List.rev_map
                       (fun r -> r.path ^ ": " ^ r.reason)
                       rej)))
        | (_, path) :: rest -> (
            match load_generation path with
            | Ok c -> Ok (c, List.rev rej)
            | Error reason -> pick ({ path; reason } :: rej) rest)
      in
      match pick [] gens with
      | Error e -> Error e
      | Ok (c, rejected) -> (
          (* 2. salvage the WAL tail past the checkpoint LSN *)
          let sv =
            if Sys.file_exists wal_path then
              match Wal.salvage_file wal_path with
              | Ok sv -> sv
              | Error _ ->
                  {
                    Wal.entries = [];
                    skipped_frames = 0;
                    torn_tail = false;
                    bytes_salvaged = 0;
                  }
            else
              {
                Wal.entries = [];
                skipped_frames = 0;
                torn_tail = false;
                bytes_salvaged = 0;
              }
          in
          let tail =
            List.filter (fun (s, _) -> s > c.c_lsn) sv.Wal.entries
          in
          (* 3. contiguous prefix (a seq gap means lost frames: nothing
             after it can be trusted to apply), cut at the last commit
             marker *)
          let rec contiguous expect acc = function
            | (s, e) :: rest when s = expect ->
                contiguous (s + 1) ((s, e) :: acc) rest
            | rest -> (List.rev acc, List.length rest)
          in
          let prefix, gap_dropped = contiguous (c.c_lsn + 1) [] tail in
          (* A Prepare is a commit marker iff the coordinator decided
             its transaction; an undecided Prepare is ordinary frame
             content — trailing prepared work is rolled back, while a
             decided-but-unmarked transaction commits exactly as if
             the shard had written its own Wal.Commit. *)
          let is_marker = function
            | Wal.Commit _ -> true
            | Wal.Prepare (txid, _) -> is_decided txid
            | _ -> false
          in
          let last_commit =
            List.fold_left
              (fun (i, last) (_, e) ->
                if is_marker e then (i + 1, i) else (i + 1, last))
              (0, -1) prefix
            |> snd
          in
          let replayable = List.filteri (fun i _ -> i <= last_commit) prefix in
          let frames_dropped =
            gap_dropped + (List.length prefix - List.length replayable)
          in
          (* 4. apply *)
          let entries_replayed = ref 0 in
          let records_replayed = ref 0 in
          let committed = ref None in
          let apply_one (_, entry) =
            match entry with
            | Wal.Blob payload -> (
                match Record.decode payload 0 with
                | exception (Failure e | Invalid_argument e) ->
                    Error ("replay: bad provenance record: " ^ e)
                | record, _ -> (
                    match Provstore.append c.c_prov record with
                    | () ->
                        incr records_replayed;
                        Ok ()
                    | exception Invalid_argument e ->
                        Error ("replay: provenance append: " ^ e)))
            | Wal.Commit h ->
                committed := Some h;
                Ok ()
            | Wal.Prepare (txid, h) ->
                (* Undecided prepared frames replay only when a later
                   marker committed on top of them (the live engine's
                   state already contained them); the intent marker
                   itself advances the committed root only when
                   decided. *)
                if is_decided txid then committed := Some h;
                Ok ()
            | Wal.Decide _ -> Ok ()
            | e -> (
                (* The engine assigned oids through Tree_view.mirror
                   in this order on this forest state, so the same
                   call with no hooks reproduces them. *)
                match Wal.apply c.c_db e with
                | Error e -> Error ("replay: " ^ e)
                | Ok () -> (
                    match Tree_view.mirror c.c_forest c.c_view e with
                    | Error e -> Error ("replay: " ^ e)
                    | Ok () ->
                        incr entries_replayed;
                        Ok ()))
          in
          let rec apply_all = function
            | [] -> Ok ()
            | x :: rest -> (
                match apply_one x with
                | Ok () -> apply_all rest
                | Error _ as e -> e)
          in
          match apply_all replayable with
          | Error e -> Error e
          | Ok () -> (
              (* 5. rebuild the engine on the recovered parts *)
              let wal = Wal.open_file wal_path in
              match
                Engine.of_parts
                  ~algo:(Provstore.algo c.c_prov)
                  ?mode ?pool ~wal ~provstore:c.c_prov ~directory
                  ~forest:c.c_forest ~view:c.c_view c.c_db
              with
              | exception Failure e ->
                  Wal.close wal;
                  Error ("recover: " ^ e)
              | engine -> (
                  (* 6. cross-check the recovered root hash *)
                  let root_hash = Engine.root_hash engine in
                  let committed_root_hash =
                    match !committed with
                    | Some h -> Some h
                    | None -> Some c.c_root_hash
                  in
                  let prov_root_hash =
                    Option.map
                      (fun r -> r.Record.output_hash)
                      (Provstore.latest c.c_prov (Engine.root_oid engine))
                  in
                  let matches = function
                    | Some h -> String.equal h root_hash
                    | None -> true
                  in
                  let hash_verified =
                    matches committed_root_hash && matches prov_root_hash
                  in
                  let report =
                    {
                      generation = c.c_gen;
                      checkpoint_lsn = c.c_lsn;
                      rejected;
                      entries_replayed = !entries_replayed;
                      records_replayed = !records_replayed;
                      frames_dropped;
                      skipped_frames = sv.Wal.skipped_frames;
                      torn_tail = sv.Wal.torn_tail;
                      root_hash;
                      committed_root_hash;
                      prov_root_hash;
                      hash_verified;
                    }
                  in
                  (* 7. checkpoint, so dropped frames are gone for good *)
                  if final_checkpoint then
                    match checkpoint ~dir ~wal engine with
                    | Ok _ -> Ok (engine, wal, report)
                    | Error e -> Error ("recover: final checkpoint: " ^ e)
                  else Ok (engine, wal, report)))))
