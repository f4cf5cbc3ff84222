open Tep_store
open Tep_tree

let ( let* ) = Result.bind

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
  Value.add_varint buf gen;
  Value.add_varint buf (lsn + 1) (* lsn >= -1 *);
  Value.add_string buf (Engine.root_hash engine);
  Database.encode buf (Engine.backend engine);
  Forest.encode buf (Engine.forest engine);
  Tree_view.encode buf (Engine.mapping engine);
  Value.add_string buf (Provstore.to_string (Engine.provstore engine));
  Container.seal ~magic (Buffer.contents buf)

(* generation, lsn + 1, root hash: everything between the magic and
   the captured state *)
let read_header r =
  let gen = Codec.varint r in
  let lsn1 = Codec.varint r in
  (gen, lsn1, Codec.string r)

let decode_checkpoint s =
  Codec.run (fun () ->
      let r = Container.open_ ~what:"checkpoint" ~magic s in
      let c_gen, lsn1, c_root_hash = read_header r in
      let c_db = Database.read r in
      let c_forest = Forest.read r in
      let c_view = Tree_view.read r in
      let c_prov = Codec.framed r Provstore.read in
      Codec.finish r;
      { c_gen; c_lsn = lsn1 - 1; c_root_hash; c_db; c_forest; c_view; c_prov })

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

let load_generation path =
  match Durable.read path with
  | exception Sys_error e -> Error e
  | s -> decode_checkpoint s

(* The header fits in 256 bytes whatever the digest algorithm, so
   neither the trailer nor the captured state is read. *)
let newest_root ~dir =
  match generations ~dir with
  | [] -> Ok None
  | (_, path) :: _ -> (
      try
        let s = Durable.read ~upto:256 path in
        Codec.run (fun () ->
            let r = Codec.reader ~what:"checkpoint header" s in
            Codec.magic r magic;
            let _, _, root = read_header r in
            Some root)
        |> Result.map_error (fun e -> path ^ ": " ^ e)
      with Sys_error e -> Error (path ^ ": " ^ e))

(* Generations keep the failpoints of the snapshot writer they used
   to share. *)
let site = Durable.site "snapshot.save"

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let checkpoint ?(keep = 2) ~dir ~wal engine =
  let keep = max 1 keep in
  Durable.mkdir dir;
  let* lsn = Result.map_error (fun e -> "checkpoint: wal: " ^ e) (Wal.checkpoint wal) in
  let gen = match generations ~dir with (g, _) :: _ -> g + 1 | [] -> 0 in
  let data = encode_checkpoint ~gen ~lsn engine in
  Result.map_error (fun e -> "checkpoint: " ^ e)
    (* [replace] fsyncs [dir] after the rename, so the generation is
       durable before the WAL's truncation can be *)
    (let* () = Durable.replace site (generation_path ~dir gen) data in
     let* () = Wal.truncate wal ~upto:lsn in
     (* Old generations are pruned last: losing them can only happen
        once the new one is durably in place. *)
     generations ~dir
     |> List.iteri (fun i (_, path) -> if i >= keep then Durable.remove path);
     Ok gen)

(* ------------------------------------------------------------------ *)
(* Recover                                                             *)
(* ------------------------------------------------------------------ *)

let recover ?mode ?pool ?wal_path ?(is_decided = fun _ -> false)
    ?(final_checkpoint = true) ~dir ~directory () =
  let wal_path =
    match wal_path with Some p -> p | None -> Filename.concat dir "wal.log"
  in
  let* gens =
    match generations ~dir with
    | [] -> Error (Printf.sprintf "recover: no checkpoint generations in %s" dir)
    | gens -> Ok gens
  in
  (* 1. newest valid generation, collecting rejections *)
  let rec pick rej = function
    | [] ->
        Error
          (Printf.sprintf "recover: all %d generation(s) invalid: %s"
             (List.length gens)
             (String.concat "; " (List.rev_map (fun r -> r.path ^ ": " ^ r.reason) rej)))
    | (_, path) :: rest -> (
        match load_generation path with
        | Ok c -> Ok (c, List.rev rej)
        | Error reason -> pick ({ path; reason } :: rej) rest)
  in
  let* c, rejected = pick [] gens in
  (* 2. salvage the WAL tail past the checkpoint LSN; a log
     that cannot be read is an error, never an empty tail *)
  let* sv =
    if not (Sys.file_exists wal_path) then Ok Wal.empty_salvage
    else
      Result.map_error
        (fun e ->
          Printf.sprintf
            "recover: %s. Moving %s aside recovers the state of \
             the last checkpoint, without the writes logged after it"
            e wal_path)
        (Wal.salvage_file wal_path)
  in
  let tail = List.filter (fun (s, _) -> s > c.c_lsn) sv.Wal.entries in
  (* 3. contiguous prefix (a seq gap means lost frames: nothing
     after it can be trusted to apply), cut at the last commit
     marker *)
  let rec contiguous expect acc = function
    | (s, e) :: rest when s = expect -> contiguous (s + 1) ((s, e) :: acc) rest
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
    snd
      (List.fold_left
         (fun (i, last) (_, e) -> (i + 1, if is_marker e then i else last))
         (0, -1) prefix)
  in
  let replayable = List.filteri (fun i _ -> i <= last_commit) prefix in
  let frames_dropped = gap_dropped + (List.length prefix - List.length replayable) in
  (* 4. apply *)
  let entries_replayed = ref 0 and records_replayed = ref 0 and committed = ref None in
  let apply_one (_, entry) =
    match entry with
    | Wal.Blob payload -> (
        match Codec.exact ~what:"provenance record" Record.read payload with
        | Error e -> Error ("replay: bad provenance record: " ^ e)
        | Ok record -> (
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
    | e ->
        (* The engine assigned oids through Tree_view.mirror
           in this order on this forest state, so the same
           call with no hooks reproduces them. *)
        Result.map_error (fun e -> "replay: " ^ e)
          (let* () = Wal.apply c.c_db e in
           let* () = Tree_view.mirror c.c_forest c.c_view e in
           Ok (incr entries_replayed))
  in
  let* () =
    List.fold_left
      (fun acc x -> Result.bind acc (fun () -> apply_one x))
      (Ok ()) replayable
  in
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
      let committed_root_hash = Some (Option.value !committed ~default:c.c_root_hash) in
      let prov_root_hash =
        Option.map
          (fun r -> r.Record.output_hash)
          (Provstore.latest c.c_prov (Engine.root_oid engine))
      in
      let matches = Option.fold ~none:true ~some:(String.equal root_hash) in
      let hash_verified = matches committed_root_hash && matches prov_root_hash in
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
      else Ok (engine, wal, report))
