(* Crash-state enumeration over the durable writer's op trace — the
   method of ALICE (Pillai et al., "All File Systems Are Not Created
   Equal", OSDI 2014), applied to our own trace rather than to
   syscalls.

   Each case prepares a workspace, snapshots it, and runs one verb
   through the same Workspace / Recovery / Shards code the provdb and
   provdbd binaries call, with a recorder installed on
   [Tep_fault.Fault.recorder].  Every effect {!Tep_store.Durable} has
   on the files (create, write, fsync, rename, unlink, mkdir,
   directory fsync) lands in the trace.  Replaying the trace over the
   snapshot must give exactly the files the run left: that shows no
   write bypassed the recorder.

   The persistence model.  The state before the verb is durable.
   Then:
   - bytes written to a file since its last fsync may be lost; what
     survives is a prefix of them, cut at the end of a write or at a
     4 KiB boundary of the file;
   - a change to a directory's entries (a create, rename, unlink or
     mkdir) is durable once that directory is fsynced.  Before that,
     the pending changes of one directory survive as a prefix, in
     order; no order holds between directories, or between a file's
     data and its entry.
   A crash after any prefix of the trace leaves any combination of
   these choices.  In the small bound every file and directory either
   keeps all or none of its pending changes; the full bound also
   enumerates every prefix and every torn block.

   Every distinct crash state must load, or else `provdb recover`
   (Workspace.recover) must succeed and the result load.  The loaded
   state must then verify (R1–R8: every shard's root and a whole-store
   audit, every saved annotation, every audit checkpoint readable),
   and must hold every acknowledged write: before the verb returned,
   it shows the state before or after the verb; after, only the state
   after.  A crashed init may instead leave no CA, and then running
   init again must produce the workspace. *)

open Tep_store
open Tep_core
module Fault = Tep_fault.Fault
module W = Tep_workspace.Workspace
module M = Map.Make (String)

let ( // ) = Filename.concat
let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Disk images                                                         *)
(* ------------------------------------------------------------------ *)

(* A directory tree as relative path -> node, "." being the root. *)
type node = File of string | Dir

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let snapshot root =
  let rec walk rel acc =
    Array.fold_left
      (fun acc f ->
        let rel' = if rel = "." then f else rel // f in
        let path = root // rel' in
        if Sys.is_directory path then walk rel' (M.add rel' Dir acc)
        else M.add rel' (File (Durable.read path)) acc)
      acc
      (Sys.readdir (root // rel))
  in
  walk "." M.empty

(* Parents sort before their children, so one ordered pass builds the
   tree. *)
let materialize root image =
  rm_rf root;
  Unix.mkdir root 0o755;
  M.iter
    (fun rel node ->
      let path = root // rel in
      match node with
      | Dir -> Unix.mkdir path 0o755
      | File s ->
          let oc = open_out_bin path in
          output_string oc s;
          close_out oc)
    image

(* ------------------------------------------------------------------ *)
(* The persistence model                                               *)
(* ------------------------------------------------------------------ *)

type entry = F of int | D

type sim = {
  mutable vol : entry M.t;  (* the namespace the process sees *)
  mutable dur : entry M.t;  (* entries made durable by a directory fsync *)
  mutable pending : (string * (string * entry option) list) list;
      (* (directory, entry changes) not yet durable, newest first *)
  data : (int, string) Hashtbl.t;  (* inode -> content the process sees *)
  synced : (int, int) Hashtbl.t;  (* inode -> length made durable *)
  ends : (int, int list) Hashtbl.t;  (* inode -> write ends since its fsync *)
  mutable next : int;
}

let parent p = Filename.dirname p

let new_inode sim content =
  let i = sim.next in
  sim.next <- i + 1;
  Hashtbl.replace sim.data i content;
  Hashtbl.replace sim.synced i (String.length content);
  Hashtbl.replace sim.ends i [];
  i

let of_image image =
  let sim =
    {
      vol = M.empty;
      dur = M.empty;
      pending = [];
      data = Hashtbl.create 64;
      synced = Hashtbl.create 64;
      ends = Hashtbl.create 64;
      next = 0;
    }
  in
  let ns =
    M.map (function Dir -> D | File s -> F (new_inode sim s)) image
  in
  sim.vol <- ns;
  sim.dur <- ns;
  sim

let apply_changes ns changes =
  List.fold_left
    (fun ns (p, e) ->
      match e with Some e -> M.add p e ns | None -> M.remove p ns)
    ns changes

let change sim dir changes =
  sim.vol <- apply_changes sim.vol changes;
  sim.pending <- (dir, changes) :: sim.pending

let inode sim p =
  match M.find_opt p sim.vol with
  | Some (F i) -> i
  | _ -> Alcotest.failf "trace: %s is not a file" p

let step sim = function
  | Fault.Create p -> change sim (parent p) [ (p, Some (F (new_inode sim ""))) ]
  | Fault.Write (p, s) ->
      let i = inode sim p in
      let d = Hashtbl.find sim.data i ^ s in
      Hashtbl.replace sim.data i d;
      Hashtbl.replace sim.ends i (String.length d :: Hashtbl.find sim.ends i)
  | Fault.Fsync p ->
      let i = inode sim p in
      Hashtbl.replace sim.synced i (String.length (Hashtbl.find sim.data i));
      Hashtbl.replace sim.ends i []
  | Fault.Rename (a, b) ->
      let e = M.find a sim.vol in
      change sim (parent b) [ (b, Some e); (a, None) ]
  | Fault.Unlink p -> change sim (parent p) [ (p, None) ]
  | Fault.Mkdir p -> change sim (parent p) [ (p, Some D) ]
  | Fault.Dir_fsync d ->
      let mine, others = List.partition (fun (d', _) -> d' = d) sim.pending in
      sim.dur <- List.fold_right (fun (_, c) ns -> apply_changes ns c) mine sim.dur;
      sim.pending <- others

(* What the process sees, as an image: the replay check's side. *)
let volatile_image sim =
  M.map (function D -> Dir | F i -> File (Hashtbl.find sim.data i)) sim.vol

(* The durable lengths a file may have: its synced length, the end of
   every later write and every 4 KiB boundary in between. *)
let lengths ~full sim i =
  let synced = Hashtbl.find sim.synced i in
  match Hashtbl.find sim.ends i with
  | [] -> [ synced ]
  | last :: _ as ends when full ->
      let blocks =
        List.init ((last / 4096) - (synced / 4096)) (fun k ->
            ((synced / 4096) + k + 1) * 4096)
      in
      List.sort_uniq compare ((synced :: ends) @ List.filter (( > ) last) blocks)
  | last :: _ -> [ synced; last ]

let rec prefixes = function
  | [] -> [ [] ]
  | x :: rest -> [] :: List.map (fun p -> x :: p) (prefixes rest)

let rec product = function
  | [] -> [ [] ]
  | choices :: rest ->
      let tails = product rest in
      List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices

(* Every disk image a crash at this point of the trace may leave. *)
let crash_images ~full sim =
  let dirs =
    List.sort_uniq compare (List.map fst sim.pending)
    |> List.map (fun d ->
           let ops =
             List.rev
               (List.filter_map
                  (fun (d', c) -> if d' = d then Some c else None)
                  sim.pending)
           in
           let ps = prefixes ops in
           if full then ps else [ []; ops ])
  in
  List.concat_map
    (fun choice ->
      let ns = List.fold_left (List.fold_left apply_changes) sim.dur choice in
      (* an entry survives only under a surviving directory *)
      let ns =
        M.fold
          (fun p e kept ->
            if parent p = "." || M.find_opt (parent p) kept = Some D then
              M.add p e kept
            else kept)
          ns M.empty
      in
      let files =
        M.fold (fun p e acc -> match e with F i -> (p, i) :: acc | D -> acc) ns []
      in
      product
        (List.map
           (fun (p, i) ->
             List.map (fun n -> (p, n, i)) (lengths ~full sim i))
           files)
      |> List.map (fun lens ->
             List.fold_left
               (fun img (p, n, i) ->
                 M.add p (File (String.sub (Hashtbl.find sim.data i) 0 n)) img)
               (M.map (fun _ -> Dir) (M.filter (fun _ e -> e = D) ns))
               lens))
    (product dirs)

(* ------------------------------------------------------------------ *)
(* Checking one crash state                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let rec collect n f k =
  if k = n then Ok []
  else
    let* x = f k in
    let* rest = collect n f (k + 1) in
    Ok (x :: rest)

let close ws =
  Array.iter (fun s -> Wal.close s.W.s_wal) ws.W.shards;
  Option.iter Wal.close ws.W.coord

let protect f = try f () with Sys_error e | Failure e -> Error e

(* The CA must not issue a serial a participant already holds. *)
let check_serials ws =
  match ws.W.participants with
  | [] -> Ok ()
  | (_, p) :: _ ->
      let serial p = (Participant.certificate p).Tep_crypto.Pki.serial in
      let held = List.map (fun (_, p) -> serial p) ws.W.participants in
      let next =
        (Tep_crypto.Pki.issue ws.W.ca ~subject:"probe" (Participant.public_key p))
          .Tep_crypto.Pki.serial
      in
      if List.length (List.sort_uniq compare (next :: held)) = List.length held + 1
      then Ok ()
      else Error (Printf.sprintf "duplicate serial: the CA would issue serial %d again" next)

(* Everything a verb may acknowledge, as (what, value) pairs, once
   the state has verified: every shard's root and whole store, every
   saved annotation, and an incremental audit against each audit
   checkpoint (a checkpoint ahead of its store would report a rewrite
   that never happened). *)
let observe ws =
  let n = Array.length ws.W.shards in
  let shard k = ws.W.shards.(k).W.s_engine in
  let* audits =
    collect n
      (fun k ->
        let prov = Engine.provstore (shard k) in
        let* () =
          if Provstore.record_count prov = 0 then Ok ()
          else
            match Shards.verify_shard ~pool:(W.pool ()) ~shards:n (shard k) with
            | Ok (Some (report, audit)) when not (Verifier.ok report && Verifier.ok audit)
              ->
                Error "the loaded state does not verify"
            | Ok _ -> Ok ()
            | Error e -> Error ("the loaded state does not verify: " ^ e)
        in
        let path = ws.W.shards.(k).W.s_dir // "audit.ckpt" in
        if not (Sys.file_exists path) then Ok "-"
        else
          let* cp =
            Audit.of_string (Durable.read path)
            |> Result.map_error (fun e -> "audit.ckpt: " ^ e)
          in
          let report, _, _ = Audit.incremental_audit ~directory:ws.W.directory cp prov in
          if Verifier.ok report then Ok (string_of_int (Audit.objects cp))
          else Error "an audit against audit.ckpt reports tampering")
      0
  in
  let annots = W.annot_path ws.W.dir in
  let* nannots =
    if not (Sys.file_exists annots) then Ok 0
    else
      let* l = Tep_prov.Annot.list_of_string (Durable.read annots) in
      if List.for_all (fun a -> Tep_prov.Annot.verify ws.W.directory a = Ok ()) l
      then Ok (List.length l)
      else Error "a saved annotation does not verify"
  in
  let* () = check_serials ws in
  let records =
    Array.fold_left
      (fun acc s -> acc + Provstore.record_count (Engine.provstore s.W.s_engine))
      0 ws.W.shards
  in
  Ok
    [
      ("root", Tep_crypto.Digest_algo.to_hex (W.published_root ws));
      ("participants", String.concat "," (List.map fst ws.W.participants));
      ("records", string_of_int records);
      ("annotations", string_of_int nannots);
      ("audited objects", String.concat "," audits);
    ]

let show o = String.concat ", " (List.map (fun (k, v) -> k ^ " " ^ v) o)

(* Load, or else recover and load; then observe. *)
let settle dir =
  let observed ws =
    let o = protect (fun () -> observe ws) in
    close ws;
    o
  in
  match protect (fun () -> W.load dir) with
  | Ok ws -> observed ws |> Result.map_error (fun e -> "the loaded workspace fails: " ^ e)
  | Error load_error -> (
      match protect (fun () -> W.recover dir) with
      | Error e ->
          Error
            (Printf.sprintf "unrecoverable workspace (load: %s; recover: %s)"
               load_error e)
      | Ok _ -> (
          match protect (fun () -> W.load dir) with
          | Error e -> Error ("the recovered workspace does not load: " ^ e)
          | Ok ws ->
              observed ws
              |> Result.map_error (fun e -> "the recovered workspace fails: " ^ e)))

(* ------------------------------------------------------------------ *)
(* Cases                                                               *)
(* ------------------------------------------------------------------ *)

type case = {
  name : string;
  base : string;  (* the image the case starts from *)
  setup : string -> unit;  (* untraced, on the workspace directory *)
  verb : start:(unit -> unit) -> string -> unit;
      (* traced from [start ()] on; every verb but the drain starts
         before it loads *)
  acked_at_start : bool;
      (* the writes were acknowledged before the trace: only the state
         after the verb is acceptable *)
  reinit : int option;
      (* init's shard count: a crash state without a CA must init again *)
}

let drbg = Tep_crypto.Drbg.create ~seed:"durable-enumerator"
let ca = Tep_crypto.Pki.create_ca ~name:"provdb CA" drbg

let with_ws dir f =
  let ws = ok (W.load dir) in
  Fun.protect ~finally:(fun () -> close ws) (fun () -> f ws)

let alice ws = List.assoc "alice" ws.W.participants

let engine ws table =
  ws.W.shards.(Shards.shard_of_table ~shards:(Array.length ws.W.shards) table)
    .W.s_engine

let insert ws table a =
  ignore
    (ok (Engine.insert_row (engine ws table) (alice ws) ~table [| Value.Int a; Value.Int (a * a) |]))

let write_rows dir rows =
  with_ws dir (fun ws ->
      List.iter (fun (table, a) -> insert ws table a) rows;
      ok (W.save ws))

(* `provdb init` past its key generation, with tables t and u of two
   int columns and a table doc of one text column. *)
let init ~shards dir =
  let dbs = Array.init shards (fun _ -> Database.create ~name:(Filename.basename dir)) in
  let text = Schema.make [ { Schema.name = "body"; ty = Value.TText; nullable = false } ] in
  List.iter
    (fun (name, schema) ->
      let k = Shards.shard_of_table ~shards name in
      ignore (ok (Database.create_table dbs.(k) ~name schema)))
    [ ("t", Schema.all_int [ "a"; "b" ]); ("u", Schema.all_int [ "a"; "b" ]); ("doc", text) ];
  Result.map close (W.init dir ~ca dbs)

let participant name dir =
  with_ws dir (fun ws ->
      ok (W.add_participant ws (Participant.create ~ca:ws.W.ca ~name drbg));
      ok (W.save ws))

(* A CLI verb: load, act, and (with [save]) save. *)
let verb ?(save = true) f ~start dir =
  start ();
  with_ws dir (fun ws ->
      f ws;
      if save then ok (W.save ws))

let case ?(setup = ignore) ?(base = "one shard") ?(acked_at_start = false) name verb =
  { name; base; setup; verb; acked_at_start; reinit = None }

let init_case name shards =
  {
    (case ~base:"empty" name (fun ~start dir -> start (); ok (init ~shards dir))) with
    reinit = Some shards;
  }

let annotate ws =
  let e = engine ws "t" in
  let tbl = Option.get (Database.get_table (Engine.backend e) "t") in
  match
    Tep_prov.Annotate.query
      ~var:(Tep_prov.Annotate.row_var (Engine.mapping e) "t")
      tbl ~where:"a > 0" ~agg:(Some "sum(b)")
  with
  | Error _ -> Alcotest.fail "annotated query"
  | Ok q ->
      Tep_prov.Annot.make ~id:"a1" ~table:"t"
        ~pred:(Query.pred_to_string q.Tep_prov.Annotate.q_pred)
        ~agg:"sum(b)"
        ~rows:(List.map (fun (_, v, poly) -> (v, poly)) q.Tep_prov.Annotate.q_rows)
        ~value:q.Tep_prov.Annotate.q_value ~root:(W.published_root ws) (alice ws)

let cases =
  [
    init_case "init" 1;
    init_case "init, 2 shards" 2;
    case "participant" (fun ~start dir -> start (); participant "bob" dir);
    case "insert" (verb (fun ws -> insert ws "t" 7));
    (* a WAL write of three 4 KiB blocks, which the full bound tears *)
    case "insert, 10 KiB value"
      (verb (fun ws ->
           ignore
             (ok
                (Engine.insert_row (engine ws "doc") (alice ws) ~table:"doc"
                   [| Value.Text (String.make 10_000 'x') |]))));
    case "update"
      ~setup:(fun d -> write_rows d [ ("t", 1) ])
      (verb (fun ws ->
           ok (Engine.update_cell (engine ws "t") (alice ws) ~table:"t" ~row:0 ~col:1
                 (Value.Int 2))));
    case "delete"
      ~setup:(fun d -> write_rows d [ ("t", 1); ("t", 2) ])
      (verb (fun ws -> ok (Engine.delete_row (engine ws "t") (alice ws) ~table:"t" 0)));
    case "audit"
      ~setup:(fun d -> write_rows d [ ("t", 1) ])
      (verb ~save:false (fun ws -> ignore (ok (W.audit ws))));
    case "prune"
      ~setup:(fun d ->
        write_rows d [ ("t", 1); ("t", 2) ];
        with_ws d (fun ws ->
            ok (Engine.delete_row (engine ws "t") (alice ws) ~table:"t" 0);
            ignore (ok (W.audit ws));
            ok (W.save ws)))
      (verb ~save:false (fun ws -> ignore (ok (W.prune ws))));
    case "lineage select --save"
      ~setup:(fun d -> write_rows d [ ("t", 1); ("t", 2) ])
      (verb ~save:false (fun ws -> ignore (ok (W.save_annotation ws (annotate ws)))));
    case "checkpoint"
      ~setup:(fun d -> write_rows d [ ("t", 1) ])
      (verb ~save:false (fun ws ->
           ignore (ok (Shards.checkpoint_all ~coord:ws.W.coord (W.durable ws)))));
    (* a session that crashed after its commit, before its save *)
    case "recover" ~acked_at_start:true
      ~setup:(fun d -> with_ws d (fun ws -> insert ws "t" 3))
      (fun ~start dir -> start (); ignore (ok (W.recover dir)));
    (* provdbd's drain: commits flushed to the WAL and acknowledged,
       then the save *)
    case "daemon drain-save" ~acked_at_start:true (fun ~start dir ->
        with_ws dir (fun ws ->
            insert ws "t" 4;
            ok (Engine.update_cell (engine ws "t") (alice ws) ~table:"t" ~row:0 ~col:0
                  (Value.Int 5));
            start ();
            ok (W.save ws)));
    case "daemon drain-save, 2 shards" ~base:"two shards" ~acked_at_start:true
      (fun ~start dir ->
        with_ws dir (fun ws ->
            insert ws "t" 6;
            insert ws "u" 6;
            start ();
            ok (W.save ws)));
    (* t and u live on different shards: a two-phase commit whose
       decision sits in coord.wal until every shard is checkpointed *)
    case "daemon drain-save, cross-shard commit" ~base:"two shards" ~acked_at_start:true
      (fun ~start dir ->
        with_ws dir (fun ws ->
            let part table =
              {
                Shards.p_shard = Shards.shard_of_table ~shards:2 table;
                p_engine = engine ws table;
                p_by = alice ws;
                p_body =
                  (fun () ->
                    Result.map ignore
                      (Engine.insert_row (engine ws table) (alice ws) ~table
                         [| Value.Int 8; Value.Int 64 |]));
              }
            in
            ignore
              (ok (Shards.commit_cross ~coord:(Option.get ws.W.coord) ~txid:"tx" [ part "t"; part "u" ]));
            start ();
            ok (W.save ws)));
  ]

(* ------------------------------------------------------------------ *)
(* The enumerator                                                      *)
(* ------------------------------------------------------------------ *)

let tmp_root =
  let d = Filename.temp_file "tep_durable" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  at_exit (fun () -> rm_rf d);
  d

let bases =
  lazy
    (let build name f =
       let root = tmp_root // "base" in
       rm_rf root;
       Unix.mkdir root 0o755;
       f (root // "ws");
       (name, snapshot root)
     in
     [
       ("empty", M.empty);
       build "one shard" (fun ws -> ok (init ~shards:1 ws); participant "alice" ws);
       build "two shards" (fun ws -> ok (init ~shards:2 ws); participant "alice" ws);
     ])

let relative root p =
  if p = root then Some "."
  else
    let pre = root ^ "/" in
    if String.starts_with ~prefix:pre p then
      Some (String.sub p (String.length pre) (String.length p - String.length pre))
    else None

let map_op f = function
  | Fault.Create p -> Option.map (fun p -> Fault.Create p) (f p)
  | Fault.Write (p, s) -> Option.map (fun p -> Fault.Write (p, s)) (f p)
  | Fault.Fsync p -> Option.map (fun p -> Fault.Fsync p) (f p)
  | Fault.Rename (a, b) -> (
      match (f a, f b) with Some a, Some b -> Some (Fault.Rename (a, b)) | _ -> None)
  | Fault.Unlink p -> Option.map (fun p -> Fault.Unlink p) (f p)
  | Fault.Mkdir p -> Option.map (fun p -> Fault.Mkdir p) (f p)
  | Fault.Dir_fsync p -> Option.map (fun p -> Fault.Dir_fsync p) (f p)

type result = { ops : int; states : int; failures : (int * string) list }

(* Run [c] traced, then check every distinct crash state. *)
let enumerate ~full c =
  let run = tmp_root // "run" and check = tmp_root // "check" in
  materialize run (List.assoc c.base (Lazy.force bases));
  c.setup (run // "ws");
  let image0 = ref M.empty and trace = ref [] in
  let start () =
    image0 := snapshot run;
    Fault.recorder := Some (fun op -> trace := op :: !trace)
  in
  Fun.protect
    ~finally:(fun () -> Fault.recorder := None)
    (fun () -> c.verb ~start (run // "ws"));
  let trace = List.filter_map (map_op (relative run)) (List.rev !trace) in
  let final = snapshot run in
  (* the crash states, each with the trace position it follows *)
  let sim = of_image !image0 in
  let seen = Hashtbl.create 256 and states = ref [] in
  let visit point =
    List.iter
      (fun img ->
        let acked = point = List.length trace in
        let key = Digest.string (Marshal.to_string (acked, M.bindings img) []) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          states := (point, acked, img) :: !states
        end)
      (crash_images ~full sim)
  in
  visit 0;
  List.iteri (fun i op -> step sim op; visit (i + 1)) trace;
  if not (M.equal ( = ) (volatile_image sim) final) then
    Alcotest.failf "%s: replaying the trace does not give the files the run left" c.name;
  let observe_image img =
    materialize check img;
    settle (check // "ws")
  in
  let after = ok (observe_image final) in
  let before =
    if c.acked_at_start || c.reinit <> None then None
    else Some (ok (observe_image !image0))
  in
  let failures =
    List.filter_map
      (fun (point, acked, img) ->
        materialize check img;
        let ws = check // "ws" in
        let outcome =
          match c.reinit with
          | Some shards when not (Sys.file_exists (ws // "ca")) -> (
              match protect (fun () -> init ~shards ws) with
              | Error e -> Error ("init does not run again: " ^ e)
              | Ok () -> settle ws)
          | _ -> settle ws
        in
        (* before the verb returned, each part may hold either side *)
        let holds o =
          List.for_all2
            (fun (k, v) (_, a) ->
              v = a
              || ((not acked)
                 && Option.fold ~none:false ~some:(fun b -> v = List.assoc k b) before))
            o after
        in
        match outcome with
        | Error e -> Some (point, e)
        | Ok o when holds o -> None
        | Ok o ->
            Some
              ( point,
                Printf.sprintf "lost an acknowledged write: the state holds %s, not %s"
                  (show o) (show after) ))
      (List.rev !states)
  in
  { ops = List.length trace; states = List.length !states; failures }

let run_case ~full c () =
  let t0 = Unix.gettimeofday () in
  let r = enumerate ~full c in
  Printf.printf "%s: %d ops, %d distinct crash states, %d failing, %.2f s\n%!" c.name
    r.ops r.states (List.length r.failures)
    (Unix.gettimeofday () -. t0);
  match r.failures with
  | [] -> ()
  | fs ->
      List.iteri
        (fun i (point, e) -> if i < 5 then Printf.printf "  after op %d: %s\n" point e)
        fs;
      Alcotest.failf "%s: %d crash state(s) fail; the first after op %d: %s" c.name
        (List.length fs) (fst (List.hd fs)) (snd (List.hd fs))

let () =
  let group full =
    List.map (fun c -> Alcotest.test_case c.name `Quick (run_case ~full c)) cases
  in
  Alcotest.run "durable" [ ("small", group false); ("full", group true) ]
