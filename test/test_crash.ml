(* Crash-point enumeration: simulate a process crash at EVERY
   registered failpoint site (WAL append/flush/sync/truncate, snapshot
   open/write/sync/rename), then recover and assert that

   - recovery succeeds from what is on disk,
   - the recovered root hash matches the last committed provenance
     record (report.hash_verified),
   - recipient-side verification of the root object passes, and
   - the recovered engine accepts new operations.

   Torn-write and bit-flip variants exercise the salvage path the same
   way.  Everything is deterministic: participants come from a fixed
   DRBG seed and fault ordinals are explicit.  A property test then
   checks that recovery rebuilds exactly the state a live engine
   reached, for random op sequences with the checkpoint anywhere. *)
open Tep_store
open Tep_tree
open Tep_core
module Fault = Tep_fault.Fault

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* One CA / participant set for every scenario (keygen is the slow
   part and the directory is read-only for the engine). *)
let drbg = Tep_crypto.Drbg.create ~seed:"crash-harness"
let ca = Tep_crypto.Pki.create_ca ~name:"CA" drbg

let directory =
  Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)

let alice = Participant.create ~ca ~name:"alice" drbg
let () = Participant.Directory.register directory alice

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_workdir f =
  let dir = Filename.temp_file "tep_crash" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      try rm_rf dir with Sys_error _ -> ())
    (fun () -> f dir)

(* Aggregate the first two rows of "t", then aggregate over a copy
   inside that aggregate.  The copy has no record yet, so the second
   aggregate signs an Import for it mid-body.  Both allocate oids, so
   a later insert lands where it did only if recovery redoes them. *)
let aggregate_twice eng =
  let forest = Engine.forest eng in
  let table = Option.get (Tree_view.table_oid (Engine.mapping eng) "t") in
  match Forest.children forest table with
  | r0 :: r1 :: _ ->
      let agg = ok (Engine.aggregate_objects eng alice [ r0; r1 ]) in
      let copy = List.hd (Forest.children forest agg) in
      ignore
        (ok
           (Engine.aggregate_objects eng alice ~value:(Value.Text "nested")
              [ copy ]))
  | _ -> Alcotest.fail "aggregate_twice: fewer than two rows"

(* Phase A: build a baseline workload and checkpoint it cleanly, so
   every scenario starts from a recoverable on-disk state. *)
let build_baseline dir =
  let wal = Wal.open_file (Filename.concat dir "wal.log") in
  let db = Database.create ~name:"crashdb" in
  let eng = Engine.create ~wal ~directory db in
  ok (Engine.create_table eng alice ~name:"t" (Schema.all_int [ "a"; "b" ]));
  for i = 1 to 3 do
    ignore (ok (Engine.insert_row eng alice ~table:"t" [| Value.Int i; Value.Int (i * i) |]))
  done;
  ignore (ok (Recovery.checkpoint ~dir ~wal eng));
  (* committed-but-not-checkpointed ops, so recovery always has a WAL
     tail to replay *)
  aggregate_twice eng;
  ignore (ok (Engine.insert_row eng alice ~table:"t" [| Value.Int 10; Value.Int 100 |]));
  Wal.close wal

(* Phase B: recover, operate, checkpoint mid-script, operate more.
   With a fault armed this can die (Fault.Crash) at any point —
   including inside recovery itself. *)
let faulted_workload dir =
  let eng, wal, _report = ok (Recovery.recover ~dir ~directory ()) in
  let r1 = ok (Engine.insert_row eng alice ~table:"t" [| Value.Int 20; Value.Int 400 |]) in
  ok (Engine.update_cell eng alice ~table:"t" ~row:r1 ~col:1 (Value.Int 401));
  ignore (ok (Recovery.checkpoint ~dir ~wal eng));
  aggregate_twice eng;
  let r2 = ok (Engine.insert_row eng alice ~table:"t" [| Value.Int 30; Value.Int 900 |]) in
  ok (Engine.delete_row eng alice ~table:"t" r2);
  ok (Engine.update_cell eng alice ~table:"t" ~row:r1 ~col:0 (Value.Int 21))

(* After the crash (or clean completion) the disk state must recover
   to a verified engine that accepts new work. *)
let assert_recoverable name dir =
  Fault.reset ();
  let eng, wal, report = ok (Recovery.recover ~dir ~directory ()) in
  if not report.Recovery.hash_verified then
    Alcotest.failf "%s: root hash cross-check failed:@ %a" name
      Recovery.pp_report report;
  (* every tree: the database and each aggregate *)
  List.iter
    (fun root ->
      let vreport = ok (Engine.verify_object eng root) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s verifies" name (Oid.to_string root))
        true (Verifier.ok vreport))
    (Forest.roots (Engine.forest eng));
  let r = ok (Engine.insert_row eng alice ~table:"t" [| Value.Int 77; Value.Int 5929 |]) in
  ok (Engine.delete_row eng alice ~table:"t" r);
  Wal.close wal

let run_scenario name arm_faults =
  with_workdir (fun dir ->
      build_baseline dir;
      Fault.seed name;
      arm_faults ();
      let crashed =
        match faulted_workload dir with
        | () -> false
        | exception Fault.Crash _ -> true
        (* an armed Transient that outlives the retry budget surfaces
           as Error -> Alcotest.fail; those are not armed here *)
      in
      ignore crashed;
      assert_recoverable name dir)

(* Crash at every registered site, at the first and a later hit.  The
   site list is taken from the registry itself so a newly added
   failpoint is covered automatically. *)
let test_crash_every_site () =
  let sites = Fault.sites () in
  Alcotest.(check bool)
    (Printf.sprintf "failpoints registered (%d)" (List.length sites))
    true
    (List.length sites >= 10);
  List.iter
    (fun site ->
      List.iter
        (fun after ->
          let name = Printf.sprintf "crash:%s:#%d" site after in
          run_scenario name (fun () -> Fault.arm ~after site Fault.Crash_point))
        [ 1; 3 ])
    sites

(* Torn writes at the data-shaping sites: a prefix of the frame (or
   snapshot) reaches the disk, then the process dies. *)
let test_torn_writes () =
  List.iter
    (fun (site, frac) ->
      let name = Printf.sprintf "torn:%s:%.2f" site frac in
      run_scenario name (fun () -> Fault.arm site (Fault.Torn_write frac)))
    [
      ("wal.append.frame", 0.3);
      ("wal.append.frame", 0.9);
      ("wal.truncate.write", 0.5);
      ("snapshot.save.write", 0.5);
    ]

(* Bit flips: the write completes but one bit is wrong.  The WAL frame
   CRC (or snapshot trailer / checkpoint trailer) must catch it and
   recovery must carry on from the surviving state. *)
let test_bit_flips () =
  List.iter
    (fun site ->
      let name = "flip:" ^ site in
      run_scenario name (fun () -> Fault.arm site Fault.Bit_flip))
    [ "wal.append.frame"; "wal.truncate.write"; "snapshot.save.write" ]

(* Transient I/O errors within the retry budget are absorbed: the
   workload completes as if nothing happened. *)
let test_transients_absorbed () =
  List.iter
    (fun site ->
      run_scenario ("transient:" ^ site)
        (fun () -> Fault.arm site (Fault.Transient 2)))
    [ "wal.append.frame"; "wal.flush"; "snapshot.save.write" ]

(* The newest checkpoint generation is corrupted on disk: recovery
   must fall back to the previous generation and report the
   rejection. *)
let test_generation_fallback () =
  with_workdir (fun dir ->
      build_baseline dir;
      (* a second generation so there is something to fall back to *)
      let eng, wal, _ = ok (Recovery.recover ~dir ~directory ()) in
      let r = ok (Engine.insert_row eng alice ~table:"t" [| Value.Int 50; Value.Int 2500 |]) in
      ignore r;
      let gen = ok (Recovery.checkpoint ~dir ~wal eng) in
      Wal.close wal;
      (* smash the newest generation file *)
      let path = Recovery.generation_path ~dir gen in
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string s in
      let mid = Bytes.length b / 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      let eng2, wal2, report = ok (Recovery.recover ~dir ~directory ()) in
      Alcotest.(check int) "one rejected generation" 1
        (List.length report.Recovery.rejected);
      Alcotest.(check bool) "older generation used" true
        (report.Recovery.generation < gen);
      (* the fallback generation is older than the smashed one, so the
         row committed after it is gone — but the state still verifies *)
      Alcotest.(check bool) "hash verified" true report.Recovery.hash_verified;
      let vreport = ok (Engine.verify_object eng2 (Engine.root_oid eng2)) in
      Alcotest.(check bool) "root verifies" true (Verifier.ok vreport);
      Wal.close wal2)

(* Uncommitted WAL frames (no commit marker) are rolled back, and a
   second recovery does not resurrect them. *)
let test_uncommitted_rollback () =
  with_workdir (fun dir ->
      build_baseline dir;
      let eng, wal, _ = ok (Recovery.recover ~dir ~directory ()) in
      let rows_before =
        Table.row_count (Database.get_table_exn (Engine.backend eng) "t")
      in
      (* forge a mid-operation crash: relational frames with no commit *)
      (match Wal.append wal (Wal.Insert_row ("t", 99, [| Value.Int 1; Value.Int 2 |])) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (match Wal.sync wal with Ok () -> () | Error e -> Alcotest.fail e);
      Wal.close wal;
      let eng2, wal2, report = ok (Recovery.recover ~dir ~directory ()) in
      Alcotest.(check bool) "frames dropped" true
        (report.Recovery.frames_dropped >= 1);
      Alcotest.(check int) "uncommitted insert rolled back" rows_before
        (Table.row_count (Database.get_table_exn (Engine.backend eng2) "t"));
      Alcotest.(check bool) "hash verified" true report.Recovery.hash_verified;
      Wal.close wal2;
      (* second recovery: the rolled-back frame must not resurface *)
      let eng3, wal3, report2 = ok (Recovery.recover ~dir ~directory ()) in
      Alcotest.(check int) "still rolled back" rows_before
        (Table.row_count (Database.get_table_exn (Engine.backend eng3) "t"));
      Alcotest.(check bool) "2nd recovery verified" true
        report2.Recovery.hash_verified;
      Wal.close wal3)

(* ------------------------------------------------------------------ *)
(* Property: recovery rebuilds the live engine's state                 *)
(* ------------------------------------------------------------------ *)

type prop_op =
  | Create
  | Insert of int
  | Update of int * int
  | Delete of int
  | Aggregate of int * int

let pp_prop_op = function
  | Create -> "create"
  | Insert i -> Printf.sprintf "insert %d" i
  | Update (i, v) -> Printf.sprintf "update %d %d" i v
  | Delete i -> Printf.sprintf "delete %d" i
  | Aggregate (i, j) -> Printf.sprintf "aggregate %d %d" i j

(* ops, and how many of them run before the checkpoint *)
let gen_prop_case =
  QCheck2.Gen.(
    list_size (int_range 1 10)
      (frequency
         [
           (1, return Create);
           (3, map (fun i -> Insert i) (int_range 0 99));
           (2, map2 (fun i v -> Update (i, v)) (int_range 0 99) (int_range 0 999));
           (1, map (fun i -> Delete i) (int_range 0 99));
           (2, map2 (fun i j -> Aggregate (i, j)) (int_range 0 999) (int_range 0 999));
         ])
    >>= fun ops -> map (fun k -> (ops, k)) (int_range 0 (List.length ops)))

let print_prop_case (ops, k) =
  Printf.sprintf "checkpoint after %d of [%s]" k
    (String.concat "; " (List.map pp_prop_op ops))

(* Each op picks its target from the live state, so every op applies.
   A database starts with one table, so inserts have somewhere to go. *)
let run_prop_op eng op =
  let db = Engine.backend eng in
  let forest = Engine.forest eng in
  let rows () =
    List.concat_map
      (fun name ->
        let acc = ref [] in
        Table.iter
          (fun r -> acc := (name, r.Table.id) :: !acc)
          (Database.get_table_exn db name);
        List.rev !acc)
      (Database.table_names db)
  in
  let pick l i = List.nth l (i mod List.length l) in
  match op with
  | Create ->
      let name = Printf.sprintf "t%d" (List.length (Database.table_names db)) in
      ok (Engine.create_table eng alice ~name (Schema.all_int [ "a"; "b" ]))
  | Insert i ->
      let table = pick (Database.table_names db) i in
      ignore
        (ok (Engine.insert_row eng alice ~table [| Value.Int i; Value.Int (i * i) |]))
  | Update (i, v) -> (
      match rows () with
      | [] -> ()
      | l ->
          let table, row = pick l i in
          ok (Engine.update_cell eng alice ~table ~row ~col:(v mod 2) (Value.Int v)))
  | Delete i -> (
      match rows () with
      | [] -> ()
      | l ->
          let table, row = pick l i in
          ok (Engine.delete_row eng alice ~table row))
  | Aggregate (i, j) ->
      let live =
        List.concat_map
          (fun root ->
            let acc = ref [] in
            Forest.iter_preorder forest root (fun o _ -> acc := o :: !acc);
            List.rev !acc)
          (Forest.roots forest)
      in
      let inputs = List.sort_uniq Oid.compare [ pick live i; pick live j ] in
      ignore (ok (Engine.aggregate_objects eng alice inputs))

let encoded f x =
  let buf = Buffer.create 4096 in
  f buf x;
  Buffer.contents buf

let prop_recover_rebuilds =
  QCheck2.Test.make ~name:"recover = live engine" ~count:30
    ~print:print_prop_case gen_prop_case (fun (ops, k) ->
      with_workdir (fun dir ->
          let wal = Wal.open_file (Filename.concat dir "wal.log") in
          let db = Database.create ~name:"propdb" in
          let eng = Engine.create ~wal ~directory db in
          ok (Engine.create_table eng alice ~name:"t0" (Schema.all_int [ "a"; "b" ]));
          List.iteri
            (fun i op ->
              if i = k then ignore (ok (Recovery.checkpoint ~dir ~wal eng));
              run_prop_op eng op)
            ops;
          if k = List.length ops then
            ignore (ok (Recovery.checkpoint ~dir ~wal eng));
          (* the live state; then the engine is dropped unsaved *)
          let root = Engine.root_hash eng in
          let forest = encoded Forest.encode (Engine.forest eng) in
          let view = encoded Tree_view.encode (Engine.mapping eng) in
          Wal.close wal;
          let eng2, wal2, report = ok (Recovery.recover ~dir ~directory ()) in
          Wal.close wal2;
          if not report.Recovery.hash_verified then
            QCheck2.Test.fail_reportf "cross-check failed:@ %a"
              Recovery.pp_report report;
          String.equal root (Engine.root_hash eng2)
          && String.equal forest (encoded Forest.encode (Engine.forest eng2))
          && String.equal view
               (encoded Tree_view.encode (Engine.mapping eng2))))

let () =
  Alcotest.run "crash"
    [
      ( "enumeration",
        [
          Alcotest.test_case "crash at every site" `Quick
            test_crash_every_site;
          Alcotest.test_case "torn writes" `Quick test_torn_writes;
          Alcotest.test_case "bit flips" `Quick test_bit_flips;
          Alcotest.test_case "transients absorbed" `Quick
            test_transients_absorbed;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "generation fallback" `Quick
            test_generation_fallback;
          Alcotest.test_case "uncommitted rollback" `Quick
            test_uncommitted_rollback;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_recover_rebuilds ]);
    ]
