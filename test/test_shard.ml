(* Sharded-forest tests: routing determinism, the Merkle
   root-of-roots, the cross-shard two-phase commit protocol (including
   crash-point enumeration over every interleaving of shard flushes),
   server-side shard routing, concurrent per-shard pipelined clients
   against a serial re-execution, per-shard root publication (also in
   the window after a cross-shard commit unlocks), and the adaptive
   pool work-size gate.

   Everything is deterministic: participants come from fixed DRBG
   seeds, fault ordinals are explicit, and the engine emits no
   wall-clock state into records — so "sharded execution equals a
   serial re-execution of the same op stream" can be asserted as
   byte-identical root-of-roots. *)
open Tep_store
open Tep_core
module Fault = Tep_fault.Fault
module Merkle = Tep_tree.Merkle
module Pool = Tep_parallel.Pool
module Message = Tep_wire.Message
module Server = Tep_server.Server
module Client = Tep_client.Client

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let drbg = Tep_crypto.Drbg.create ~seed:"shard-harness"
let ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"CA" drbg

let directory =
  Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)

let alice = Participant.create ~bits:512 ~ca ~name:"alice" drbg
let () = Participant.Directory.register directory alice

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_workdir f =
  let dir = Filename.temp_file "tep_shard" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      try rm_rf dir with Sys_error _ -> ())
    (fun () -> f dir)

(* The first table name of the form tN that the stable hash routes to
   shard [k] — lets the tests address a specific shard without
   hard-coding hash values. *)
let table_for_shard ~shards k =
  let rec go i =
    let name = Printf.sprintf "t%d" i in
    if Shards.shard_of_table ~shards name = k then name else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let test_routing_stable () =
  (* same inputs, same answers, forever: the shard map is durable *)
  List.iter
    (fun shards ->
      List.iter
        (fun name ->
          let a = Shards.shard_of_table ~shards name in
          let b = Shards.shard_of_table ~shards name in
          Alcotest.(check int) (Printf.sprintf "%s/%d stable" name shards) a b;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d in range" name shards)
            true
            (a >= 0 && a < shards))
        [ "stock"; "orders"; "t0"; "t1"; ""; "a-very-long-table-name" ])
    [ 1; 2; 4; 8; 64 ];
  (* 1 shard routes everything to 0 *)
  Alcotest.(check int) "1 shard" 0 (Shards.shard_of_table ~shards:1 "anything")

let test_routing_spreads () =
  (* 100 synthetic names over 4 shards: every shard owns at least one
     (the hash is not degenerate) *)
  let seen = Array.make 4 0 in
  for i = 0 to 99 do
    let k = Shards.shard_of_table ~shards:4 (Printf.sprintf "table_%d" i) in
    seen.(k) <- seen.(k) + 1
  done;
  Array.iteri
    (fun k n ->
      Alcotest.(check bool) (Printf.sprintf "shard %d non-empty" k) true (n > 0))
    seen

let test_routing_overrides () =
  let overrides = [ ("hot", 3); ("bogus", 99) ] in
  Alcotest.(check int) "pinned" 3
    (Shards.shard_of_table ~shards:4 ~overrides "hot");
  (* out-of-range pin falls back to the hash *)
  Alcotest.(check int) "bad pin ignored"
    (Shards.shard_of_table ~shards:4 "bogus")
    (Shards.shard_of_table ~shards:4 ~overrides "bogus")

(* ------------------------------------------------------------------ *)
(* Root-of-roots                                                       *)
(* ------------------------------------------------------------------ *)

let algo = Tep_crypto.Digest_algo.SHA1

let test_root_of_roots () =
  let r1 = Merkle.root_of_roots algo [ "aaaa"; "bbbb" ] in
  let r2 = Merkle.root_of_roots algo [ "aaaa"; "bbbb" ] in
  Alcotest.(check string) "deterministic" r1 r2;
  Alcotest.(check bool) "order matters" true
    (r1 <> Merkle.root_of_roots algo [ "bbbb"; "aaaa" ]);
  Alcotest.(check bool) "length-prefixed (no concat ambiguity)" true
    (Merkle.root_of_roots algo [ "ab"; "c" ]
    <> Merkle.root_of_roots algo [ "a"; "bc" ]);
  Alcotest.(check bool) "domain-separated from the raw hash" true
    (Merkle.root_of_roots algo [ "aaaa" ] <> "aaaa");
  Alcotest.(check bool) "arity matters" true
    (Merkle.root_of_roots algo [ "aaaa" ]
    <> Merkle.root_of_roots algo [ "aaaa"; "aaaa" ]);
  (* the published root: one shard's root verbatim (byte-compatible
     with an unsharded engine), several combined *)
  Alcotest.(check string) "one root published verbatim" "aaaa"
    (Shards.published_root algo [ "aaaa" ]);
  Alcotest.(check string) "several roots combined" r1
    (Shards.published_root algo [ "aaaa"; "bbbb" ])

(* The same op stream, executed (a) sharded with interleaved arrivals
   and (b) sharded with grouped arrivals, yields byte-identical
   per-shard roots and root-of-roots — commit order within a shard is
   what matters, not global interleaving. *)
let make_engine table =
  let db = Database.create ~name:"sharddb" in
  let eng = Engine.create ~directory db in
  ok (Engine.create_table eng alice ~name:table (Schema.all_int [ "a"; "b" ]));
  eng

let test_sharded_vs_serial_roots () =
  let t0 = table_for_shard ~shards:2 0 and t1 = table_for_shard ~shards:2 1 in
  let run interleaved =
    let e0 = make_engine t0 and e1 = make_engine t1 in
    let ops =
      if interleaved then [ (e0, t0, 1); (e1, t1, 2); (e0, t0, 3); (e1, t1, 4) ]
      else [ (e0, t0, 1); (e0, t0, 3); (e1, t1, 2); (e1, t1, 4) ]
    in
    List.iter
      (fun (e, t, v) ->
        ignore
          (ok (Engine.insert_row e alice ~table:t [| Value.Int v; Value.Int v |])))
      ops;
    Merkle.root_of_roots (Engine.algo e0)
      [ Engine.root_hash e0; Engine.root_hash e1 ]
  in
  Alcotest.(check string) "interleaving-independent root-of-roots"
    (run false) (run true)

(* ------------------------------------------------------------------ *)
(* Cross-shard 2PC: protocol behaviour                                 *)
(* ------------------------------------------------------------------ *)

(* Two shard directories with WALs + one baseline committed insert
   each, checkpointed so recovery always has a generation to start
   from.  Returns live engines + the coordinator WAL. *)
let shard_dirs dir = [| Filename.concat dir "shard-0"; Filename.concat dir "shard-1" |]
let coord_path dir = Filename.concat dir "coord.wal"

let build_shards dir =
  let t0 = table_for_shard ~shards:2 0 and t1 = table_for_shard ~shards:2 1 in
  let engines =
    Array.mapi
      (fun k sdir ->
        Unix.mkdir sdir 0o755;
        let wal = Wal.open_file (Filename.concat sdir "wal.log") in
        let db = Database.create ~name:"sharddb" in
        let eng = Engine.create ~wal ~directory db in
        let table = if k = 0 then t0 else t1 in
        ok (Engine.create_table eng alice ~name:table (Schema.all_int [ "a"; "b" ]));
        ignore
          (ok (Engine.insert_row eng alice ~table [| Value.Int 1; Value.Int 1 |]));
        ignore (ok (Recovery.checkpoint ~dir:sdir ~wal eng));
        (eng, wal, table))
      (shard_dirs dir)
  in
  let coord = Wal.open_file (coord_path dir) in
  (engines, coord)

let cross_parts engines v =
  Array.to_list
    (Array.mapi
       (fun k (eng, _, table) ->
         {
           Shards.p_shard = k;
           p_engine = eng;
           p_by = alice;
           p_body =
             (fun () ->
               match
                 Engine.insert_row eng alice ~table
                   [| Value.Int v; Value.Int (v * v) |]
               with
               | Ok _ -> Ok ()
               | Error e -> Error e);
         })
       engines)

let rows_of eng table =
  Table.row_count (Database.get_table_exn (Engine.backend eng) table)

let test_2pc_commit () =
  with_workdir (fun dir ->
      let engines, coord = build_shards dir in
      let r =
        ok (Shards.commit_cross ~coord ~txid:"tx-1" (cross_parts engines 7))
      in
      let committed, warnings = r in
      Alcotest.(check int) "both shards committed" 2 (List.length committed);
      Alcotest.(check (list string)) "no phase-2 warnings" [] warnings;
      Array.iter
        (fun (eng, _, table) ->
          Alcotest.(check int) "row landed" 2 (rows_of eng table))
        engines;
      Alcotest.(check (list string)) "decision durable" [ "tx-1" ]
        (Shards.decided_txids (coord_path dir));
      (* live engines still verify *)
      Array.iter
        (fun (eng, _, _) ->
          Alcotest.(check bool) "shard verifies" true
            (Verifier.ok (ok (Engine.verify_object eng (Engine.root_oid eng)))))
        engines)

let test_2pc_partial_reject () =
  with_workdir (fun dir ->
      let engines, coord = build_shards dir in
      (* shard 1's body rejects before mutating: it must drop out with
         nothing journaled while shard 0 commits *)
      let parts =
        match cross_parts engines 9 with
        | [ p0; p1 ] ->
            [ p0; { p1 with Shards.p_body = (fun () -> Error "nope") } ]
        | _ -> assert false
      in
      let committed, _ = ok (Shards.commit_cross ~coord ~txid:"tx-2" parts) in
      Alcotest.(check (list int)) "only shard 0 committed" [ 0 ]
        (List.map fst committed);
      let e0, _, t0 = engines.(0) and e1, _, t1 = engines.(1) in
      Alcotest.(check int) "shard 0 grew" 2 (rows_of e0 t0);
      Alcotest.(check int) "shard 1 untouched" 1 (rows_of e1 t1);
      (* an all-reject transaction writes no decision at all *)
      let parts_all_fail =
        List.map
          (fun p -> { p with Shards.p_body = (fun () -> Error "nope") })
          (cross_parts engines 10)
      in
      let committed2, _ =
        ok (Shards.commit_cross ~coord ~txid:"tx-3" parts_all_fail)
      in
      Alcotest.(check int) "nothing committed" 0 (List.length committed2);
      Alcotest.(check (list string)) "tx-3 never decided" [ "tx-2" ]
        (Shards.decided_txids (coord_path dir)))

(* ------------------------------------------------------------------ *)
(* Cross-shard 2PC: crash-point enumeration                            *)
(* ------------------------------------------------------------------ *)

(* Crash the process at every failpoint ordinal covering: inside shard
   0's prepare, inside shard 1's prepare (i.e. between the two shard
   WAL flushes), before the coordinator Decide, and during each
   phase-2 marker.  After each crash, recover both shards with the
   coordinator's decision set and require the shards to AGREE — both
   have the transaction or neither — and the recovered root-of-roots
   to equal the pre- or post-transaction serial execution. *)
let recover_shard dir k =
  let sdir = (shard_dirs dir).(k) in
  let is_decided = Shards.is_decided_from (coord_path dir) in
  let eng, wal, report = ok (Recovery.recover ~is_decided ~dir:sdir ~directory ()) in
  Alcotest.(check bool)
    (Printf.sprintf "shard %d hash cross-check" k)
    true report.Recovery.hash_verified;
  (eng, wal)

let test_2pc_crash_enumeration () =
  (* reference run: the committed outcome every crash must converge to
     (or stay at the baseline) *)
  let expected_pre, expected_post =
    with_workdir (fun dir ->
        let engines, coord = build_shards dir in
        let ror () =
          let e0, _, _ = engines.(0) and e1, _, _ = engines.(1) in
          Merkle.root_of_roots (Engine.algo e0)
            [ Engine.root_hash e0; Engine.root_hash e1 ]
        in
        let pre = ror () in
        ignore (ok (Shards.commit_cross ~coord ~txid:"tx-ref" (cross_parts engines 7)));
        (pre, ror ()))
  in
  Alcotest.(check bool) "reference run changed the root" true
    (expected_pre <> expected_post);
  let scenarios =
    List.concat_map
      (fun site -> List.map (fun after -> (site, after)) [ 1; 2; 3; 4; 5 ])
      [ "wal.append.frame"; "wal.flush" ]
    @ [ (Shards.site_decide, 1); (Shards.site_phase2, 1); (Shards.site_phase2, 2) ]
  in
  List.iter
    (fun (site, after) ->
      let name = Printf.sprintf "2pc-crash:%s:#%d" site after in
      with_workdir (fun dir ->
          let engines, coord = build_shards dir in
          Fault.seed name;
          Fault.arm ~after site Fault.Crash_point;
          let crashed =
            match Shards.commit_cross ~coord ~txid:"tx-ref" (cross_parts engines 7) with
            | Ok _ | Error _ -> false
            | exception Fault.Crash _ -> true
          in
          Fault.reset ();
          (* the process is dead; recover both shards from disk *)
          Array.iter (fun (_, wal, _) -> Wal.close wal) engines;
          Wal.close coord;
          let e0, w0 = recover_shard dir 0 in
          let e1, w1 = recover_shard dir 1 in
          let _, _, t0 = engines.(0) and _, _, t1 = engines.(1) in
          let n0 = rows_of e0 t0 and n1 = rows_of e1 t1 in
          Alcotest.(check bool)
            (name ^ ": shards agree")
            true (n0 = n1);
          let ror =
            Merkle.root_of_roots (Engine.algo e0)
              [ Engine.root_hash e0; Engine.root_hash e1 ]
          in
          if ror <> expected_pre && ror <> expected_post then
            Alcotest.failf "%s: recovered root-of-roots matches neither the \
                            pre- nor post-transaction serial execution"
              name;
          (* decided implies committed, undecided implies rolled back *)
          let decided = Shards.is_decided_from (coord_path dir) "tx-ref" in
          if decided then
            Alcotest.(check string) (name ^ ": decided => post") expected_post ror
          else Alcotest.(check string) (name ^ ": undecided => pre") expected_pre ror;
          ignore crashed;
          (* recovered shards accept new work *)
          ignore (ok (Engine.insert_row e0 alice ~table:t0 [| Value.Int 9; Value.Int 9 |]));
          ignore (ok (Engine.insert_row e1 alice ~table:t1 [| Value.Int 9; Value.Int 9 |]));
          Wal.close w0;
          Wal.close w1))
    scenarios

(* ------------------------------------------------------------------ *)
(* Whole-database operations                                           *)
(* ------------------------------------------------------------------ *)

(* Two shards, writes on shard 0 only: shard 1 (its table created
   before the engine, as `provdb init` does) holds no record and no
   row, so in a 2-shard deployment it counts as empty. *)
let test_verify_shard () =
  let t0 = table_for_shard ~shards:2 0 and t1 = table_for_shard ~shards:2 1 in
  let e0 = make_engine t0 in
  ignore (ok (Engine.insert_row e0 alice ~table:t0 [| Value.Int 1; Value.Int 2 |]));
  let db1 = Database.create ~name:"sharddb" in
  ignore (ok (Database.create_table db1 ~name:t1 (Schema.all_int [ "a"; "b" ])));
  let e1 = Engine.create ~directory db1 in
  (match ok (Shards.verify_shard ~shards:2 e1) with
  | None -> ()
  | Some _ -> Alcotest.fail "a shard with no writes must count as empty");
  (match ok (Shards.verify_shard ~shards:1 e1) with
  | Some _ -> ()
  | None -> Alcotest.fail "an unsharded engine is never skipped as empty");
  (match ok (Shards.verify_shard ~shards:2 e0) with
  | Some (root, store) ->
      Alcotest.(check bool) "written shard verifies" true (Verifier.ok root);
      Alcotest.(check bool) "its store audits clean" true (Verifier.ok store)
  | None -> Alcotest.fail "a written shard is not empty");
  (* a cell changed behind the engine's back *)
  let cell = Option.get (Tep_tree.Tree_view.cell_oid (Engine.mapping e0) t0 0 1) in
  ignore (ok (Tep_tree.Forest.update (Engine.forest e0) cell (Value.Int 99)));
  match ok (Shards.verify_shard ~shards:2 e0) with
  | Some (root, _) ->
      Alcotest.(check bool) "tampered cell is an R4/R5 violation" true
        (List.exists
           (function Verifier.Object_mismatch _ -> true | _ -> false)
           root.Verifier.violations)
  | None -> Alcotest.fail "a written shard is not empty"

(* A sampled sweep's results do not depend on the pool: the sample is
   drawn before any verify runs, and a verify fanned out from inside its
   item (at alpha = 1 the root's, whose closure runs past the serial
   gate) folds its signature checks back in record order.  One cell is
   changed behind the engine and one record's output hash is flipped, so
   the reports carry violations of both kinds. *)
let test_sample_shard_pool () =
  let t0 = table_for_shard ~shards:1 0 in
  let eng = make_engine t0 in
  for i = 1 to 12 do
    ignore
      (ok (Engine.insert_row eng alice ~table:t0 [| Value.Int i; Value.Int (i * 10) |]))
  done;
  List.iter
    (fun row ->
      ok (Engine.update_cell eng alice ~table:t0 ~row ~col:1 (Value.Int (100 + row))))
    [ 1; 5; 9 ];
  let cell row =
    Option.get (Tep_tree.Tree_view.cell_oid (Engine.mapping eng) t0 row 1)
  in
  ignore (ok (Tep_tree.Forest.update (Engine.forest eng) (cell 3) (Value.Int 999)));
  let tampered = Provstore.create ~algo:(Engine.algo eng) () in
  List.iter
    (fun (r : Record.t) ->
      Provstore.append tampered
        (if Tep_tree.Oid.equal r.Record.output_oid (cell 5) && r.Record.seq_id = 1
         then { r with Record.output_hash = "evil" }
         else r))
    (Provstore.all (Engine.provstore eng));
  let eng =
    Engine.of_parts ~directory ~provstore:tampered ~forest:(Engine.forest eng)
      ~view:(Engine.mapping eng) (Engine.backend eng)
  in
  let pool = Pool.create ~domains:4 () in
  let sweep ?pool alpha_ppm =
    Shards.sample_shard ?pool
      ~drbg:(Tep_crypto.Drbg.create ~seed:"sample-pool")
      ~alpha_ppm eng
  in
  List.iter
    (fun alpha_ppm ->
      let serial = sweep alpha_ppm and pooled = sweep ~pool alpha_ppm in
      Alcotest.(check int)
        (Printf.sprintf "%d ppm: sampled" alpha_ppm)
        (List.length (fst serial))
        (List.length (fst pooled));
      Alcotest.(check bool)
        (Printf.sprintf "%d ppm: identical results" alpha_ppm)
        true (serial = pooled))
    [ 300_000; 1_000_000 ];
  let results, population = sweep ~pool 1_000_000 in
  Pool.shutdown pool;
  Alcotest.(check int) "alpha = 1 samples every live object" population
    (List.length results);
  let root =
    match List.assoc (Engine.root_oid eng) results with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "the root's closure is past the serial gate" true
    (root.Verifier.records_checked >= 2 * Pool.serial_below);
  let has f =
    List.exists
      (function
        | _, Ok r -> List.exists f r.Verifier.violations | _, Error _ -> false)
      results
  in
  Alcotest.(check bool) "flipped record reported" true
    (has (function Verifier.Bad_signature _ -> true | _ -> false));
  Alcotest.(check bool) "changed cell reported" true
    (has (function Verifier.Object_mismatch _ -> true | _ -> false))

(* The sweep's contract, replayed here without [Provstore.objects]:
   the live objects are the oids of the store's records that are still
   in the forest, in ascending order, and each gets one
   [uniform_int 1_000_000] from a DRBG of the same seed, the object
   sampled when its draw is below alpha.  Rows are deleted at random,
   so the store holds the records of objects that are gone. *)
let prop_sample_contract =
  QCheck2.Test.make ~name:"sample_shard = the replayed draws" ~count:12
    QCheck2.Gen.(
      quad (int_range 1 10)
        (list_size (int_range 0 6) (int_range 0 9))
        (int_range 0 1_000_000) (string_size ~gen:printable (int_range 0 8)))
    (fun (rows, deletes, alpha_ppm, seed) ->
      let t0 = table_for_shard ~shards:1 0 in
      let eng = make_engine t0 in
      let ids =
        List.init rows (fun i ->
            ok (Engine.insert_row eng alice ~table:t0 [| Value.Int i; Value.Int (-i) |]))
      in
      let deleted = List.sort_uniq compare (List.filter (fun i -> i < rows) deletes) in
      List.iter
        (fun i -> ok (Engine.delete_row eng alice ~table:t0 (List.nth ids i)))
        deleted;
      let results, population =
        Shards.sample_shard
          ~drbg:(Tep_crypto.Drbg.create ~seed)
          ~alpha_ppm eng
      in
      let live =
        Provstore.all (Engine.provstore eng)
        |> List.map (fun (r : Record.t) -> r.Record.output_oid)
        |> List.sort_uniq Tep_tree.Oid.compare
        |> List.filter (Tep_tree.Forest.mem (Engine.forest eng))
      in
      let drbg = Tep_crypto.Drbg.create ~seed in
      let expected =
        List.filter
          (fun _ -> Tep_crypto.Drbg.uniform_int drbg 1_000_000 < alpha_ppm)
          live
      in
      population = List.length live
      && (deleted = [] || population < Provstore.object_count (Engine.provstore eng))
      && List.map fst results = expected)

let newest_generation d =
  match Recovery.generations ~dir:d with (g, _) :: _ -> g | [] -> -1

(* A checkpoint that fails on shard 1 must leave the coordinator's
   decisions in place: shard 1 may still hold the prepared frames
   they resolve. *)
let test_checkpoint_all () =
  with_workdir (fun dir ->
      let engines, coord = build_shards dir in
      ignore
        (ok (Shards.commit_cross ~coord ~txid:"tx-ck" (cross_parts engines 5)));
      let coord_frames () = List.length (Wal.read_file (coord_path dir)) in
      Alcotest.(check int) "decision logged" 1 (coord_frames ());
      let dirs = Array.to_list (shard_dirs dir) in
      let parts =
        List.map2 (fun d (eng, wal, _) -> (d, wal, eng)) dirs
          (Array.to_list engines)
      in
      Fault.arm ~after:2 "snapshot.save.rename" (Fault.Transient 3);
      (match Shards.checkpoint_all ~coord:(Some coord) parts with
      | Ok _ -> Alcotest.fail "a failed generation write must fail the checkpoint"
      | Error e ->
          Alcotest.(check bool)
            ("error names shard 1: " ^ e)
            true
            (String.starts_with ~prefix:"shard 1:" e));
      Fault.reset ();
      Alcotest.(check int) "coordinator log keeps its frames" 1 (coord_frames ());
      let before = List.map newest_generation dirs in
      let gens = ok (Shards.checkpoint_all ~coord:(Some coord) parts) in
      Alcotest.(check (list int)) "a new generation on every shard"
        (List.map succ before)
        (List.map newest_generation dirs);
      Alcotest.(check (list int)) "generations reported in shard order"
        (List.map newest_generation dirs)
        (List.map fst gens);
      Alcotest.(check int) "coordinator log emptied" 0 (coord_frames ()))

(* ------------------------------------------------------------------ *)
(* Server-level sharding                                               *)
(* ------------------------------------------------------------------ *)

let make_sharded_server () =
  let t0 = table_for_shard ~shards:2 0 and t1 = table_for_shard ~shards:2 1 in
  let e0 = make_engine t0 and e1 = make_engine t1 in
  let coord_file = Filename.temp_file "tep_shard_coord" ".wal" in
  let coord = Wal.open_file coord_file in
  let server =
    Server.create
      ~drbg:(Tep_crypto.Drbg.create ~seed:"server")
      ~participants:[ ("alice", alice) ]
      ~coord [ (e0, None); (e1, None) ]
  in
  (server, e0, e1, t0, t1, coord_file)

let test_server_routes_shards () =
  let server, e0, e1, t0, t1, coord_file = make_sharded_server () in
  let c = Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"client") server in
  ok (Client.authenticate c alice);
  ignore (ok (Client.insert c ~table:t0 [| Value.Int 1; Value.Int 10 |]));
  ignore (ok (Client.insert c ~table:t1 [| Value.Int 2; Value.Int 20 |]));
  ignore (ok (Client.insert c ~table:t1 [| Value.Int 3; Value.Int 30 |]));
  (* each write landed on its own engine *)
  Alcotest.(check int) "shard 0 rows" 1 (rows_of e0 t0);
  Alcotest.(check int) "shard 1 rows" 2 (rows_of e1 t1);
  (* the published root is the root-of-roots, not either engine root *)
  let root = ok (Client.root_hash c) in
  Alcotest.(check string) "root-of-roots published"
    (Merkle.root_of_roots (Engine.algo e0)
       [ Engine.root_hash e0; Engine.root_hash e1 ])
    root;
  (* whole-database verify covers both shards *)
  let report, store_audit = ok (Client.verify c ()) in
  Alcotest.(check bool) "verify ok" true (Message.report_ok report);
  (match store_audit with
  | Some a -> Alcotest.(check bool) "store audit ok" true (Message.report_ok a)
  | None -> Alcotest.fail "whole-db verify must include a store audit");
  (* unknown table still rejected *)
  (match Client.insert c ~table:"missing" [| Value.Int 1 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "insert into unknown table must fail");
  Client.close c;
  Sys.remove coord_file

(* Each shard publishes its own root: a write to shard 1 moves the
   published root and shard 1's root, and leaves shard 0's root as it
   was.  The per-shard roots are read off a proof answer, which carries
   all of them. *)
let test_server_shard_roots_independent () =
  let server, e0, e1, t0, t1, coord_file = make_sharded_server () in
  let c = Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"client") server in
  ok (Client.authenticate c alice);
  ignore (ok (Client.insert c ~table:t0 [| Value.Int 1; Value.Int 10 |]));
  ignore (ok (Client.insert c ~table:t1 [| Value.Int 2; Value.Int 20 |]));
  let shard_roots () =
    (ok (Client.prove c ~table:t0 ~row:0 ~col:0 ())).Client.pf_shard_roots
  in
  let root1 = ok (Client.root_hash c) and before = shard_roots () in
  Alcotest.(check (list string)) "roots before"
    [ Engine.root_hash e0; Engine.root_hash e1 ] before;
  ignore (ok (Client.insert c ~table:t1 [| Value.Int 3; Value.Int 30 |]));
  let root2 = ok (Client.root_hash c) and after = shard_roots () in
  Alcotest.(check bool) "published root moved" true (root1 <> root2);
  (match (before, after) with
  | [ r0; r1 ], [ r0'; r1' ] ->
      Alcotest.(check string) "shard 0 root unchanged" r0 r0';
      Alcotest.(check bool) "shard 1 root moved" true (r1 <> r1');
      Alcotest.(check string) "shard 1 root is its engine's"
        (Engine.root_hash e1) r1'
  | _ -> Alcotest.fail "expected 2 shard roots");
  Client.close c;
  Sys.remove coord_file

(* The root-publication rule under random traffic: after every
   acknowledged write, single-shard or cross-shard, Root_hash is the
   root-of-roots of the engines' roots, and a proof of the cell just
   written chains to it. *)
let test_server_published_root_follows_writes () =
  let server, e0, e1, t0, t1, coord_file = make_sharded_server () in
  let c = Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"client") server in
  ok (Client.authenticate c alice);
  let rng = Random.State.make [| 24 |] in
  let tables = [| t0; t1 |] and rows = [| 0; 0 |] in
  let value () = Value.Int (Random.State.int rng 1000) in
  let submitted_row = function
    | Message.Submitted { row = Some r; _ } -> r
    | _ -> Alcotest.fail "cross-shard insert not committed"
  in
  let write () =
    let k = Random.State.int rng 2 in
    match Random.State.int rng 3 with
    | 0 ->
        let r, _ = ok (Client.insert c ~table:tables.(k) [| value (); value () |]) in
        rows.(k) <- rows.(k) + 1;
        (tables.(k), r, 0)
    | 1 when rows.(k) > 0 ->
        let r = Random.State.int rng rows.(k) in
        ignore (ok (Client.update c ~table:tables.(k) ~row:r ~col:1 (value ())));
        (tables.(k), r, 1)
    | _ ->
        let insert table =
          Message.Op_insert { table; cells = [| value (); value () |] }
        in
        let resps = Server.submit_ops server alice [| insert t0; insert t1 |] in
        rows.(0) <- rows.(0) + 1;
        rows.(1) <- rows.(1) + 1;
        let r = submitted_row resps.(k) in
        ignore (submitted_row resps.(1 - k));
        (tables.(k), r, 0)
  in
  for step = 1 to 24 do
    let table, row, col = write () in
    let label = Printf.sprintf "step %d (%s[%d].%d)" step table row col in
    let root = ok (Client.root_hash c) in
    Alcotest.(check string) (label ^ ": published root")
      (Shards.published_root (Engine.algo e0)
         [ Engine.root_hash e0; Engine.root_hash e1 ])
      root;
    let p = ok (Client.prove c ~table ~row ~col ()) in
    let report =
      ok
        (Client.check_proofs ~algo:(Engine.algo e0) ~directory ~trusted_root:root
           p)
    in
    Alcotest.(check bool) (label ^ ": proof chains to it") true
      (Verifier.ok report)
  done;
  Client.close c;
  Sys.remove coord_file

(* One pipelined loopback client per shard, each streaming inserts
   into its own table concurrently.  Each shard's commit order is then
   its client's program order, so replaying the same per-shard op
   streams serially on fresh engines must reproduce the root-of-roots
   byte for byte. *)
let test_server_concurrent_clients_vs_serial () =
  let server, e0, e1, t0, t1, coord_file = make_sharded_server () in
  let requests = 25 and window = 8 in
  let shards = [| (0, t0); (1, t1) |] in
  let stream k = List.init requests (fun i -> [| Value.Int k; Value.Int i |]) in
  let errors = Array.make (Array.length shards) [] in
  let run (k, table) =
    let c =
      Client.loopback
        ~drbg:(Tep_crypto.Drbg.create ~seed:(Printf.sprintf "shard-cli-%d" k))
        server
    in
    let fail e = errors.(k) <- e :: errors.(k) in
    (match Client.authenticate c alice with
    | Error e -> fail e
    | Ok () ->
        let inflight = Queue.create () in
        let collect () =
          match Client.collect_submitted c (Queue.pop inflight) with
          | Ok _ -> ()
          | Error e -> fail e
        in
        List.iter
          (fun cells ->
            (match Client.submit_async c (Message.Op_insert { table; cells }) with
            | Ok cid -> Queue.push cid inflight
            | Error e -> fail e);
            if Queue.length inflight >= window then collect ())
          (stream k);
        while not (Queue.is_empty inflight) do
          collect ()
        done);
    Client.close c
  in
  List.iter Thread.join
    (Array.to_list (Array.map (Thread.create run) shards));
  Array.iter (List.iter Alcotest.fail) errors;
  let serial =
    Array.map
      (fun (k, table) ->
        let e = make_engine table in
        List.iter
          (fun cells -> ignore (ok (Engine.insert_row e alice ~table cells)))
          (stream k);
        e)
      shards
  in
  let root_of engines =
    Merkle.root_of_roots (Engine.algo e0) (List.map Engine.root_hash engines)
  in
  Alcotest.(check string) "root-of-roots = serial re-execution"
    (root_of (Array.to_list serial))
    (root_of [ e0; e1 ]);
  Sys.remove coord_file

(* A multi-op batch spanning both shards goes through the 2PC
   coordinator path: both Submitted, the decision journaled. *)
let test_server_cross_shard_batch () =
  let server, e0, e1, t0, t1, coord_file = make_sharded_server () in
  let responses =
    Server.submit_ops server alice
      [|
        Message.Op_insert { table = t0; cells = [| Value.Int 1; Value.Int 1 |] };
        Message.Op_insert { table = t1; cells = [| Value.Int 2; Value.Int 2 |] };
      |]
  in
  Array.iter
    (function
      | Message.Submitted _ -> ()
      | r ->
          Alcotest.failf "cross-shard op not committed: %s"
            (match r with
            | Message.Error_resp { message; _ } -> message
            | _ -> "unexpected response"))
    responses;
  Alcotest.(check int) "shard 0 grew" 1 (rows_of e0 t0);
  Alcotest.(check int) "shard 1 grew" 1 (rows_of e1 t1);
  let decided = Shards.decided_txids coord_file in
  Alcotest.(check int) "one decision journaled" 1 (List.length decided);
  (* single-shard batches stay off the coordinator *)
  let responses2 =
    Server.submit_ops server alice
      [|
        Message.Op_insert { table = t0; cells = [| Value.Int 3; Value.Int 3 |] };
        Message.Op_insert { table = t0; cells = [| Value.Int 4; Value.Int 4 |] };
      |]
  in
  Array.iter
    (function
      | Message.Submitted _ -> ()
      | _ -> Alcotest.fail "single-shard op failed")
    responses2;
  Alcotest.(check int) "no new decision" 1
    (List.length (Shards.decided_txids coord_file));
  Sys.remove coord_file

(* Every batch counter lives on its shard: after single-shard and
   cross-shard writes the per-shard batches and ops sum to Ping's
   totals, and signing time advances on exactly the shards written. *)
let test_server_counters () =
  let server, _, _, t0, t1, coord_file = make_sharded_server () in
  let c = Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"client") server in
  ok (Client.authenticate c alice);
  let stats () =
    let h = ok (Client.ping c) and shards = ok (Client.shard_stats c) in
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 shards in
    Alcotest.(check int) "shard batches sum to Ping's" h.Client.h_batches
      (sum (fun s -> s.Message.ss_batches));
    Alcotest.(check int) "shard ops sum to Ping's" h.Client.h_ops
      (sum (fun s -> s.Message.ss_ops));
    shards
  in
  let step label ~signed write =
    let before = stats () in
    write ();
    let after = stats () in
    List.iteri
      (fun k (b, a) ->
        let wrote = List.mem k signed in
        let name what = Printf.sprintf "%s: shard %d %s" label k what in
        Alcotest.(check int) (name "batches")
          (b.Message.ss_batches + Bool.to_int wrote)
          a.Message.ss_batches;
        Alcotest.(check int) (name "ops")
          (b.Message.ss_ops + Bool.to_int wrote)
          a.Message.ss_ops;
        Alcotest.(check bool) (name "signing wall time advanced") wrote
          (a.Message.ss_sign_wall_us > b.Message.ss_sign_wall_us);
        Alcotest.(check bool) (name "signing cpu time advanced") wrote
          (a.Message.ss_sign_cpu_us > b.Message.ss_sign_cpu_us))
      (List.combine before after)
  in
  let insert table v =
    Message.Op_insert { table; cells = [| Value.Int v; Value.Int v |] }
  in
  step "shard-1 write" ~signed:[ 1 ] (fun () ->
      ignore (ok (Client.insert c ~table:t1 [| Value.Int 1; Value.Int 1 |])));
  step "shard-0 write" ~signed:[ 0 ] (fun () ->
      ignore (ok (Client.insert c ~table:t0 [| Value.Int 2; Value.Int 2 |])));
  step "cross-shard write" ~signed:[ 0; 1 ] (fun () ->
      Array.iter
        (function
          | Message.Submitted _ -> ()
          | _ -> Alcotest.fail "cross-shard op not committed")
        (Server.submit_ops server alice [| insert t0 3; insert t1 4 |]));
  let h = ok (Client.ping c) in
  Alcotest.(check int) "Ping batches" 4 h.Client.h_batches;
  Alcotest.(check int) "Ping ops" 4 h.Client.h_ops;
  Client.close c;
  Sys.remove coord_file

(* A cross-shard commit must publish every participant's root before
   it releases the shards' write locks.  The commit
   is held just after the unlock (the [server.cross.committed] site,
   armed with a delay) while a Prove lands on a participating shard:
   every proof item must chain to the shard root of the same response,
   and that root must be the committed one. *)
let test_server_cross_shard_prove_window () =
  let server, _, e1, t0, t1, coord_file = make_sharded_server () in
  let c = Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"client") server in
  ok (Client.authenticate c alice);
  ignore (ok (Client.insert c ~table:t0 [| Value.Int 1; Value.Int 10 |]));
  ignore (ok (Client.insert c ~table:t1 [| Value.Int 2; Value.Int 20 |]));
  (* the roots before the commit are what a late publication would
     serve *)
  ignore (ok (Client.root_hash c));
  let site = "server.cross.committed" in
  Fault.reset ();
  Fault.arm site (Fault.Delay 0.5);
  let update table =
    Message.Op_update { table; row = 0; col = 1; value = Value.Int 9 }
  in
  let responses = ref [||] in
  let writer =
    Thread.create
      (fun () ->
        responses := Server.submit_ops server alice [| update t0; update t1 |])
      ()
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while Fault.hit_count site < 1 && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  let reached = Fault.hit_count site >= 1 in
  let proofs = Client.prove c ~table:t1 ~row:0 ~col:1 () in
  Thread.join writer;
  Fault.reset ();
  Alcotest.(check bool) "commit reached the post-unlock site" true reached;
  Array.iter
    (function
      | Message.Submitted _ -> ()
      | _ -> Alcotest.fail "cross-shard update failed")
    !responses;
  let p = ok proofs in
  let shard_root = List.nth p.Client.pf_shard_roots p.Client.pf_shard in
  List.iter
    (fun it ->
      ok
        (Tep_tree.Proof.verify (Engine.algo e1) ~root_hash:shard_root
           it.Client.pf_proof))
    p.Client.pf_items;
  Alcotest.(check string) "shard root is the committed root"
    (Engine.root_hash e1) shard_root;
  Client.close c;
  Sys.remove coord_file

(* ------------------------------------------------------------------ *)
(* Adaptive pool gate                                                  *)
(* ------------------------------------------------------------------ *)

let test_pool_serial_below_semantics () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun n ->
          let input = Array.init n (fun i -> i) in
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d" n)
            (Array.map (fun i -> (i * 3) + 1) input)
            (Pool.map_chunked ~chunk:1 pool (fun i -> (i * 3) + 1) input))
        [ 0; 1; Pool.serial_below - 1; Pool.serial_below; 64 ];
      (* The caller helps drain the chunk queue, so each item must carry
         enough work for a worker domain to win at least one chunk. *)
      let self = Domain.self () in
      let spin () =
        let x = ref 0 in
        for _ = 1 to 100_000 do
          incr x
        done;
        ignore (Sys.opaque_identity !x)
      in
      let runs_elsewhere n =
        let others = Stdlib.Atomic.make 0 in
        Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:(n - 1) (fun _ ->
            spin ();
            if Domain.self () <> self then Stdlib.Atomic.incr others);
        Stdlib.Atomic.get others > 0
      in
      (* below the gate the whole call runs on the calling domain *)
      for _ = 1 to 10 do
        Alcotest.(check bool) "below the gate stays on the caller" false
          (runs_elsewhere (Pool.serial_below - 1))
      done;
      (* from the gate up a 4-domain pool really does fan out; retry
         to shed scheduler flakiness *)
      let rec fans_out attempts =
        attempts > 0 && (runs_elsewhere 100 || fans_out (attempts - 1))
      in
      Alcotest.(check bool) "above the gate fans out" true (fans_out 10))

(* The 1-core regression assertion: on a 1-domain pool, the pooled
   call with the gate must not be slower than the plain serial loop
   beyond noise.  The generous factor keeps this meaningful (it fails
   if gating is broken and the pool round-trips through a queue) while
   staying robust on loaded CI machines. *)
let test_pool_1core_not_slower () =
  let n = 50_000 in
  let input = Array.init n (fun i -> i) in
  let work i = (i * 1103515245) + 12345 in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  let serial () = time (fun () -> Array.map work input) in
  let pooled pool () =
    time (fun () -> Pool.map_chunked pool work input)
  in
  let pool = Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (* warm both paths, then take the best of 3 to shed scheduler noise *)
      ignore (serial ());
      ignore (pooled pool ());
      let best f = List.fold_left min infinity [ f (); f (); f () ] in
      let ts = best serial and tp = best (pooled pool) in
      Alcotest.(check bool)
        (Printf.sprintf "gated pooled (%.4fs) not slower than serial (%.4fs) \
                         beyond noise"
           tp ts)
        true
        (tp <= (ts *. 5.) +. 0.01))

let () =
  Alcotest.run "shard"
    [
      ( "routing",
        [
          Alcotest.test_case "stable" `Quick test_routing_stable;
          Alcotest.test_case "spreads" `Quick test_routing_spreads;
          Alcotest.test_case "overrides" `Quick test_routing_overrides;
        ] );
      ( "root-of-roots",
        [
          Alcotest.test_case "construction" `Quick test_root_of_roots;
          Alcotest.test_case "sharded = serial" `Quick
            test_sharded_vs_serial_roots;
        ] );
      ( "2pc",
        [
          Alcotest.test_case "commit" `Quick test_2pc_commit;
          Alcotest.test_case "partial reject" `Quick test_2pc_partial_reject;
          Alcotest.test_case "crash enumeration" `Quick
            test_2pc_crash_enumeration;
        ] );
      ( "whole-database",
        [
          Alcotest.test_case "verify_shard" `Quick test_verify_shard;
          Alcotest.test_case "sample_shard pool-independent" `Quick
            test_sample_shard_pool;
          QCheck_alcotest.to_alcotest prop_sample_contract;
          Alcotest.test_case "checkpoint_all" `Quick test_checkpoint_all;
        ] );
      ( "server",
        [
          Alcotest.test_case "routes" `Quick test_server_routes_shards;
          Alcotest.test_case "shard roots independent" `Quick
            test_server_shard_roots_independent;
          Alcotest.test_case "published root follows writes" `Quick
            test_server_published_root_follows_writes;
          Alcotest.test_case "concurrent clients = serial" `Quick
            test_server_concurrent_clients_vs_serial;
          Alcotest.test_case "cross-shard batch" `Quick
            test_server_cross_shard_batch;
          Alcotest.test_case "counters" `Quick test_server_counters;
          Alcotest.test_case "cross-shard prove window" `Quick
            test_server_cross_shard_prove_window;
        ] );
      ( "pool-gate",
        [
          Alcotest.test_case "serial_below semantics" `Quick
            test_pool_serial_below_semantics;
          Alcotest.test_case "1-core not slower" `Quick
            test_pool_1core_not_slower;
        ] );
    ]
