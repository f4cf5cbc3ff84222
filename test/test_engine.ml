(* The provenance engine: record emission, inheritance, complex ops,
   backend/forest consistency, metrics. *)
open Tep_store
open Tep_tree
open Tep_core

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let setup ?(rows = 6) () =
  let drbg = Tep_crypto.Drbg.create ~seed:"test-engine" in
  let ca = Tep_crypto.Pki.create_ca ~name:"CA" drbg in
  let dir = Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca) in
  let alice = Participant.create ~ca ~name:"alice" drbg in
  let bob = Participant.create ~ca ~name:"bob" drbg in
  Participant.Directory.register dir alice;
  Participant.Directory.register dir bob;
  let db = Database.create ~name:"engdb" in
  let t = ok (Database.create_table db ~name:"t" (Schema.all_int [ "a"; "b"; "c" ])) in
  for i = 0 to rows - 1 do
    ignore (Table.insert t [| Value.Int i; Value.Int (i * 2); Value.Int (i * 3) |])
  done;
  let eng = Engine.create ~directory:dir db in
  (eng, alice, bob, dir)

let test_update_cell_records () =
  let eng, alice, _, _ = setup () in
  ok (Engine.update_cell eng alice ~table:"t" ~row:2 ~col:1 (Value.Int 99));
  let m = Engine.last_metrics eng in
  (* cell (actual) + row + table + root (inherited) *)
  Alcotest.(check int) "records" 4 m.Engine.records_emitted;
  Alcotest.(check int) "bytes" (4 * 140) m.Engine.checksum_bytes;
  (* actual vs inherited flags *)
  let coid = Option.get (Tree_view.cell_oid (Engine.mapping eng) "t" 2 1) in
  let cell_rec = Option.get (Provstore.latest (Engine.provstore eng) coid) in
  Alcotest.(check bool) "cell actual" false cell_rec.Record.inherited;
  let root_rec =
    Option.get (Provstore.latest (Engine.provstore eng) (Engine.root_oid eng))
  in
  Alcotest.(check bool) "root inherited" true root_rec.Record.inherited;
  (* backend stays in sync *)
  let tbl = Database.get_table_exn (Engine.backend eng) "t" in
  Alcotest.(check bool) "backend updated" true
    (Value.equal (Option.get (Table.get tbl 2)).Table.cells.(1) (Value.Int 99))

let test_first_touch_is_import () =
  let eng, alice, _, _ = setup () in
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 7));
  let coid = Option.get (Tree_view.cell_oid (Engine.mapping eng) "t" 0 0) in
  let r = Option.get (Provstore.latest (Engine.provstore eng) coid) in
  Alcotest.(check string) "kind" "import" (Record.kind_name r.Record.kind);
  Alcotest.(check int) "seq 0" 0 r.Record.seq_id;
  (* second touch is a plain update chaining to the import *)
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 8));
  let r2 = Option.get (Provstore.latest (Engine.provstore eng) coid) in
  Alcotest.(check string) "kind 2" "update" (Record.kind_name r2.Record.kind);
  Alcotest.(check int) "seq 1" 1 r2.Record.seq_id;
  Alcotest.(check bool) "chained" true
    (r2.Record.prev_checksums = [ r.Record.checksum ])

let test_insert_row_records () =
  let eng, _, bob, _ = setup () in
  let row = ok (Engine.insert_row eng bob ~table:"t" [| Value.Int 1; Value.Int 2; Value.Int 3 |]) in
  let m = Engine.last_metrics eng in
  (* row + 3 cells (inserts) + table + root (inherited) = 6 *)
  Alcotest.(check int) "records" 6 m.Engine.records_emitted;
  let roid = Option.get (Tree_view.row_oid (Engine.mapping eng) "t" row) in
  let r = Option.get (Provstore.latest (Engine.provstore eng) roid) in
  Alcotest.(check string) "row kind" "insert" (Record.kind_name r.Record.kind);
  Alcotest.(check int) "row seq" 0 r.Record.seq_id;
  Alcotest.(check bool) "backend row" true
    (Table.get (Database.get_table_exn (Engine.backend eng) "t") row <> None)

let test_delete_row_records () =
  let eng, alice, _, _ = setup () in
  ok (Engine.delete_row eng alice ~table:"t" 1);
  let m = Engine.last_metrics eng in
  (* only table + root survive: the paper's x inherited checksums *)
  Alcotest.(check int) "records" 2 m.Engine.records_emitted;
  Alcotest.(check bool) "backend deleted" true
    (Table.get (Database.get_table_exn (Engine.backend eng) "t") 1 = None);
  Alcotest.(check bool) "mapping dropped" true
    (Tree_view.row_oid (Engine.mapping eng) "t" 1 = None)

let test_complex_op_batching () =
  let eng, alice, _, _ = setup () in
  let (), m =
    ok
      (Engine.complex_op eng alice (fun () ->
           let rec go i =
             if i > 3 then Ok ()
             else
               match Engine.update_cell eng alice ~table:"t" ~row:i ~col:0 (Value.Int 0) with
               | Ok () -> go (i + 1)
               | Error e -> Error e
           in
           go 0))
  in
  (* 4 cells + 4 rows + table + root = 10 (one record each, not 4 per
     ancestor: Section 4.4 grouping) *)
  Alcotest.(check int) "grouped records" 10 m.Engine.records_emitted

let test_complex_op_failure_emits_nothing () =
  let eng, alice, _, _ = setup () in
  let before = Provstore.record_count (Engine.provstore eng) in
  (match
     Engine.complex_op eng alice (fun () ->
         ignore (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 1));
         Error "boom")
   with
  | Ok _ -> Alcotest.fail "failing body succeeded"
  | Error _ -> ());
  Alcotest.(check int) "no records" before
    (Provstore.record_count (Engine.provstore eng))

let test_double_update_in_batch () =
  (* Section 4.4: a complex op emits ONE record per touched object;
     two updates to the same cell collapse to a single record whose
     input is the pre-batch state and output the final state. *)
  let eng, alice, _, _ = setup () in
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 1));
  let coid = Option.get (Tree_view.cell_oid (Engine.mapping eng) "t" 0 0) in
  let before = Option.get (Provstore.latest (Engine.provstore eng) coid) in
  let (), m =
    ok
      (Engine.complex_op eng alice (fun () ->
           match Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 2) with
           | Error e -> Error e
           | Ok () ->
               Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 3)))
  in
  Alcotest.(check int) "one record per object" 4 m.Engine.records_emitted;
  let after = Option.get (Provstore.latest (Engine.provstore eng) coid) in
  Alcotest.(check int) "single seq step" (before.Record.seq_id + 1)
    after.Record.seq_id;
  Alcotest.(check bool) "input is pre-batch state" true
    (after.Record.input_hashes = [ before.Record.output_hash ]);
  Alcotest.(check bool) "value is final" true
    (after.Record.output_value = Some (Value.Int 3));
  Alcotest.(check bool) "verifies" true
    (Verifier.ok (ok (Engine.verify_object eng coid)))

let test_nested_complex_op_rejected () =
  let eng, alice, _, _ = setup () in
  match
    Engine.complex_op eng alice (fun () ->
        match Engine.complex_op eng alice (fun () -> Ok ()) with
        | Ok _ -> Ok ()
        | Error e -> Error e)
  with
  | Ok _ -> Alcotest.fail "nested accepted"
  | Error _ -> ()

let test_participant_mismatch_in_batch () =
  let eng, alice, bob, _ = setup () in
  match
    Engine.complex_op eng alice (fun () ->
        Engine.update_cell eng bob ~table:"t" ~row:0 ~col:0 (Value.Int 1))
  with
  | Ok _ -> Alcotest.fail "two participants in one op accepted"
  | Error _ -> ()

let test_aggregate_objects () =
  let eng, alice, bob, _ = setup () in
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 5));
  let r0 = Option.get (Tree_view.row_oid (Engine.mapping eng) "t" 0) in
  let r1 = Option.get (Tree_view.row_oid (Engine.mapping eng) "t" 1) in
  let agg = ok (Engine.aggregate_objects eng bob ~value:(Value.Text "agg") [ r0; r1 ]) in
  let rec_ = Option.get (Provstore.latest (Engine.provstore eng) agg) in
  Alcotest.(check string) "kind" "aggregate" (Record.kind_name rec_.Record.kind);
  Alcotest.(check int) "two inputs" 2 (List.length rec_.Record.input_oids);
  Alcotest.(check int) "two prevs" 2 (List.length rec_.Record.prev_checksums);
  (* aggregate is a root holding copies *)
  Alcotest.(check bool) "is root" true (Forest.parent (Engine.forest eng) agg = None);
  Alcotest.(check int) "copied row width" 2
    (List.length (Forest.children (Engine.forest eng) agg));
  (* originals untouched *)
  Alcotest.(check bool) "original intact" true (Forest.mem (Engine.forest eng) r0)

let test_object_ops () =
  let eng, alice, bob, _ = setup () in
  let o = ok (Engine.insert_object eng alice (Value.Text "standalone")) in
  ok (Engine.update_object eng bob o (Value.Text "v2"));
  Alcotest.(check bool) "value" true
    (Forest.value (Engine.forest eng) o = Ok (Value.Text "v2"));
  (match Provstore.records_for (Engine.provstore eng) o with
  | [ ins; upd ] ->
      Alcotest.(check (list string)) "kinds" [ "insert"; "update" ]
        (List.map (fun r -> Record.kind_name r.Record.kind) [ ins; upd ]);
      Alcotest.(check (list string)) "writers" [ "alice"; "bob" ]
        [ ins.Record.participant; upd.Record.participant ];
      Alcotest.(check bool) "update reads the insert's state" true
        (upd.Record.input_hashes = [ ins.Record.output_hash ])
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs));
  Alcotest.(check bool) "verifies" true
    (Verifier.ok (ok (Engine.verify_object eng o)))

let test_update_missing () =
  let eng, alice, _, _ = setup () in
  (match Engine.update_cell eng alice ~table:"t" ~row:99 ~col:0 (Value.Int 0) with
  | Ok () -> Alcotest.fail "missing row accepted"
  | Error _ -> ());
  (match Engine.update_cell eng alice ~table:"nope" ~row:0 ~col:0 (Value.Int 0) with
  | Ok () -> Alcotest.fail "missing table accepted"
  | Error _ -> ());
  match Engine.update_cell_named eng alice ~table:"t" ~row:0 ~column:"zz" (Value.Int 0) with
  | Ok () -> Alcotest.fail "missing column accepted"
  | Error _ -> ()

let test_create_table () =
  let eng, alice, _, _ = setup () in
  ok (Engine.create_table eng alice ~name:"t2" (Schema.all_int [ "x" ]));
  Alcotest.(check bool) "backend has it" true
    (Database.get_table (Engine.backend eng) "t2" <> None);
  Alcotest.(check bool) "tree has it" true
    (Tree_view.table_oid (Engine.mapping eng) "t2" <> None);
  let _ = ok (Engine.insert_row eng alice ~table:"t2" [| Value.Int 1 |]) in
  let report = ok (Engine.verify_object eng (Engine.root_oid eng)) in
  Alcotest.(check bool) "verifies" true (Verifier.ok report)

let test_basic_mode () =
  let drbg = Tep_crypto.Drbg.create ~seed:"basic-mode" in
  let ca = Tep_crypto.Pki.create_ca ~name:"CA" drbg in
  let dir = Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca) in
  let alice = Participant.create ~ca ~name:"alice" drbg in
  Participant.Directory.register dir alice;
  let engine mode =
    let db = Database.create ~name:"b" in
    let t = ok (Database.create_table db ~name:"t" (Schema.all_int [ "a" ])) in
    for i = 0 to 9 do
      ignore (Table.insert t [| Value.Int i |])
    done;
    Engine.create ~mode ~directory:dir db
  in
  let eng = engine Engine.Basic in
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 1));
  let m_basic = Engine.last_metrics eng in
  (* basic mode re-hashes the whole tree (22 nodes) at commit *)
  Alcotest.(check bool) "basic hashes everything" true
    (m_basic.Engine.nodes_hashed >= 22);
  let eng = engine Engine.Economical in
  ignore (Engine.root_hash eng);
  ok (Engine.update_cell eng alice ~table:"t" ~row:1 ~col:0 (Value.Int 1));
  let m_econ = Engine.last_metrics eng in
  Alcotest.(check bool) "economical hashes the path" true
    (m_econ.Engine.nodes_hashed < m_basic.Engine.nodes_hashed);
  (* both verify *)
  let report = ok (Engine.verify_object eng (Engine.root_oid eng)) in
  Alcotest.(check bool) "verifies" true (Verifier.ok report)

let test_metrics_accumulate () =
  let eng, alice, _, _ = setup () in
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 1));
  ok (Engine.update_cell eng alice ~table:"t" ~row:1 ~col:0 (Value.Int 1));
  let total = Engine.total_metrics eng in
  Alcotest.(check int) "total records" 8 total.Engine.records_emitted;
  Alcotest.(check bool) "times nonnegative" true
    (total.Engine.hash_s >= 0. && total.Engine.sign_s >= 0.)

let test_deep_delivery () =
  let eng, alice, bob, dir = setup () in
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 5));
  ok (Engine.update_cell eng bob ~table:"t" ~row:0 ~col:1 (Value.Int 6));
  let roid = Option.get (Tree_view.row_oid (Engine.mapping eng) "t" 0) in
  let _, shallow = ok (Engine.deliver eng roid) in
  let data, deep = ok (Engine.deliver ~deep:true eng roid) in
  (* shallow: the row's own 2-record chain; deep adds the two cells' chains *)
  Alcotest.(check int) "shallow" 2 (List.length shallow);
  Alcotest.(check bool) "deep strictly larger" true
    (List.length deep > List.length shallow);
  let report = Verifier.verify ~algo:(Engine.algo eng) ~directory:dir ~data deep in
  Alcotest.(check bool) "deep delivery verifies" true (Verifier.ok report)

let test_prune_after_deletes () =
  let eng, alice, _, dir = setup () in
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 1));
  ok (Engine.update_cell eng alice ~table:"t" ~row:1 ~col:0 (Value.Int 2));
  ok (Engine.delete_row eng alice ~table:"t" 0);
  let before = Provstore.record_count (Engine.provstore eng) in
  (* live = everything still in the forest *)
  let live = ref [] in
  Forest.iter_preorder (Engine.forest eng) (Engine.root_oid eng) (fun o _ ->
      live := o :: !live);
  let pruned = Provstore.prune (Engine.provstore eng) ~live:!live in
  Alcotest.(check bool) "records reclaimed" true
    (Provstore.record_count pruned < before);
  (* every survivor verifies against the pruned store *)
  List.iter
    (fun oid ->
      match Forest.subtree (Engine.forest eng) oid with
      | Error e -> Alcotest.fail e
      | Ok data ->
          let records = Provstore.provenance_object pruned oid in
          if records <> [] then begin
            let report =
              Verifier.verify ~algo:(Engine.algo eng) ~directory:dir ~data records
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s verifies after prune" (Oid.to_string oid))
              true (Verifier.ok report)
          end)
    !live

let test_wal_integration () =
  let drbg = Tep_crypto.Drbg.create ~seed:"wal-mode" in
  let ca = Tep_crypto.Pki.create_ca ~name:"CA" drbg in
  let dir = Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca) in
  let alice = Participant.create ~ca ~name:"alice" drbg in
  Participant.Directory.register dir alice;
  let db = Database.create ~name:"w" in
  ignore (ok (Database.create_table db ~name:"t" (Schema.all_int [ "a" ])));
  let wal = Wal.in_memory () in
  let eng = Engine.create ~wal ~directory:dir db in
  let row = ok (Engine.insert_row eng alice ~table:"t" [| Value.Int 5 |]) in
  ok (Engine.update_cell eng alice ~table:"t" ~row ~col:0 (Value.Int 6));
  ok (Engine.delete_row eng alice ~table:"t" row);
  Alcotest.(check int) "wal entries" 3
    (List.length (List.filter Wal.is_relational (Wal.entries wal)));
  (* each of the three singleton complex ops also journaled its
     provenance records and a commit marker *)
  Alcotest.(check int) "commit markers" 3
    (List.length
       (List.filter
          (function Wal.Commit _ -> true | _ -> false)
          (Wal.entries wal)));
  (* replaying onto an empty copy reproduces the backend *)
  let db2 = Database.create ~name:"w" in
  ignore (ok (Database.create_table db2 ~name:"t" (Schema.all_int [ "a" ])));
  ok (Wal.replay (Wal.entries wal) db2);
  Alcotest.(check int) "replayed rows" 0
    (Table.row_count (Database.get_table_exn db2 "t"))

(* Property: Basic and Economical modes produce identical root hashes
   for any op sequence, and both verify. *)
type prop_op = PUpd of int * int * int | PIns | PDel of int

let gen_prop_ops =
  QCheck2.Gen.(
    list_size (int_range 1 10)
      (oneof
         [
           map3 (fun r c v -> PUpd (r, c, v)) (int_range 0 5) (int_range 0 2)
             (int_range 0 999);
           return PIns;
           map (fun r -> PDel r) (int_range 0 5);
         ]))

let prop_modes_agree =
  QCheck2.Test.make ~name:"basic and economical agree" ~count:15 gen_prop_ops
    (fun ops ->
      let run mode =
        let drbg = Tep_crypto.Drbg.create ~seed:"modes" in
        let ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"CA" drbg in
        let dir =
          Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
        in
        let p = Participant.create ~bits:512 ~ca ~name:"p" drbg in
        Participant.Directory.register dir p;
        let db = Database.create ~name:"m" in
        let t = ok (Database.create_table db ~name:"t" (Schema.all_int [ "a"; "b"; "c" ])) in
        for i = 0 to 5 do
          ignore (Table.insert t [| Value.Int i; Value.Int i; Value.Int i |])
        done;
        let eng = Engine.create ~mode ~directory:dir db in
        List.iter
          (fun op ->
            match op with
            | PUpd (r, c, v) ->
                ignore (Engine.update_cell eng p ~table:"t" ~row:r ~col:c (Value.Int v))
            | PIns -> ignore (Engine.insert_row eng p ~table:"t" [| Value.Int 0; Value.Int 0; Value.Int 0 |])
            | PDel r -> ignore (Engine.delete_row eng p ~table:"t" r))
          ops;
        let h = Engine.root_hash eng in
        let report = ok (Engine.verify_object eng (Engine.root_oid eng)) in
        (h, Verifier.ok report)
      in
      let hb, okb = run Engine.Basic in
      let he, oke = run Engine.Economical in
      String.equal hb he && okb && oke)

let () =
  Alcotest.run "engine"
    [
      ( "records",
        [
          Alcotest.test_case "update cell" `Quick test_update_cell_records;
          Alcotest.test_case "first touch import" `Quick
            test_first_touch_is_import;
          Alcotest.test_case "insert row" `Quick test_insert_row_records;
          Alcotest.test_case "delete row" `Quick test_delete_row_records;
          Alcotest.test_case "aggregate" `Quick test_aggregate_objects;
          Alcotest.test_case "object ops" `Quick test_object_ops;
        ] );
      ( "complex-ops",
        [
          Alcotest.test_case "batching" `Quick test_complex_op_batching;
          Alcotest.test_case "double update collapses" `Quick
            test_double_update_in_batch;
          Alcotest.test_case "failure atomicity" `Quick
            test_complex_op_failure_emits_nothing;
          Alcotest.test_case "nested rejected" `Quick
            test_nested_complex_op_rejected;
          Alcotest.test_case "participant mismatch" `Quick
            test_participant_mismatch_in_batch;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_modes_agree ]);
      ( "engine",
        [
          Alcotest.test_case "update missing" `Quick test_update_missing;
          Alcotest.test_case "create table" `Quick test_create_table;
          Alcotest.test_case "basic vs economical" `Quick test_basic_mode;
          Alcotest.test_case "metrics accumulate" `Quick
            test_metrics_accumulate;
          Alcotest.test_case "wal integration" `Quick test_wal_integration;
          Alcotest.test_case "deep delivery" `Quick test_deep_delivery;
          Alcotest.test_case "prune after deletes" `Quick
            test_prune_after_deletes;
        ] );
    ]
