(* Incremental auditing: checkpoints, boundary links, cost
   proportionality, tamper detection at, after and below the boundary,
   marks forgotten after a prune, and agreement with the verifier. *)
open Tep_store
open Tep_tree
open Tep_core

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let fixture () =
  let drbg = Tep_crypto.Drbg.create ~seed:"test-audit" in
  let ca = Tep_crypto.Pki.create_ca ~name:"CA" drbg in
  let dir = Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca) in
  let alice = Participant.create ~bits:512 ~ca ~name:"alice" drbg in
  Participant.Directory.register dir alice;
  let db = Database.create ~name:"a" in
  ignore (ok (Database.create_table db ~name:"t" (Schema.all_int [ "a"; "b" ])));
  let eng = Engine.create ~directory:dir db in
  for _ = 1 to 3 do
    ignore (ok (Engine.insert_row eng alice ~table:"t" [| Value.Int 0; Value.Int 0 |]))
  done;
  (eng, alice, dir)

let audit eng dir cp =
  Audit.incremental_audit ~algo:(Engine.algo eng) ~directory:dir cp
    (Engine.provstore eng)

let test_full_audit_clean () =
  let eng, _, dir = fixture () in
  let report, cp =
    Audit.full_audit ~algo:(Engine.algo eng) ~directory:dir
      (Engine.provstore eng)
  in
  Alcotest.(check bool) "clean" true (Verifier.ok report);
  Alcotest.(check int) "all objects checkpointed"
    (Provstore.object_count (Engine.provstore eng))
    (Audit.objects cp)

let test_incremental_cost () =
  let eng, alice, dir = fixture () in
  let _, cp = Audit.full_audit ~algo:(Engine.algo eng) ~directory:dir (Engine.provstore eng) in
  (* no new work -> zero records examined *)
  let report, cp, examined = audit eng dir cp in
  Alcotest.(check bool) "clean" true (Verifier.ok report);
  Alcotest.(check int) "nothing re-examined" 0 examined;
  (* one update -> examine exactly its 4 records *)
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 7));
  let report, cp, examined = audit eng dir cp in
  Alcotest.(check bool) "clean" true (Verifier.ok report);
  Alcotest.(check int) "only the delta" 4 examined;
  (* and the next round is zero again *)
  let _, _, examined = audit eng dir cp in
  Alcotest.(check int) "zero again" 0 examined

let test_checkpoint_roundtrip () =
  let eng, alice, dir = fixture () in
  let _, cp = Audit.full_audit ~algo:(Engine.algo eng) ~directory:dir (Engine.provstore eng) in
  let cp' = ok (Audit.of_string (Audit.to_string cp)) in
  Alcotest.(check int) "objects preserved" (Audit.objects cp) (Audit.objects cp');
  ok (Engine.update_cell eng alice ~table:"t" ~row:1 ~col:1 (Value.Int 9));
  let report, _, examined = audit eng dir cp' in
  Alcotest.(check bool) "resumed checkpoint works" true (Verifier.ok report);
  Alcotest.(check int) "delta only" 4 examined;
  (match Audit.of_string "garbage" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (* a TEPAUD1 checkpoint (marks without a chain digest) is refused *)
  let v2 = Audit.to_string cp in
  let v1 = "TEPAUD1" ^ String.sub v2 7 (String.length v2 - 7) in
  match Audit.of_string v1 with
  | Ok _ -> Alcotest.fail "TEPAUD1 accepted"
  | Error _ -> ()

let test_mark_accessor () =
  let eng, _, dir = fixture () in
  let _, cp = Audit.full_audit ~algo:(Engine.algo eng) ~directory:dir (Engine.provstore eng) in
  let root = Engine.root_oid eng in
  match Audit.mark cp root with
  | Some (seq, _) ->
      let latest = Option.get (Provstore.latest (Engine.provstore eng) root) in
      Alcotest.(check int) "marks latest" latest.Record.seq_id seq
  | None -> Alcotest.fail "root not marked"

(* An attacker who rewrites history BEFORE the checkpoint and re-chains
   everything after it still fails: the first post-checkpoint record no
   longer chains onto the audited checksum. *)
let test_pre_checkpoint_rewrite_detected () =
  let eng, alice, dir = fixture () in
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 1));
  let _, cp = Audit.full_audit ~algo:(Engine.algo eng) ~directory:dir (Engine.provstore eng) in
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 2));
  (* simulate a store whose history diverges below the checkpoint: an
     attacker (with alice's key!) rebuilt the cell chain from scratch *)
  let cell = Option.get (Tree_view.cell_oid (Engine.mapping eng) "t" 0 0) in
  let rebuilt = Provstore.create ~algo:(Engine.algo eng) () in
  List.iter
    (fun (r : Record.t) ->
      if not (Oid.equal r.Record.output_oid cell) then Provstore.append rebuilt r)
    (Provstore.all (Engine.provstore eng));
  (* forge a fresh 1-record chain for the cell, properly signed *)
  let h = Tep_crypto.Digest_algo.digest (Engine.algo eng) "fake state" in
  let payload =
    Checksum.payload ~kind:Record.Import ~seq_id:0 ~output_oid:cell
      ~input_hashes:[ h ] ~output_hash:h ~prev_checksums:[]
  in
  Provstore.append rebuilt
    {
      Record.seq_id = 0;
      participant = "alice";
      kind = Record.Import;
      inherited = false;
      input_oids = [ cell ];
      input_hashes = [ h ];
      output_oid = cell;
      output_hash = h;
      output_value = None;
      prev_checksums = [];
      checksum = Checksum.sign alice payload;
    };
  let report, _, _ =
    Audit.incremental_audit ~algo:(Engine.algo eng) ~directory:dir cp rebuilt
  in
  (* the rebuilt chain is internally consistent, but the auditor's
     checkpoint says the cell was at seq >= 1 with a different
     checksum: regression detected *)
  Alcotest.(check bool) "rewrite detected" false (Verifier.ok report)

let test_post_checkpoint_tamper_detected () =
  let eng, alice, dir = fixture () in
  let _, cp = Audit.full_audit ~algo:(Engine.algo eng) ~directory:dir (Engine.provstore eng) in
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 1));
  (* tamper with a NEW record: copy the store, flip a hash *)
  let tampered = Provstore.create ~algo:(Engine.algo eng) () in
  let cell = Option.get (Tree_view.cell_oid (Engine.mapping eng) "t" 0 0) in
  List.iter
    (fun (r : Record.t) ->
      let r =
        if Oid.equal r.Record.output_oid cell && r.Record.seq_id = 1 then
          { r with Record.output_hash = "evil" }
        else r
      in
      Provstore.append tampered r)
    (Provstore.all (Engine.provstore eng));
  let report, _, _ =
    Audit.incremental_audit ~algo:(Engine.algo eng) ~directory:dir cp tampered
  in
  Alcotest.(check bool) "detected" false (Verifier.ok report)

let test_checkpoint_not_advanced_on_failure () =
  let eng, alice, dir = fixture () in
  let _, cp0 = Audit.full_audit ~algo:(Engine.algo eng) ~directory:dir (Engine.provstore eng) in
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 1));
  let cell = Option.get (Tree_view.cell_oid (Engine.mapping eng) "t" 0 0) in
  let tampered = Provstore.create ~algo:(Engine.algo eng) () in
  List.iter
    (fun (r : Record.t) ->
      let r =
        if Oid.equal r.Record.output_oid cell && r.Record.seq_id = 1 then
          { r with Record.output_hash = "evil" }
        else r
      in
      Provstore.append tampered r)
    (Provstore.all (Engine.provstore eng));
  let _, cp1, _ =
    Audit.incremental_audit ~algo:(Engine.algo eng) ~directory:dir cp0 tampered
  in
  (* the tampered object's mark must not move past the checkpoint *)
  Alcotest.(check bool) "mark frozen" true
    (Audit.mark cp1 cell = Audit.mark cp0 cell)

let test_aggregate_across_checkpoint () =
  let eng, alice, dir = fixture () in
  let _, cp = Audit.full_audit ~algo:(Engine.algo eng) ~directory:dir (Engine.provstore eng) in
  (* aggregate two rows AFTER the checkpoint: the new aggregate record
     cites pre-checkpoint records of other objects *)
  let r0 = Option.get (Tree_view.row_oid (Engine.mapping eng) "t" 0) in
  let r1 = Option.get (Tree_view.row_oid (Engine.mapping eng) "t" 1) in
  let _agg = ok (Engine.aggregate_objects eng alice [ r0; r1 ]) in
  let report, cp, examined = audit eng dir cp in
  Alcotest.(check bool) "clean" true (Verifier.ok report);
  Alcotest.(check bool) "only the aggregate examined" true (examined <= 2);
  ignore cp

(* Parallel audits must produce the identical report AND the identical
   checkpoint (compared via its serialised form) as the sequential
   sweep, for both full and incremental audits, clean or tampered. *)
let test_parallel_matches_sequential () =
  let eng, alice, dir = fixture () in
  let algo = Engine.algo eng in
  for i = 0 to 9 do
    ok (Engine.update_cell eng alice ~table:"t" ~row:(i mod 3) ~col:(i mod 2)
          (Value.Int i))
  done;
  let store = Engine.provstore eng in
  (* a mid-history checkpoint so the incremental pass has real deltas *)
  let _, cp0 = Audit.full_audit ~algo ~directory:dir store in
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 999));
  let seq_report, seq_cp = Audit.full_audit ~algo ~directory:dir store in
  let seq_ireport, seq_icp, seq_examined =
    Audit.incremental_audit ~algo ~directory:dir cp0 store
  in
  (* tampered store for the failure path *)
  let cell = Option.get (Tree_view.cell_oid (Engine.mapping eng) "t" 0 0) in
  let tampered = Provstore.create ~algo () in
  List.iter
    (fun (r : Record.t) ->
      let r =
        if Oid.equal r.Record.output_oid cell && r.Record.seq_id = 1 then
          { r with Record.output_hash = "evil" }
        else r
      in
      Provstore.append tampered r)
    (Provstore.all store);
  let seq_treport, seq_tcp = Audit.full_audit ~algo ~directory:dir tampered in
  Alcotest.(check bool) "tampered baseline fails" false (Verifier.ok seq_treport);
  List.iter
    (fun domains ->
      let pool = Tep_parallel.Pool.create ~domains () in
      let name fmt = Printf.sprintf fmt domains in
      let report, cp = Audit.full_audit ~pool ~algo ~directory:dir store in
      Alcotest.(check bool) (name "full report @%d") true (report = seq_report);
      Alcotest.(check string)
        (name "full checkpoint @%d")
        (Audit.to_string seq_cp) (Audit.to_string cp);
      let ireport, icp, examined =
        Audit.incremental_audit ~pool ~algo ~directory:dir cp0 store
      in
      Alcotest.(check bool) (name "incr report @%d") true (ireport = seq_ireport);
      Alcotest.(check int) (name "incr examined @%d") seq_examined examined;
      Alcotest.(check string)
        (name "incr checkpoint @%d")
        (Audit.to_string seq_icp) (Audit.to_string icp);
      let treport, tcp = Audit.full_audit ~pool ~algo ~directory:dir tampered in
      Alcotest.(check bool) (name "tampered report @%d") true (treport = seq_treport);
      Alcotest.(check string)
        (name "tampered checkpoint @%d")
        (Audit.to_string seq_tcp) (Audit.to_string tcp);
      Tep_parallel.Pool.shutdown pool)
    [ 1; 2; 4 ]

(* A copy of [store] with [f] applied to each record in arrival order;
   [None] drops the record. *)
let rebuild store f =
  let copy = Provstore.create ~algo:(Provstore.algo store) () in
  List.iter
    (fun r -> Option.iter (Provstore.append copy) (f r))
    (Provstore.all store);
  copy

(* [r] with a new output hash, properly re-signed by [p]: a rewrite
   whose own signature verifies. *)
let resign p (r : Record.t) =
  let output_hash =
    Tep_crypto.Digest_algo.digest Tep_crypto.Digest_algo.SHA1
      ("forged" ^ r.Record.checksum)
  in
  let payload =
    Checksum.payload ~kind:r.Record.kind ~seq_id:r.Record.seq_id
      ~output_oid:r.Record.output_oid ~input_hashes:r.Record.input_hashes
      ~output_hash ~prev_checksums:r.Record.prev_checksums
  in
  {
    r with
    Record.output_hash;
    output_value = None;
    checksum = Checksum.sign p payload;
  }

(* Cell (0,0) updated to seq 3 and audited there; then its seq-1 record,
   below the mark, is rewritten by [f].  No record lies past the mark,
   so no signature is rechecked: the chain rules over the whole stored
   chain must catch the rewrite, as the verifier does. *)
let check_below_mark_rewrite f =
  let eng, alice, dir = fixture () in
  let algo = Engine.algo eng in
  for v = 1 to 3 do
    ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int v))
  done;
  let cell = Option.get (Tree_view.cell_oid (Engine.mapping eng) "t" 0 0) in
  let report, cp = Audit.full_audit ~algo ~directory:dir (Engine.provstore eng) in
  Alcotest.(check bool) "clean before" true (Verifier.ok report);
  Alcotest.(check (option int)) "marked at seq 3" (Some 3)
    (Option.map fst (Audit.mark cp cell));
  let tampered =
    rebuild (Engine.provstore eng) (fun r ->
        if Oid.equal r.Record.output_oid cell && r.Record.seq_id = 1 then
          f alice r
        else Some r)
  in
  let vreport =
    Verifier.verify_records ~algo ~directory:dir (Provstore.all tampered)
  in
  Alcotest.(check bool) "verifier reports" false (Verifier.ok vreport);
  let report, cp', examined =
    Audit.incremental_audit ~algo ~directory:dir cp tampered
  in
  Alcotest.(check bool) "auditor reports" false (Verifier.ok report);
  Alcotest.(check int) "no signature rechecked" 0 examined;
  Alcotest.(check bool) "mark frozen" true (Audit.mark cp' cell = Audit.mark cp cell)

let test_dropped_below_mark () = check_below_mark_rewrite (fun _ _ -> None)

let test_resigned_below_mark () =
  check_below_mark_rewrite (fun alice r -> Some (resign alice r))

(* Only the signature breaks: the chain rules pass, so only the mark's
   chain digest can catch it. *)
let test_participant_below_mark () =
  check_below_mark_rewrite (fun _ r ->
      Some { r with Record.participant = "mallory" })

let live_objects eng =
  let forest = Engine.forest eng in
  List.concat_map
    (fun root ->
      let acc = ref [] in
      Forest.iter_preorder forest root (fun o _ -> acc := o :: !acc);
      !acc)
    (Forest.roots forest)

(* Row 0 is aggregated, updated (audited at seq 1), deleted and pruned
   back to the seq-0 record the aggregate cites.  Its mark now names a
   record that is gone: the strict anchor reports it, until the marks
   of the objects whose chains prune shortened are forgotten. *)
let test_prune_then_forget () =
  let eng, alice, dir = fixture () in
  let algo = Engine.algo eng in
  let m = Engine.mapping eng in
  let row0 = Option.get (Tree_view.row_oid m "t" 0) in
  let row1 = Option.get (Tree_view.row_oid m "t" 1) in
  ignore (ok (Engine.aggregate_objects eng alice [ row0; row1 ]));
  ok (Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0 (Value.Int 1));
  let _, cp = Audit.full_audit ~algo ~directory:dir (Engine.provstore eng) in
  Alcotest.(check (option int)) "row 0 marked at seq 1" (Some 1)
    (Option.map fst (Audit.mark cp row0));
  ok (Engine.delete_row eng alice ~table:"t" 0);
  let store = Engine.provstore eng in
  let pruned = Provstore.prune store ~live:(live_objects eng) in
  Alcotest.(check int) "row 0 keeps its cited record" 1
    (List.length (Provstore.records_for pruned row0));
  Alcotest.(check bool) "verifier clean" true
    (Verifier.ok
       (Verifier.verify_records ~algo ~directory:dir (Provstore.all pruned)));
  let report, _, _ = Audit.incremental_audit ~algo ~directory:dir cp pruned in
  Alcotest.(check bool) "truncation below the mark reported" false
    (Verifier.ok report);
  let tip st oid =
    Option.map (fun (r : Record.t) -> r.Record.checksum) (Provstore.latest st oid)
  in
  let shortened =
    List.filter (fun oid -> tip pruned oid <> tip store oid) (Provstore.objects store)
  in
  Alcotest.(check bool) "row 0 shortened" true (List.mem row0 shortened);
  let report, _, _ =
    Audit.incremental_audit ~algo ~directory:dir (Audit.forget cp shortened)
      pruned
  in
  Alcotest.(check bool) "clean once forgotten" true (Verifier.ok report)

(* ------------------------------------------------------------------ *)
(* Property: the auditor and the verifier agree on tampering           *)
(* ------------------------------------------------------------------ *)

type prop_op = Insert of int | Update of int * int | Aggregate of int * int

type mutation = Drop | Resign | Edit_hash | Edit_checksum | Edit_participant

let pp_prop_op = function
  | Insert i -> Printf.sprintf "insert %d" i
  | Update (i, v) -> Printf.sprintf "update %d %d" i v
  | Aggregate (i, j) -> Printf.sprintf "aggregate %d %d" i j

let mutation_name = function
  | Drop -> "drop"
  | Resign -> "resign"
  | Edit_hash -> "edit output hash"
  | Edit_checksum -> "edit checksum"
  | Edit_participant -> "edit participant"

(* ops, how many of them run before the checkpoint, the mutation and
   which record (by arrival index, mod the record count) it hits *)
let gen_prop_case =
  QCheck2.Gen.(
    list_size (int_range 1 8)
      (frequency
         [
           (2, map (fun i -> Insert i) (int_range 0 99));
           (3, map2 (fun i v -> Update (i, v)) (int_range 0 99) (int_range 0 999));
           (1, map2 (fun i j -> Aggregate (i, j)) (int_range 0 99) (int_range 0 99));
         ])
    >>= fun ops ->
    quad (return ops)
      (int_range 0 (List.length ops))
      (oneofl [ Drop; Resign; Edit_hash; Edit_checksum; Edit_participant ])
      (int_range 0 999))

let print_prop_case (ops, k, mutation, i) =
  Printf.sprintf "checkpoint after %d of [%s]; %s record %d" k
    (String.concat "; " (List.map pp_prop_op ops))
    (mutation_name mutation) i

let prop_fixture = lazy (fixture ())

let run_prop_op eng alice op =
  let m = Engine.mapping eng in
  let rows = Table.row_count (Database.get_table_exn (Engine.backend eng) "t") in
  match op with
  | Insert i ->
      ignore (ok (Engine.insert_row eng alice ~table:"t" [| Value.Int i; Value.Int i |]))
  | Update (i, v) ->
      ok
        (Engine.update_cell eng alice ~table:"t" ~row:(i mod rows) ~col:(v mod 2)
           (Value.Int v))
  | Aggregate (i, j) ->
      let row k = Option.get (Tree_view.row_oid m "t" (k mod rows)) in
      let inputs = List.sort_uniq Oid.compare [ row i; row j ] in
      ignore (ok (Engine.aggregate_objects eng alice inputs))

(* After one mutation at any record, the incremental audit from the
   checkpoint reports tampering exactly when the verifier does, save
   that dropping or re-signing the marked record itself fails the
   anchor, which the memoryless verifier lacks.
   A full audit reports the same violations (as a multiset) and
   counters as the verifier. *)
let prop_auditor_agrees =
  QCheck2.Test.make ~name:"auditor agrees with verifier" ~count:60
    ~print:print_prop_case gen_prop_case (fun (ops, k, mutation, i) ->
      let _, alice, dir = Lazy.force prop_fixture in
      let db = Database.create ~name:"prop" in
      ignore (ok (Database.create_table db ~name:"t" (Schema.all_int [ "a"; "b" ])));
      let eng = Engine.create ~directory:dir db in
      ignore (ok (Engine.insert_row eng alice ~table:"t" [| Value.Int 0; Value.Int 0 |]));
      let algo = Engine.algo eng in
      let cp = ref Audit.empty in
      List.iteri
        (fun n op ->
          if n = k then
            cp := snd (Audit.full_audit ~algo ~directory:dir (Engine.provstore eng));
          run_prop_op eng alice op)
        ops;
      if k = List.length ops then
        cp := snd (Audit.full_audit ~algo ~directory:dir (Engine.provstore eng));
      let cp = !cp in
      let records = Provstore.all (Engine.provstore eng) in
      let target = List.nth records (i mod List.length records) in
      let mutated =
        rebuild (Engine.provstore eng) (fun (r : Record.t) ->
            if not (String.equal r.Record.checksum target.Record.checksum) then
              Some r
            else
              match mutation with
              | Drop -> None
              | Resign -> Some (resign alice r)
              | Edit_hash -> Some { r with Record.output_hash = "evil" }
              | Edit_checksum ->
                  Some { r with Record.checksum = "forged" ^ r.Record.checksum }
              | Edit_participant -> Some { r with Record.participant = "mallory" })
      in
      let vreport =
        Verifier.verify_records ~algo ~directory:dir (Provstore.all mutated)
      in
      let ireport, _, _ = Audit.incremental_audit ~algo ~directory:dir cp mutated in
      let freport, _ = Audit.full_audit ~algo ~directory:dir mutated in
      let mark = Option.map fst (Audit.mark cp target.Record.output_oid) in
      let seq = target.Record.seq_id in
      let expected =
        match (mutation, mark) with
        | (Drop | Resign), Some m when seq = m -> false
        | _ -> Verifier.ok vreport
      in
      let counters (r : Verifier.report) =
        (r.Verifier.records_checked, r.Verifier.objects_checked,
         r.Verifier.signatures_checked)
      in
      if Verifier.ok ireport <> expected then
        QCheck2.Test.fail_reportf "incremental ok = %b, verifier ok = %b"
          (Verifier.ok ireport) (Verifier.ok vreport)
      else
        List.sort compare freport.Verifier.violations
        = List.sort compare vreport.Verifier.violations
        && counters freport = counters vreport)

let () =
  Alcotest.run "audit"
    [
      ( "unit",
        [
          Alcotest.test_case "full audit" `Quick test_full_audit_clean;
          Alcotest.test_case "incremental cost" `Quick test_incremental_cost;
          Alcotest.test_case "checkpoint roundtrip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "mark accessor" `Quick test_mark_accessor;
          Alcotest.test_case "pre-checkpoint rewrite" `Quick
            test_pre_checkpoint_rewrite_detected;
          Alcotest.test_case "post-checkpoint tamper" `Quick
            test_post_checkpoint_tamper_detected;
          Alcotest.test_case "checkpoint frozen on failure" `Quick
            test_checkpoint_not_advanced_on_failure;
          Alcotest.test_case "aggregate across checkpoint" `Quick
            test_aggregate_across_checkpoint;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "record dropped below the mark" `Quick
            test_dropped_below_mark;
          Alcotest.test_case "record re-signed below the mark" `Quick
            test_resigned_below_mark;
          Alcotest.test_case "participant edited below the mark" `Quick
            test_participant_below_mark;
          Alcotest.test_case "prune, then forget" `Quick test_prune_then_forget;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_auditor_agrees ]);
    ]
