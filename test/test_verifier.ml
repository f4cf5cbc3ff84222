(* Recipient-side verification: honest histories pass; every R1-R8
   attack from the threat model is detected.  Includes qcheck
   properties over random histories. *)
open Tep_store
open Tep_tree
open Tep_core

let ok = function Ok v -> v | Error e -> Alcotest.fail e

type fixture = {
  eng : Engine.t;
  alice : Participant.t;
  bob : Participant.t;
  eve : Participant.t; (* insider attacker with valid credentials *)
  dir : Participant.Directory.t;
}

let setup () =
  let drbg = Tep_crypto.Drbg.create ~seed:"test-verifier" in
  let ca = Tep_crypto.Pki.create_ca ~name:"CA" drbg in
  let dir = Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca) in
  let mk name =
    let p = Participant.create ~ca ~name drbg in
    Participant.Directory.register dir p;
    p
  in
  let alice = mk "alice" and bob = mk "bob" and eve = mk "eve" in
  let db = Database.create ~name:"vdb" in
  let t = ok (Database.create_table db ~name:"t" (Schema.all_int [ "a"; "b" ])) in
  for i = 0 to 4 do
    ignore (Table.insert t [| Value.Int i; Value.Int (10 * i) |])
  done;
  let eng = Engine.create ~directory:dir db in
  { eng; alice; bob; eve; dir }

(* a history with several participants and ops, delivering the root *)
let history f =
  ok (Engine.update_cell f.eng f.alice ~table:"t" ~row:0 ~col:0 (Value.Int 100));
  ok (Engine.update_cell f.eng f.bob ~table:"t" ~row:1 ~col:1 (Value.Int 200));
  ok (Engine.update_cell f.eng f.alice ~table:"t" ~row:0 ~col:0 (Value.Int 300));
  ignore (ok (Engine.insert_row f.eng f.bob ~table:"t" [| Value.Int 9; Value.Int 9 |]));
  ok (Engine.delete_row f.eng f.alice ~table:"t" 2)

let deliver_root f = ok (Engine.deliver f.eng (Engine.root_oid f.eng))

let verify f data records =
  Verifier.verify ~algo:(Engine.algo f.eng) ~directory:f.dir ~data records

let has_violation report pred = List.exists pred report.Verifier.violations

let test_honest_history_verifies () =
  let f = setup () in
  history f;
  let data, records = deliver_root f in
  let report = verify f data records in
  Alcotest.(check bool) "ok" true (Verifier.ok report);
  Alcotest.(check bool) "checked signatures" true
    (report.Verifier.signatures_checked > 0);
  (* every object's provenance verifies too *)
  let cell = Option.get (Tree_view.cell_oid (Engine.mapping f.eng) "t" 0 0) in
  Alcotest.(check bool) "cell ok" true (Verifier.ok (ok (Engine.verify_object f.eng cell)))

(* R1: modifying another participant's record contents. *)
let test_r1_modify_contents () =
  let f = setup () in
  history f;
  let data, records = deliver_root f in
  let tampered = Tamper.modify_output_hash ~idx:1 records in
  let report = verify f data tampered in
  Alcotest.(check bool) "detected" false (Verifier.ok report);
  Alcotest.(check bool) "as signature failure" true
    (has_violation report (function Verifier.Bad_signature _ -> true | _ -> false))

(* R1 insider: attacker alters a record and re-signs with her own key. *)
let test_r1_resign_as_attacker () =
  let f = setup () in
  history f;
  let data, records = deliver_root f in
  let tampered = Tamper.resign_as ~idx:1 ~attacker:f.eve records in
  let report = verify f data tampered in
  Alcotest.(check bool) "detected" false (Verifier.ok report);
  (* her signature is valid, so detection comes from broken linkage *)
  Alcotest.(check bool) "as broken link" true
    (has_violation report (function
      | Verifier.Broken_link _ | Verifier.Object_mismatch _ -> true
      | _ -> false))

(* R2: removing records. *)
let test_r2_remove_record () =
  let f = setup () in
  history f;
  let data, records = deliver_root f in
  (* remove a middle record of the root chain (root has 5 records) *)
  let root_idx =
    List.mapi (fun i r -> (i, r)) records
    |> List.filter (fun (_, r) ->
           Oid.equal r.Record.output_oid (Engine.root_oid f.eng))
    |> fun l -> fst (List.nth l (List.length l / 2))
  in
  let report = verify f data (Tamper.remove ~idx:root_idx records) in
  Alcotest.(check bool) "detected" false (Verifier.ok report)

(* R3: inserting a forged record into the middle of a chain. *)
let test_r3_insert_record () =
  let f = setup () in
  history f;
  let data, records = deliver_root f in
  let root_first =
    List.mapi (fun i r -> (i, r)) records
    |> List.find (fun (_, r) ->
           Oid.equal r.Record.output_oid (Engine.root_oid f.eng))
    |> fst
  in
  let forged = ok (Tamper.insert_forged ~after:root_first ~attacker:f.eve records) in
  let report = verify f data forged in
  Alcotest.(check bool) "detected" false (Verifier.ok report);
  Alcotest.(check bool) "duplicate seq or broken link" true
    (has_violation report (function
      | Verifier.Duplicate_seq _ | Verifier.Broken_link _
      | Verifier.Object_mismatch _ ->
          true
      | _ -> false))

(* R4: modifying data without submitting provenance. *)
let test_r4_modify_data () =
  let f = setup () in
  history f;
  let data, records = deliver_root f in
  let report = verify f (Tamper.tamper_data_value data) records in
  Alcotest.(check bool) "detected" false (Verifier.ok report);
  Alcotest.(check bool) "as object mismatch" true
    (has_violation report (function Verifier.Object_mismatch _ -> true | _ -> false))

(* R5: attributing P to a different data object. *)
let test_r5_reassign_provenance () =
  let f = setup () in
  history f;
  let _, records = deliver_root f in
  (* same provenance, different object (same oid, different content) *)
  let data, _ = deliver_root f in
  let other = Tamper.reassign_provenance data in
  let report = verify f other records in
  Alcotest.(check bool) "detected" false (Verifier.ok report)

(* R6: colluders cannot insert a non-colluder's record between them. *)
let test_r6_collusion_insert () =
  let f = setup () in
  history f;
  let data, records = deliver_root f in
  (* eve forges a record claiming bob performed an extra operation *)
  let root_first =
    List.mapi (fun i r -> (i, r)) records
    |> List.find (fun (_, r) ->
           Oid.equal r.Record.output_oid (Engine.root_oid f.eng))
    |> fst
  in
  let forged = ok (Tamper.insert_forged ~after:root_first ~attacker:f.eve records) in
  (* ... and reattributes it to bob (non-colluder) *)
  let forged_as_bob =
    Tamper.reattribute ~idx:(root_first + 1) ~to_:"bob" forged
  in
  let report = verify f data forged_as_bob in
  Alcotest.(check bool) "detected" false (Verifier.ok report);
  Alcotest.(check bool) "signature failure present" true
    (has_violation report (function Verifier.Bad_signature _ -> true | _ -> false))

(* R7: colluders cannot remove a non-colluder's records between them
   when a successor exists. *)
let test_r7_collusion_remove () =
  let f = setup () in
  (* alice(seq0) bob(seq1) alice(seq2) alice(seq3) on one cell *)
  ok (Engine.update_cell f.eng f.alice ~table:"t" ~row:3 ~col:0 (Value.Int 1));
  ok (Engine.update_cell f.eng f.bob ~table:"t" ~row:3 ~col:0 (Value.Int 2));
  ok (Engine.update_cell f.eng f.alice ~table:"t" ~row:3 ~col:0 (Value.Int 3));
  ok (Engine.update_cell f.eng f.alice ~table:"t" ~row:3 ~col:0 (Value.Int 4));
  let cell = Option.get (Tree_view.cell_oid (Engine.mapping f.eng) "t" 3 0) in
  let data, records = ok (Engine.deliver f.eng cell) in
  Alcotest.(check int) "4 records" 4 (List.length records);
  (* colluders: the two alices around bob; they bridge 0 -> 2 and
     re-sign record 2, removing bob's record 1 *)
  let resign name = if name = "alice" then Some f.alice else None in
  let colluded = ok (Tamper.collude_remove_span ~first:0 ~last:2 ~resign records) in
  let report =
    Verifier.verify ~algo:(Engine.algo f.eng) ~directory:f.dir ~data colluded
  in
  (* detected because alice's seq-3 record still cites the old chain *)
  Alcotest.(check bool) "detected" false (Verifier.ok report)

(* R8: non-repudiation — reattributing a record to someone else fails
   because the signature identifies the true signer. *)
let test_r8_non_repudiation () =
  let f = setup () in
  history f;
  let data, records = deliver_root f in
  let swap (r : Record.t) = if r.Record.participant = "alice" then "bob" else "alice" in
  let idx = ref (-1) in
  List.iteri (fun i (_ : Record.t) -> if !idx = -1 then idx := i) records;
  let tampered =
    List.mapi
      (fun i r ->
        if i = !idx then { r with Record.participant = swap r } else r)
      records
  in
  let report = verify f data tampered in
  Alcotest.(check bool) "detected" false (Verifier.ok report)

let test_empty_provenance () =
  let f = setup () in
  let data, _ = deliver_root f in
  let report = verify f data [] in
  Alcotest.(check bool) "no provenance flagged" true
    (has_violation report (function Verifier.No_provenance _ -> true | _ -> false))

let test_verify_records_only () =
  let f = setup () in
  history f;
  let _, records = deliver_root f in
  let report =
    Verifier.verify_records ~directory:f.dir records
  in
  Alcotest.(check bool) "audit ok" true (Verifier.ok report)

(* Parallel verification must be indistinguishable from sequential:
   same report value and same rendered text, for clean and tampered
   histories alike, at every pool size. *)
let test_parallel_determinism () =
  let f = setup () in
  history f;
  let data, records = deliver_root f in
  let tampered = Tamper.modify_output_hash ~idx:1 records in
  let render r = Format.asprintf "%a" Verifier.pp_report r in
  let algo = Engine.algo f.eng in
  let seq_data = verify f data records in
  let seq_clean = Verifier.verify_records ~directory:f.dir records in
  let seq_bad = Verifier.verify_records ~directory:f.dir tampered in
  Alcotest.(check bool) "tampered baseline fails" false (Verifier.ok seq_bad);
  List.iter
    (fun domains ->
      let pool = Tep_parallel.Pool.create ~domains () in
      let name fmt = Printf.sprintf fmt domains in
      let par_data =
        Verifier.verify ~pool ~algo ~directory:f.dir ~data records
      in
      let par_clean = Verifier.verify_records ~pool ~directory:f.dir records in
      let par_bad = Verifier.verify_records ~pool ~directory:f.dir tampered in
      Alcotest.(check bool) (name "verify equal @%d") true (par_data = seq_data);
      Alcotest.(check bool) (name "clean equal @%d") true (par_clean = seq_clean);
      Alcotest.(check bool) (name "tampered equal @%d") true (par_bad = seq_bad);
      Alcotest.(check string)
        (name "clean render @%d") (render seq_clean) (render par_clean);
      Alcotest.(check string)
        (name "tampered render @%d") (render seq_bad) (render par_bad);
      Alcotest.(check bool) (name "Bad_signature kept @%d") true
        (List.exists
           (function Verifier.Bad_signature _ -> true | _ -> false)
           par_bad.Verifier.violations);
      Tep_parallel.Pool.shutdown pool)
    [ 1; 2; 4; 8 ]

let test_violation_strings () =
  (* every violation constructor renders *)
  let oid = Oid.of_int 1 in
  List.iter
    (fun v ->
      Alcotest.(check bool) "non-empty" true
        (String.length (Verifier.violation_to_string v) > 0))
    [
      Verifier.No_provenance oid;
      Verifier.Object_mismatch { oid; expected = "a"; actual = "b" };
      Verifier.Bad_signature { oid; seq = 1; reason = "r" };
      Verifier.Duplicate_seq { oid; seq = 1 };
      Verifier.Seq_gap { oid; after_seq = 1; found_seq = 3 };
      Verifier.First_record_invalid { oid; reason = "r" };
      Verifier.Broken_link { oid; seq = 1; reason = "r" };
      Verifier.Dangling_prev { oid; seq = 1; missing = "m" };
      Verifier.Malformed { oid; seq = 1; reason = "r" };
    ]

(* --- properties over random histories --- *)

type op_choice = OUpd of int * int * int | OIns | ODel of int

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 12)
      (oneof
         [
           map3 (fun r c v -> OUpd (r, c, v)) (int_range 0 4) (int_range 0 1)
             (int_range 0 1000);
           return OIns;
           map (fun r -> ODel r) (int_range 0 4);
         ]))

let run_ops f ops =
  List.iter
    (fun op ->
      let p = f.alice in
      match op with
      | OUpd (r, c, v) ->
          ignore (Engine.update_cell f.eng p ~table:"t" ~row:r ~col:c (Value.Int v))
      | OIns -> ignore (Engine.insert_row f.eng p ~table:"t" [| Value.Int 0; Value.Int 0 |])
      | ODel r -> ignore (Engine.delete_row f.eng p ~table:"t" r))
    ops

let prop_honest_histories_verify =
  QCheck2.Test.make ~name:"every honest history verifies" ~count:25 gen_ops
    (fun ops ->
      let f = setup () in
      run_ops f ops;
      let data, records = deliver_root f in
      Verifier.ok (verify f data records))

let prop_single_tamper_detected =
  QCheck2.Test.make ~name:"any single record hash-tamper is detected" ~count:25
    QCheck2.Gen.(pair gen_ops (int_range 0 1000))
    (fun (ops, pick) ->
      let f = setup () in
      run_ops f ops;
      let data, records = deliver_root f in
      QCheck2.assume (records <> []);
      let idx = pick mod List.length records in
      let tampered = Tamper.modify_output_hash ~idx records in
      not (Verifier.ok (verify f data tampered)))

let () =
  Alcotest.run "verifier"
    [
      ( "honest",
        [
          Alcotest.test_case "honest history" `Quick
            test_honest_history_verifies;
          Alcotest.test_case "records-only audit" `Quick
            test_verify_records_only;
          Alcotest.test_case "empty provenance" `Quick test_empty_provenance;
          Alcotest.test_case "parallel determinism" `Quick
            test_parallel_determinism;
          Alcotest.test_case "violation rendering" `Quick
            test_violation_strings;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "R1 modify contents" `Quick test_r1_modify_contents;
          Alcotest.test_case "R1 insider resign" `Quick
            test_r1_resign_as_attacker;
          Alcotest.test_case "R2 remove record" `Quick test_r2_remove_record;
          Alcotest.test_case "R3 insert record" `Quick test_r3_insert_record;
          Alcotest.test_case "R4 modify data" `Quick test_r4_modify_data;
          Alcotest.test_case "R5 reassign provenance" `Quick
            test_r5_reassign_provenance;
          Alcotest.test_case "R6 collusion insert" `Quick
            test_r6_collusion_insert;
          Alcotest.test_case "R7 collusion remove" `Quick
            test_r7_collusion_remove;
          Alcotest.test_case "R8 non-repudiation" `Quick
            test_r8_non_repudiation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_honest_histories_verify; prop_single_tamper_detected ] );
    ]
