(* Provenance store: chains, DAG closure, relational view, codec. *)
open Tep_store
open Tep_tree
open Tep_core

let mk_rec ?(kind = Record.Update) ?(prevs = []) ?(inputs = []) ~seq ~oid
    ~checksum () =
  {
    Record.seq_id = seq;
    participant = "p";
    kind;
    inherited = false;
    input_oids = List.map fst inputs;
    input_hashes = List.map snd inputs;
    output_oid = Oid.of_int oid;
    output_hash = Printf.sprintf "h-%d-%d" oid seq;
    output_value = None;
    prev_checksums = prevs;
    checksum;
  }

let test_append_latest () =
  let s = Provstore.create () in
  Provstore.append s (mk_rec ~kind:Record.Insert ~seq:0 ~oid:1 ~checksum:"c0" ());
  Provstore.append s (mk_rec ~seq:1 ~oid:1 ~checksum:"c1" ());
  Provstore.append s (mk_rec ~kind:Record.Insert ~seq:0 ~oid:2 ~checksum:"c2" ());
  Alcotest.(check int) "count" 3 (Provstore.record_count s);
  Alcotest.(check int) "objects" 2 (Provstore.object_count s);
  (match Provstore.latest s (Oid.of_int 1) with
  | Some r -> Alcotest.(check int) "latest seq" 1 r.Record.seq_id
  | None -> Alcotest.fail "missing");
  Alcotest.(check int) "records_for" 2
    (List.length (Provstore.records_for s (Oid.of_int 1)));
  Alcotest.(check bool) "find_by_checksum" true
    (Provstore.find_by_checksum s "c1" <> None)

let test_seq_monotonic () =
  let s = Provstore.create () in
  Provstore.append s (mk_rec ~seq:5 ~oid:1 ~checksum:"a" ());
  Alcotest.(check bool) "regression rejected" true
    (try
       Provstore.append s (mk_rec ~seq:5 ~oid:1 ~checksum:"b" ());
       false
     with Invalid_argument _ -> true)

let test_provenance_object_closure () =
  (* A and B feed an aggregate C; closure from C pulls in everything. *)
  let s = Provstore.create () in
  Provstore.append s (mk_rec ~kind:Record.Insert ~seq:0 ~oid:1 ~checksum:"a0" ());
  Provstore.append s
    (mk_rec ~seq:1 ~oid:1 ~checksum:"a1" ~prevs:[ "a0" ]
       ~inputs:[ (Oid.of_int 1, "h-1-0") ] ());
  Provstore.append s (mk_rec ~kind:Record.Insert ~seq:0 ~oid:2 ~checksum:"b0" ());
  Provstore.append s
    (mk_rec ~kind:Record.Aggregate ~seq:2 ~oid:3 ~checksum:"c0"
       ~prevs:[ "a1"; "b0" ]
       ~inputs:[ (Oid.of_int 1, "h-1-1"); (Oid.of_int 2, "h-2-0") ]
       ());
  let prov = Provstore.provenance_object s (Oid.of_int 3) in
  Alcotest.(check int) "closure size" 4 (List.length prov);
  (* closure of A alone excludes B and C *)
  Alcotest.(check int) "A closure" 2
    (List.length (Provstore.provenance_object s (Oid.of_int 1)));
  (* sorted by seq *)
  let seqs = List.map (fun r -> r.Record.seq_id) prov in
  Alcotest.(check (list int)) "sorted" (List.sort compare seqs) seqs

let test_relation_mirror () =
  let s = Provstore.create () in
  Provstore.append s (mk_rec ~kind:Record.Insert ~seq:0 ~oid:1 ~checksum:"x" ());
  Provstore.append s (mk_rec ~seq:1 ~oid:1 ~checksum:"y" ());
  let rel = Provstore.relation s in
  Alcotest.(check int) "rows" 2 (Table.row_count rel);
  Alcotest.(check int) "4 columns" 4 (Schema.arity (Table.schema rel));
  (* space accounting *)
  Alcotest.(check int) "paper bytes" (2 * 140) (Provstore.paper_space_bytes s);
  Alcotest.(check bool) "encoded bytes positive" true (Provstore.space_bytes s > 0)

(* The relation is built from the records on demand; its encoded size
   is pinned, so a change to the rows it builds (their order, the
   participant numbering, a column) shows. *)
let test_space_bytes_pinned () =
  let s = Provstore.create () in
  let add ?kind ?prevs ?inputs ~participant ~seq ~oid ~checksum () =
    Provstore.append s
      { (mk_rec ?kind ?prevs ?inputs ~seq ~oid ~checksum ()) with
        Record.participant }
  in
  add ~kind:Record.Insert ~participant:"alice" ~seq:0 ~oid:1 ~checksum:"a0" ();
  add ~kind:Record.Insert ~participant:"bob" ~seq:0 ~oid:2 ~checksum:"b0" ();
  add ~participant:"carol" ~seq:1 ~oid:1 ~checksum:"a1" ~prevs:[ "a0" ]
    ~inputs:[ (Oid.of_int 1, "h-1-0") ] ();
  add ~kind:Record.Aggregate ~participant:"bob" ~seq:2 ~oid:300
    ~checksum:(String.make 20 '\xab') ~prevs:[ "a1"; "b0" ]
    ~inputs:[ (Oid.of_int 1, "h-1-1"); (Oid.of_int 2, "h-2-0") ] ();
  add ~participant:"alice" ~seq:70_000 ~oid:2 ~checksum:"b1" ~prevs:[ "b0" ]
    ~inputs:[ (Oid.of_int 2, "h-2-0") ] ();
  Alcotest.(check int) "rows" 5 (Table.row_count (Provstore.relation s));
  Alcotest.(check int) "encoded bytes" 129 (Provstore.space_bytes s)

let test_serialisation () =
  let s = Provstore.create () in
  Provstore.append s (mk_rec ~kind:Record.Insert ~seq:0 ~oid:1 ~checksum:"c0" ());
  Provstore.append s
    (mk_rec ~seq:1 ~oid:1 ~checksum:"c1" ~prevs:[ "c0" ]
       ~inputs:[ (Oid.of_int 1, "h-1-0") ] ());
  match Provstore.of_string (Provstore.to_string s) with
  | Ok s' ->
      Alcotest.(check int) "count" 2 (Provstore.record_count s');
      Alcotest.(check bool) "latest" true
        ((Option.get (Provstore.latest s' (Oid.of_int 1))).Record.seq_id = 1)
  | Error e -> Alcotest.fail e

let test_serialisation_garbage () =
  (match Provstore.of_string "garbage" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match Provstore.of_string "TEPPROV1zzz\n\x05" with
  | Ok _ -> Alcotest.fail "bad algo accepted"
  | Error _ -> ()

(* A store followed by stray bytes is damaged, not a store: once the
   loader ignored them. *)
let test_trailing_bytes () =
  let s = Provstore.create () in
  Provstore.append s (mk_rec ~kind:Record.Insert ~seq:0 ~oid:1 ~checksum:"c0" ());
  match Provstore.of_string (Provstore.to_string s ^ "GARBAGE") with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error _ -> ()

let test_all_arrival_order () =
  let s = Provstore.create () in
  Provstore.append s (mk_rec ~kind:Record.Insert ~seq:0 ~oid:2 ~checksum:"b" ());
  Provstore.append s (mk_rec ~kind:Record.Insert ~seq:0 ~oid:1 ~checksum:"a" ());
  Alcotest.(check (list string)) "arrival order" [ "b"; "a" ]
    (List.map (fun r -> r.Record.checksum) (Provstore.all s))

let test_prune () =
  let s = Provstore.create () in
  (* A: insert + update; B: insert; C = agg(A@1, B@0); then A updated
     again; D: insert (dead, feeds nothing) *)
  Provstore.append s (mk_rec ~kind:Record.Insert ~seq:0 ~oid:1 ~checksum:"a0" ());
  Provstore.append s
    (mk_rec ~seq:1 ~oid:1 ~checksum:"a1" ~prevs:[ "a0" ]
       ~inputs:[ (Oid.of_int 1, "h-1-0") ] ());
  Provstore.append s (mk_rec ~kind:Record.Insert ~seq:0 ~oid:2 ~checksum:"b0" ());
  Provstore.append s
    (mk_rec ~kind:Record.Aggregate ~seq:2 ~oid:3 ~checksum:"c0"
       ~prevs:[ "a1"; "b0" ]
       ~inputs:[ (Oid.of_int 1, "h-1-1"); (Oid.of_int 2, "h-2-0") ]
       ());
  Provstore.append s
    (mk_rec ~seq:2 ~oid:1 ~checksum:"a2" ~prevs:[ "a1" ]
       ~inputs:[ (Oid.of_int 1, "h-1-1") ] ());
  Provstore.append s (mk_rec ~kind:Record.Insert ~seq:0 ~oid:4 ~checksum:"d0" ());
  Alcotest.(check int) "before" 6 (Provstore.record_count s);
  (* only C is live: keep C + its cited prefixes of A and B; drop A@2 and D *)
  let p = Provstore.prune s ~live:[ Oid.of_int 3 ] in
  Alcotest.(check int) "after" 4 (Provstore.record_count p);
  Alcotest.(check bool) "A@2 dropped" true
    (Provstore.find_by_checksum p "a2" = None);
  Alcotest.(check bool) "D dropped" true
    (Provstore.find_by_checksum p "d0" = None);
  Alcotest.(check bool) "cited prefix kept" true
    (Provstore.find_by_checksum p "a0" <> None
    && Provstore.find_by_checksum p "a1" <> None);
  (* original untouched *)
  Alcotest.(check int) "original intact" 6 (Provstore.record_count s);
  (* pruning with everything live is the identity on counts *)
  let full = Provstore.prune s ~live:(Provstore.objects s) in
  Alcotest.(check int) "identity" 6 (Provstore.record_count full)

(* [objects] is read off the ordered index that [append] keeps, so it
   must agree with the records themselves however the store was
   built: objects created out of oid order, reloaded (a reload
   rebuilds by appending) and pruned to a random live set.  Each
   record cites its object's previous one, so a pruned store keeps
   every chain of a live object whole. *)
let prop_objects_index =
  QCheck2.Test.make ~name:"objects = the records' oids, sorted" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 80) (int_range 0 200))
        (list_size (int_range 0 20) (int_range 0 200)))
    (fun (events, live) ->
      let s = Provstore.create () in
      let next = Hashtbl.create 16 in
      List.iter
        (fun oid ->
          let seq = Option.value (Hashtbl.find_opt next oid) ~default:0 in
          Hashtbl.replace next oid (seq + 1);
          let checksum seq = Printf.sprintf "c-%d-%d" oid seq in
          Provstore.append s
            (mk_rec
               ~kind:(if seq = 0 then Record.Insert else Record.Update)
               ~prevs:(if seq = 0 then [] else [ checksum (seq - 1) ])
               ~seq ~oid ~checksum:(checksum seq) ()))
        events;
      let agrees s =
        Provstore.objects s
        = List.sort_uniq Oid.compare
            (List.map (fun r -> r.Record.output_oid) (Provstore.all s))
      in
      let reloaded =
        match Provstore.of_string (Provstore.to_string s) with
        | Ok s' -> s'
        | Error e -> QCheck2.Test.fail_report e
      in
      agrees s && agrees reloaded
      && agrees (Provstore.prune s ~live:(List.map Oid.of_int live)))

let () =
  Alcotest.run "provstore"
    [
      ( "unit",
        [
          Alcotest.test_case "append/latest" `Quick test_append_latest;
          Alcotest.test_case "seq monotonic" `Quick test_seq_monotonic;
          Alcotest.test_case "closure" `Quick test_provenance_object_closure;
          Alcotest.test_case "relation mirror" `Quick test_relation_mirror;
          Alcotest.test_case "space_bytes pinned" `Quick
            test_space_bytes_pinned;
          Alcotest.test_case "serialisation" `Quick test_serialisation;
          Alcotest.test_case "garbage" `Quick test_serialisation_garbage;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes;
          Alcotest.test_case "arrival order" `Quick test_all_arrival_order;
          Alcotest.test_case "prune" `Quick test_prune;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_objects_index ]);
    ]
