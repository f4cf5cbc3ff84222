(* DAG reconstruction from record lists. *)
open Tep_tree
open Tep_core

let mk ?(kind = Record.Update) ?(prevs = []) ~seq ~oid ~checksum () =
  {
    Record.seq_id = seq;
    participant = Printf.sprintf "p%d" (seq mod 3);
    kind;
    inherited = false;
    input_oids = [];
    input_hashes = [];
    output_oid = Oid.of_int oid;
    output_hash = "";
    output_value = None;
    prev_checksums = prevs;
    checksum;
  }

(* the Figure 2 shape: A chain, B chain, C aggregate, D aggregate *)
let figure2_records =
  [
    mk ~kind:Record.Insert ~seq:0 ~oid:1 ~checksum:"C1" ();
    mk ~kind:Record.Insert ~seq:0 ~oid:2 ~checksum:"C2" ();
    mk ~seq:1 ~oid:1 ~checksum:"C3" ~prevs:[ "C1" ] ();
    mk ~seq:1 ~oid:2 ~checksum:"C4" ~prevs:[ "C2" ] ();
    mk ~seq:2 ~oid:1 ~checksum:"C5" ~prevs:[ "C3" ] ();
    mk ~kind:Record.Aggregate ~seq:2 ~oid:3 ~checksum:"C6" ~prevs:[ "C1"; "C4" ] ();
    mk ~kind:Record.Aggregate ~seq:3 ~oid:4 ~checksum:"C7" ~prevs:[ "C5"; "C6" ] ();
  ]

let test_build_figure2 () =
  let dag = Dag.build figure2_records in
  Alcotest.(check int) "7 records" 7 (Dag.size dag);
  Alcotest.(check int) "2 roots (inserts)" 2 (List.length (Dag.roots dag));
  Alcotest.(check bool) "non-linear" false (Dag.is_linear dag);
  Alcotest.(check (list (pair int string))) "no dangling" [] (Dag.dangling dag);
  Alcotest.(check int) "depth: C1->C3->C5->C7" 4 (Dag.depth dag)

(* Depth follows the edges in topological order, not seq order: here
   the oldest record is the chain's tip. *)
let test_topological () =
  let records =
    [
      mk ~seq:0 ~oid:1 ~checksum:"x" ~prevs:[ "y" ] ();
      mk ~seq:1 ~oid:1 ~checksum:"y" ~prevs:[ "z" ] ();
      mk ~kind:Record.Insert ~seq:2 ~oid:1 ~checksum:"z" ();
    ]
  in
  let dag = Dag.build records in
  Alcotest.(check (list int)) "root is the newest" [ 2 ] (Dag.roots dag);
  Alcotest.(check int) "depth z->y->x" 3 (Dag.depth dag)

let test_cycle () =
  let records =
    [
      mk ~seq:0 ~oid:1 ~checksum:"a" ~prevs:[ "b" ] ();
      mk ~seq:1 ~oid:1 ~checksum:"b" ~prevs:[ "a" ] ();
    ]
  in
  let dag = Dag.build records in
  Alcotest.(check (list int)) "no roots" [] (Dag.roots dag);
  Alcotest.check_raises "depth" (Failure "Dag.topological: cycle") (fun () ->
      ignore (Dag.depth dag))

let test_linear_chain () =
  let records =
    [
      mk ~kind:Record.Insert ~seq:0 ~oid:1 ~checksum:"a" ();
      mk ~seq:1 ~oid:1 ~checksum:"b" ~prevs:[ "a" ] ();
      mk ~seq:2 ~oid:1 ~checksum:"c" ~prevs:[ "b" ] ();
    ]
  in
  let dag = Dag.build records in
  Alcotest.(check bool) "linear" true (Dag.is_linear dag);
  Alcotest.(check int) "depth" 3 (Dag.depth dag)

let test_dangling () =
  let records = [ mk ~seq:1 ~oid:1 ~checksum:"b" ~prevs:[ "removed" ] () ] in
  let dag = Dag.build records in
  Alcotest.(check int) "one dangling" 1 (List.length (Dag.dangling dag))

let test_records_of_participant () =
  let dag = Dag.build figure2_records in
  let total =
    List.fold_left
      (fun acc p -> acc + List.length (Dag.records_of_participant dag p))
      0 [ "p0"; "p1"; "p2" ]
  in
  Alcotest.(check int) "partitioned" 7 total

let test_empty () =
  let dag = Dag.build [] in
  Alcotest.(check int) "size" 0 (Dag.size dag);
  Alcotest.(check int) "depth" 0 (Dag.depth dag)

let test_to_dot () =
  let dot = Dag.to_dot (Dag.build figure2_records) in
  let contains sub =
    let n = String.length sub and m = String.length dot in
    let rec go i = i + n <= m && (String.sub dot i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph provenance");
  Alcotest.(check bool) "edges" true (contains "->");
  Alcotest.(check bool) "aggregate label" true (contains "aggregate")

let () =
  Alcotest.run "dag"
    [
      ( "unit",
        [
          Alcotest.test_case "figure2 shape" `Quick test_build_figure2;
          Alcotest.test_case "topological" `Quick test_topological;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "linear chain" `Quick test_linear_chain;
          Alcotest.test_case "dangling" `Quick test_dangling;
          Alcotest.test_case "records_of_participant" `Quick
            test_records_of_participant;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "to_dot" `Quick test_to_dot;
        ] );
    ]
