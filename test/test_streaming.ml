(* Streaming hashing: agreement with the in-memory tree hash, bounded
   row-pull interface, error handling. *)
open Tep_store
open Tep_tree

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let build_db tables =
  let db = Database.create ~name:"sdb" in
  List.iter
    (fun (name, attrs, rows) ->
      let t =
        match Database.create_table db ~name (Schema.all_int
                 (List.init attrs (fun i -> Printf.sprintf "c%d" i))) with
        | Ok t -> t
        | Error e -> failwith e
      in
      for r = 0 to rows - 1 do
        ignore (Table.insert t (Array.init attrs (fun c -> Value.Int ((r * 31) + c))))
      done)
    tables;
  db

let tree_hash algo db =
  let f = Forest.create () in
  let m = Tree_view.build f db in
  Merkle.hash_subtree algo (ok (Forest.subtree f (Tree_view.root m)))

let test_agreement_cases () =
  List.iter
    (fun algo ->
      List.iter
        (fun tables ->
          let db = build_db tables in
          Alcotest.(check string)
            (Printf.sprintf "%s %d tables" (Tep_crypto.Digest_algo.name algo)
               (List.length tables))
            (Tep_crypto.Digest_algo.to_hex (tree_hash algo db))
            (Tep_crypto.Digest_algo.to_hex (Streaming.hash_database algo db)))
        [
          [];
          [ ("t", 1, 0) ];
          [ ("t", 3, 1) ];
          [ ("t", 2, 10) ];
          [ ("a", 2, 5); ("b", 4, 3) ];
          [ ("z", 1, 1); ("a", 1, 1) ] (* name order matters *);
        ])
    [ Tep_crypto.Digest_algo.SHA1; Tep_crypto.Digest_algo.SHA256 ]

let test_node_counts () =
  let db = build_db [ ("a", 2, 5); ("b", 4, 3) ] in
  let _, n = Streaming.hash_database_with_counts Tep_crypto.Digest_algo.SHA1 db in
  Alcotest.(check int) "matches Database.node_count" (Database.node_count db) n

let test_deleted_rows_affect_layout () =
  (* deleting a row changes the streamed hash *)
  let db = build_db [ ("t", 2, 5) ] in
  let h0 = Streaming.hash_database Tep_crypto.Digest_algo.SHA1 db in
  ignore (Table.delete (Database.get_table_exn db "t") 2);
  let h1 = Streaming.hash_database Tep_crypto.Digest_algo.SHA1 db in
  Alcotest.(check bool) "changed" false (String.equal h0 h1)

let test_hash_rows_interface () =
  let algo = Tep_crypto.Digest_algo.SHA1 in
  let db = build_db [ ("t", 2, 4) ] in
  let tbl = Database.get_table_exn db "t" in
  let rows = ref (Table.rows tbl) in
  let pull () =
    match !rows with
    | [] -> None
    | r :: rest ->
        rows := rest;
        Some (r.Table.id, r.Table.cells)
  in
  let h, nodes =
    Streaming.hash_rows algo ~schema_arity:2 ~table_oid:1 ~table_name:"t"
      ~row_count:4 pull
  in
  Alcotest.(check int) "nodes" (1 + (4 * 3)) nodes;
  (* must equal the table subtree hash from the forest view *)
  let f = Forest.create () in
  let m = Tree_view.build f db in
  let toid = Option.get (Tree_view.table_oid m "t") in
  Alcotest.(check string)
    "table hash"
    (Tep_crypto.Digest_algo.to_hex (Merkle.hash_subtree algo (ok (Forest.subtree f toid))))
    (Tep_crypto.Digest_algo.to_hex h)

let test_row_count_mismatch () =
  let algo = Tep_crypto.Digest_algo.SHA1 in
  let pull_none () = None in
  (try
     ignore
       (Streaming.hash_rows algo ~schema_arity:1 ~table_oid:1 ~table_name:"t"
          ~row_count:2 pull_none);
     Alcotest.fail "short iterator accepted"
   with Invalid_argument _ -> ());
  let extra = ref 3 in
  let pull_many () =
    if !extra > 0 then begin
      decr extra;
      Some (0, [| Value.Int 0 |])
    end
    else None
  in
  try
    ignore
      (Streaming.hash_rows algo ~schema_arity:1 ~table_oid:1 ~table_name:"t"
         ~row_count:1 pull_many);
    Alcotest.fail "long iterator accepted"
  with Invalid_argument _ -> ()

let test_large_streaming_consistency () =
  (* a moderately large table to exercise multi-block hashing *)
  let db = build_db [ ("big", 3, 500) ] in
  Alcotest.(check string)
    "large agreement"
    (Tep_crypto.Digest_algo.to_hex (tree_hash Tep_crypto.Digest_algo.SHA256 db))
    (Tep_crypto.Digest_algo.to_hex
       (Streaming.hash_database Tep_crypto.Digest_algo.SHA256 db))

(* Tables on both sides of the 32-child threshold, and a root with
   more than 32 tables: the streamed chunk levels agree with the tree
   hash, the cached hash and a pooled cold pass. *)
let all_views_agree what algo db =
  let f = Forest.create () in
  let m = Tree_view.build f db in
  let root = Tree_view.root m in
  let want = Merkle.hash_subtree algo (ok (Forest.subtree f root)) in
  let hex = Tep_crypto.Digest_algo.to_hex in
  Alcotest.(check string) (what ^ ": streaming") (hex want)
    (hex (Streaming.hash_database algo db));
  Alcotest.(check string) (what ^ ": cache") (hex want)
    (hex (ok (Merkle.hash (Merkle.create_cache algo f) root)));
  let pool = Tep_parallel.Pool.create ~domains:2 () in
  Alcotest.(check string) (what ^ ": pooled") (hex want)
    (hex (ok (Merkle.hash ~pool (Merkle.create_cache algo f) root)));
  Tep_parallel.Pool.shutdown pool

let test_wide_tables () =
  List.iter
    (fun rows ->
      all_views_agree (Printf.sprintf "%d rows" rows) Tep_crypto.Digest_algo.SHA1
        (build_db [ ("w", 2, rows); ("n", 1, 3) ]))
    [ 31; 32; 33; 34; 47; 64; 257; 2000 ];
  all_views_agree "40 tables" Tep_crypto.Digest_algo.SHA256
    (build_db (List.init 40 (fun i -> (Printf.sprintf "t%02d" i, 1, i))))

(* Random inserts, updates and deletes move a table across the
   threshold; every state streams to the tree hash. *)
let prop_random_ops =
  QCheck2.Test.make ~name:"streaming = tree after random row ops" ~count:40
    QCheck2.Gen.(pair (int_range 20 50) (list_size (int_range 1 30) (pair (int_range 0 2) nat)))
    (fun (rows, ops) ->
      let db = build_db [ ("t", 2, rows) ] in
      let t = Database.get_table_exn db "t" in
      List.iter
        (fun (kind, i) ->
          let ids = List.map (fun r -> r.Table.id) (Table.rows t) in
          let n = List.length ids in
          match kind with
          | 0 -> ignore (Table.insert t [| Value.Int i; Value.Int (-i) |])
          | 1 when n > 0 -> ignore (Table.delete t (List.nth ids (i mod n)))
          | _ when n > 0 ->
              ignore (Table.update_cell t (List.nth ids (i mod n)) 1 (Value.Int i))
          | _ -> ())
        ops;
      let f = Forest.create () in
      let m = Tree_view.build f db in
      let algo = Tep_crypto.Digest_algo.SHA1 in
      String.equal
        (Merkle.hash_subtree algo (ok (Forest.subtree f (Tree_view.root m))))
        (Streaming.hash_database algo db))

let () =
  Alcotest.run "streaming"
    [
      ( "unit",
        [
          Alcotest.test_case "agreement" `Quick test_agreement_cases;
          Alcotest.test_case "node counts" `Quick test_node_counts;
          Alcotest.test_case "deletion changes hash" `Quick
            test_deleted_rows_affect_layout;
          Alcotest.test_case "hash_rows" `Quick test_hash_rows_interface;
          Alcotest.test_case "row_count mismatch" `Quick
            test_row_count_mismatch;
          Alcotest.test_case "large consistency" `Quick
            test_large_streaming_consistency;
          Alcotest.test_case "wide tables" `Quick test_wide_tables;
          QCheck_alcotest.to_alcotest prop_random_ops;
        ] );
    ]
