(* Merkle hashing: definition agreement, cache behaviour, economical vs
   basic, sensitivity properties. *)
open Tep_store
open Tep_tree

let algo = Tep_crypto.Digest_algo.SHA1
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let iv i = Value.Int i

let build_chain f depth =
  let root = ok (Forest.insert f (iv 0)) in
  let rec go parent d acc =
    if d = 0 then List.rev acc
    else
      let n = ok (Forest.insert ~parent f (iv d)) in
      go n (d - 1) (n :: acc)
  in
  (root, go root depth [])

let test_leaf_hash_definition () =
  (* leaf hash depends on both oid and value *)
  let h1 = Merkle.hash_subtree algo (Subtree.atom (Oid.of_int 1) (iv 5)) in
  let h2 = Merkle.hash_subtree algo (Subtree.atom (Oid.of_int 2) (iv 5)) in
  let h3 = Merkle.hash_subtree algo (Subtree.atom (Oid.of_int 1) (iv 6)) in
  Alcotest.(check bool) "oid matters" false (String.equal h1 h2);
  Alcotest.(check bool) "value matters" false (String.equal h1 h3);
  Alcotest.(check int) "sha1 width" 20 (String.length h1)

let test_hash_value_vs_subtree () =
  (* atom-frame hash (h(A,val) of Section 3) is distinct from node
     hash but also deterministic *)
  let a = Merkle.hash_value algo (Oid.of_int 1) (iv 5) in
  let b = Merkle.hash_value algo (Oid.of_int 1) (iv 5) in
  Alcotest.(check string) "deterministic" a b

let test_cache_agrees_with_pure () =
  let f = Forest.create () in
  let root = ok (Forest.insert f (Value.Text "r")) in
  let a = ok (Forest.insert ~parent:root f (iv 1)) in
  let _ = ok (Forest.insert ~parent:a f (iv 2)) in
  let _ = ok (Forest.insert ~parent:root f (iv 3)) in
  let cache = Merkle.create_cache algo f in
  let pure = Merkle.hash_subtree algo (ok (Forest.subtree f root)) in
  Alcotest.(check string) "economical" pure (ok (Merkle.hash cache root));
  Alcotest.(check string) "basic" pure (ok (Merkle.hash_basic cache root))

let test_cache_invalidation_path () =
  let f = Forest.create () in
  let root, chain = build_chain f 10 in
  let cache = Merkle.create_cache algo f in
  let _ = ok (Merkle.hash cache root) in
  Merkle.reset_stats cache;
  (* update the deepest node: exactly depth+1 nodes re-hashed *)
  let deepest = List.nth chain 9 in
  ignore (ok (Forest.update f deepest (iv 999)));
  let _ = ok (Merkle.hash cache root) in
  let stats = Merkle.stats cache in
  Alcotest.(check int) "path only" 11 stats.Merkle.nodes_hashed;
  (* second hash with no changes: zero work *)
  Merkle.reset_stats cache;
  let _ = ok (Merkle.hash cache root) in
  Alcotest.(check int) "warm cache" 0 (Merkle.stats cache).Merkle.nodes_hashed

let test_basic_rehashes_everything () =
  let f = Forest.create () in
  let root, _ = build_chain f 10 in
  let cache = Merkle.create_cache algo f in
  let _ = ok (Merkle.hash cache root) in
  Merkle.reset_stats cache;
  let _ = ok (Merkle.hash_basic cache root) in
  Alcotest.(check int) "all nodes" 11 (Merkle.stats cache).Merkle.nodes_hashed

let test_update_changes_root_hash () =
  let f = Forest.create () in
  let root, chain = build_chain f 5 in
  let cache = Merkle.create_cache algo f in
  let h0 = ok (Merkle.hash cache root) in
  ignore (ok (Forest.update f (List.nth chain 2) (iv 77)));
  let h1 = ok (Merkle.hash cache root) in
  Alcotest.(check bool) "changed" false (String.equal h0 h1)

let test_structure_changes_hash () =
  let f = Forest.create () in
  let root = ok (Forest.insert f (iv 0)) in
  let cache = Merkle.create_cache algo f in
  let h0 = ok (Merkle.hash cache root) in
  let leaf = ok (Forest.insert ~parent:root f (iv 1)) in
  let h1 = ok (Merkle.hash cache root) in
  Alcotest.(check bool) "insert changes" false (String.equal h0 h1);
  ignore (ok (Forest.delete f leaf));
  let h2 = ok (Merkle.hash cache root) in
  Alcotest.(check string) "delete restores" (Tep_crypto.Digest_algo.to_hex h0)
    (Tep_crypto.Digest_algo.to_hex h2)

let test_missing_node () =
  let f = Forest.create () in
  let cache = Merkle.create_cache algo f in
  match Merkle.hash cache (Oid.of_int 5) with
  | Ok _ -> Alcotest.fail "hashed missing node"
  | Error _ -> ()

let test_clear () =
  let f = Forest.create () in
  let root, _ = build_chain f 4 in
  let cache = Merkle.create_cache algo f in
  let _ = ok (Merkle.hash cache root) in
  Merkle.clear cache;
  Merkle.reset_stats cache;
  let _ = ok (Merkle.hash cache root) in
  Alcotest.(check int) "recomputed after clear" 5
    (Merkle.stats cache).Merkle.nodes_hashed

(* Property: for random small trees, the hash distinguishes any single
   value mutation. *)
let gen_tree =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* values = list_size (return n) (int_range 0 100) in
    return values)

let prop_mutation_detected =
  QCheck2.Test.make ~name:"single mutation changes root hash" ~count:100
    QCheck2.Gen.(pair gen_tree (int_range 0 1000))
    (fun (values, pick) ->
      let f = Forest.create () in
      let root = ok (Forest.insert f (iv (-1))) in
      let nodes =
        List.map
          (fun v ->
            (* random-ish shape: attach to a previous node *)
            ok (Forest.insert ~parent:root f (iv v)))
          values
      in
      let cache = Merkle.create_cache algo f in
      let h0 = ok (Merkle.hash cache root) in
      let victim = List.nth nodes (pick mod List.length nodes) in
      let old = ok (Forest.value f victim) in
      ignore (ok (Forest.update f victim (Value.Int 1_000_000)));
      let h1 = ok (Merkle.hash cache root) in
      ignore (ok (Forest.update f victim old));
      let h2 = ok (Merkle.hash cache root) in
      (not (String.equal h0 h1)) && String.equal h0 h2)

(* Parallel hashing must agree with the sequential code path on a
   forest big enough to clear [par_threshold], cold cache and warm,
   Basic and Economical, and after a dirty-path update. *)
let test_parallel_matches_sequential () =
  let build () =
    let f = Forest.create () in
    let root = ok (Forest.insert f (Value.Text "r")) in
    let leaves = ref [] in
    for i = 0 to 29 do
      let mid = ok (Forest.insert ~parent:root f (iv i)) in
      for j = 0 to 9 do
        leaves := ok (Forest.insert ~parent:mid f (iv ((100 * i) + j))) :: !leaves
      done
    done;
    (f, root, List.rev !leaves)
  in
  let f, root, leaves = build () in
  Alcotest.(check bool) "forest clears par_threshold" true
    (Forest.node_count f >= Merkle.par_threshold);
  let seq_cache = Merkle.create_cache algo f in
  let seq_cold = ok (Merkle.hash seq_cache root) in
  let seq_nodes = (Merkle.stats seq_cache).Merkle.nodes_hashed in
  List.iter
    (fun domains ->
      let pool = Tep_parallel.Pool.create ~domains () in
      let name fmt = Printf.sprintf fmt domains in
      let cache = Merkle.create_cache algo f in
      Alcotest.(check string)
        (name "cold economical @%d") seq_cold
        (ok (Merkle.hash ~pool cache root));
      Alcotest.(check int)
        (name "same nodes hashed @%d") seq_nodes
        (Merkle.stats cache).Merkle.nodes_hashed;
      (* warm: parallel pass over a fully-cached tree is free *)
      Merkle.reset_stats cache;
      Alcotest.(check string)
        (name "warm @%d") seq_cold (ok (Merkle.hash ~pool cache root));
      Alcotest.(check int)
        (name "warm zero work @%d") 0
        (Merkle.stats cache).Merkle.nodes_hashed;
      (* basic mode re-hashes everything, in parallel too *)
      Alcotest.(check string)
        (name "basic @%d") seq_cold (ok (Merkle.hash_basic ~pool cache root));
      (* dirty path after an update *)
      let victim = List.nth leaves 123 in
      let old = ok (Forest.value f victim) in
      ignore (ok (Forest.update f victim (iv 424242)));
      let seq_dirty_cache = Merkle.create_cache algo f in
      let seq_dirty = ok (Merkle.hash seq_dirty_cache root) in
      Alcotest.(check string)
        (name "after update @%d") seq_dirty (ok (Merkle.hash ~pool cache root));
      Alcotest.(check bool) (name "update changed hash @%d") true
        (not (String.equal seq_cold seq_dirty));
      ignore (ok (Forest.update f victim old));
      Tep_parallel.Pool.shutdown pool)
    [ 1; 2; 4 ]

(* ---- wide nodes (chunk trees) ---- *)

(* Narrow frames are unchanged by the chunk tree: this forest (a table
   with exactly 32 rows, one with 5, one empty) hashed to these roots
   before wide nodes existed. *)
let test_narrow_frames_pinned () =
  let f = Forest.create () in
  let root = ok (Forest.insert f (Value.Text "db")) in
  List.iter
    (fun (name, rows) ->
      let tbl = ok (Forest.insert ~parent:root f (Value.Text name)) in
      for r = 0 to rows - 1 do
        let row = ok (Forest.insert ~parent:tbl f (iv r)) in
        for c = 0 to 2 do
          ignore (ok (Forest.insert ~parent:row f (iv ((r * 10) + c))))
        done
      done)
    [ ("wide-edge", 32); ("small", 5); ("empty", 0) ];
  List.iter
    (fun (algo, hex) ->
      let c = Merkle.create_cache algo f in
      Alcotest.(check string)
        (Tep_crypto.Digest_algo.name algo)
        hex
        (Tep_crypto.Digest_algo.to_hex (ok (Merkle.hash c root))))
    [
      (Tep_crypto.Digest_algo.SHA1, "13543e665d570031f3a26a8b7fe01173c51d2200");
      ( Tep_crypto.Digest_algo.SHA256,
        "b2a2c43aef1986577423c168d22f104799c5317fbe5820e12e9b1d867146cc63" );
    ]

let pure f root = Merkle.hash_subtree algo (ok (Forest.subtree f root))

(* A forest whose table [t] holds [rows] rows of two cells, next to a
   fixed 200-leaf table that keeps the forest past [par_threshold]. *)
let wide_forest rows =
  let f = Forest.create () in
  let root = ok (Forest.insert f (Value.Text "db")) in
  let t = ok (Forest.insert ~parent:root f (Value.Text "t")) in
  let add_row v =
    let r = ok (Forest.insert ~parent:t f (iv v)) in
    ignore (ok (Forest.insert ~parent:r f (iv (v + 1))));
    ignore (ok (Forest.insert ~parent:r f (iv (v + 2))))
  in
  for i = 1 to rows do
    add_row (i * 10)
  done;
  let flat = ok (Forest.insert ~parent:root f (Value.Text "flat")) in
  for i = 1 to 200 do
    ignore (ok (Forest.insert ~parent:flat f (iv i)))
  done;
  (f, root, t, add_row)

let pools = lazy (List.map (fun d -> Tep_parallel.Pool.create ~domains:d ()) [ 2; 4 ])

type op = Ins | Del of int | Upd_row of int | Upd_cell of int

let gen_ops =
  QCheck2.Gen.(
    pair (int_range 10 60)
      (list_size (int_range 1 40)
         (frequency
            [
              (4, return Ins);
              (3, map (fun i -> Del i) nat);
              (2, map (fun i -> Upd_row i) nat);
              (2, map (fun i -> Upd_cell i) nat);
            ])))

(* Random inserts, deletes and updates move the table across the
   32-child threshold; after every op the incremental cache agrees
   with the pure definition, and at the end a cold pooled pass (2 and
   4 domains) agrees too. *)
let prop_incremental_matches =
  QCheck2.Test.make ~name:"wide nodes: cache = hash_subtree = hash_par"
    ~count:60 gen_ops (fun (rows, ops) ->
      let f, root, t, add_row = wide_forest rows in
      let cache = Merkle.create_cache algo f in
      let fresh = ref 100_000 in
      List.iter
        (fun op ->
          let kids = Forest.children f t in
          let n = List.length kids in
          (match op with
          | Ins ->
              fresh := !fresh + 10;
              add_row !fresh
          | Del i when n > 0 ->
              ignore (ok (Forest.delete_subtree f (List.nth kids (i mod n))))
          | Upd_row i when n > 0 ->
              ignore (ok (Forest.update f (List.nth kids (i mod n)) (iv (-i))))
          | Upd_cell i when n > 0 ->
              let row = List.nth kids (i mod n) in
              let cell = List.hd (Forest.children f row) in
              ignore (ok (Forest.update f cell (iv (-i - 1))))
          | _ -> ());
          let want = pure f root in
          if not (String.equal want (ok (Merkle.hash cache root))) then
            QCheck2.Test.fail_reportf "cache diverged after %d rows" n)
        ops;
      let want = pure f root in
      List.for_all
        (fun pool ->
          let cold = Merkle.create_cache algo f in
          String.equal want (ok (Merkle.hash ~pool cold root))
          && String.equal want (ok (Merkle.hash_basic ~pool cache root))
          && String.equal want (ok (Merkle.hash cache root)))
        (Lazy.force pools))

(* The chunk tree depends only on the child set: the same final set
   reached by two different insert/delete orders (explicit oids) gives
   the same root, on warm caches hashed between every op. *)
let prop_history_independent =
  QCheck2.Test.make ~name:"wide nodes: history independence" ~count:40
    QCheck2.Gen.(pair (int_range 20 120) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let shuffle l =
        List.map (fun x -> (Random.State.bits rng, x)) l
        |> List.sort compare |> List.map snd
      in
      let keep = List.init n (fun i -> 10 + (3 * i)) in
      let extra = List.init (n / 2) (fun i -> 11 + (3 * i)) in
      let run order deletes =
        let f = Forest.create () in
        let root = ok (Forest.insert ~oid:(Oid.of_int 1) f (Value.Text "t")) in
        let cache = Merkle.create_cache algo f in
        List.iter
          (fun o ->
            ignore
              (ok (Forest.insert ~oid:(Oid.of_int o) ~parent:root f (iv (o * 7))));
            ignore (ok (Merkle.hash cache root)))
          order;
        List.iter
          (fun o ->
            ignore (ok (Forest.delete f (Oid.of_int o)));
            ignore (ok (Merkle.hash cache root)))
          deletes;
        (ok (Merkle.hash cache root), pure f root)
      in
      let a, a_pure = run keep [] in
      let b, b_pure = run (shuffle (keep @ extra)) (shuffle extra) in
      String.equal a b && String.equal a a_pure && String.equal b b_pure)

(* Economical hashing through a wide node touches one chunk per level
   of its chunk tree, not every child. *)
let test_wide_dirty_path () =
  let f, root, t, add_row = wide_forest 3000 in
  let cache = Merkle.create_cache algo f in
  ignore (ok (Merkle.hash cache root));
  let row = List.nth (Forest.children f t) 1234 in
  let cell = List.hd (Forest.children f row) in
  let check what bound =
    Merkle.reset_stats cache;
    Alcotest.(check string) what (pure f root) (ok (Merkle.hash cache root));
    let s = Merkle.stats cache in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d chunks re-digested <= %d" what
         s.Merkle.chunks_hashed bound)
      true
      (s.Merkle.chunks_hashed <= bound);
    s
  in
  ignore (ok (Forest.update f cell (iv 999)));
  let s = check "cell update" 4 in
  Alcotest.(check int) "cell, row, table, root" 4 s.Merkle.nodes_hashed;
  add_row 1_000_000;
  ignore (check "append" 8);
  ignore (ok (Forest.delete_subtree f row));
  ignore (check "delete" 8)

let test_wide_proof_children () =
  let f, root, t, _ = wide_forest 500 in
  let cache = Merkle.create_cache algo f in
  ignore (ok (Merkle.hash cache root));
  let child = List.nth (Forest.children f t) 77 in
  match ok (Merkle.children_proof cache t ~child) with
  | Merkle.Flat _ -> Alcotest.fail "500 children must be chunked"
  | Merkle.Chunked { count; chunks } ->
      Alcotest.(check int) "count" 500 count;
      Alcotest.(check bool) "child in level 0" true
        (List.mem_assoc child (List.hd chunks));
      Alcotest.(check bool)
        (Printf.sprintf "%d levels is logarithmic" (List.length chunks))
        true
        (List.length chunks >= 2 && List.length chunks <= 5)

let () =
  Alcotest.run "merkle"
    [
      ( "unit",
        [
          Alcotest.test_case "leaf hash definition" `Quick
            test_leaf_hash_definition;
          Alcotest.test_case "hash_value" `Quick test_hash_value_vs_subtree;
          Alcotest.test_case "cache agrees with pure" `Quick
            test_cache_agrees_with_pure;
          Alcotest.test_case "invalidation path" `Quick
            test_cache_invalidation_path;
          Alcotest.test_case "basic rehashes all" `Quick
            test_basic_rehashes_everything;
          Alcotest.test_case "update changes root" `Quick
            test_update_changes_root_hash;
          Alcotest.test_case "structure changes hash" `Quick
            test_structure_changes_hash;
          Alcotest.test_case "missing node" `Quick test_missing_node;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_parallel_matches_sequential;
        ] );
      ( "wide",
        [
          Alcotest.test_case "narrow frames pinned" `Quick
            test_narrow_frames_pinned;
          Alcotest.test_case "dirty path is logarithmic" `Quick
            test_wide_dirty_path;
          Alcotest.test_case "proof children" `Quick test_wide_proof_children;
          QCheck_alcotest.to_alcotest prop_incremental_matches;
          QCheck_alcotest.to_alcotest prop_history_independent;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_mutation_detected ]);
    ]
