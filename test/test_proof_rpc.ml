(* Wire v6: O(log n) remote verification.

   Membership-proof RPCs (Prove / Proof_resp) and the DRBG-seeded
   sampled audit (Audit_sample), exercised over the loopback
   transport — same frames, codecs and session sealing as a socket.

   The trust model under test: the client pins ONE root hash it
   already trusts and rechecks everything the server claims against
   it — shard roots must recombine into the pinned root, each proof
   must hash-chain its leaf to the owning shard's root, and each
   leaf's provenance records must pass full recipient-side R1–R8
   verification with the proven (oid, value) snapshot as the
   delivered object.  Any single flipped byte anywhere in that chain
   must surface as an error or a report violation. *)
open Tep_store
open Tep_tree
open Tep_core
open Tep_wire
module Server = Tep_server.Server
module Client = Tep_client.Client

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let err = function
  | Error e -> e
  | Ok _ -> Alcotest.fail "expected an error"

let make_env () =
  let drbg = Tep_crypto.Drbg.create ~seed:"proof-rpc" in
  let ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"CA" drbg in
  let directory =
    Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
  in
  let alice = Participant.create ~bits:512 ~ca ~name:"alice" drbg in
  Participant.Directory.register directory alice;
  let db = Database.create ~name:"svc" in
  ignore
    (Database.create_table db ~name:"stock" (Schema.all_int [ "sku"; "qty" ]));
  let engine = Engine.create ~directory db in
  (engine, directory, alice)

let make_server engine alice =
  Server.create
    ~drbg:(Tep_crypto.Drbg.create ~seed:"server")
    ~participants:[ ("alice", alice) ]
    [ (engine, None) ]

let make_client server =
  Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"client") server

(* The first table name of the form tN that the stable hash routes to
   shard [k]. *)
let table_for_shard ~shards k =
  let rec go i =
    let name = Printf.sprintf "t%d" i in
    if Shards.shard_of_table ~shards name = k then name else go (i + 1)
  in
  go 0

let check_ok engine directory c (p : Client.proofs) =
  let trusted_root = ok (Client.root_hash c) in
  let report =
    ok
      (Client.check_proofs ~algo:(Engine.algo engine) ~directory ~trusted_root p)
  in
  Alcotest.(check bool) "proof report clean" true (Verifier.ok report);
  report

(* ------------------------------------------------------------------ *)
(* Happy path, single shard                                            *)
(* ------------------------------------------------------------------ *)

let test_prove_single_cell () =
  let engine, directory, alice = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  let row, _ = ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |]) in
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 2; Value.Int 20 |]));
  let p = ok (Client.prove c ~table:"stock" ~row ~col:1 ()) in
  Alcotest.(check int) "single shard index" 0 p.Client.pf_shard;
  Alcotest.(check int) "one shard root" 1 (List.length p.Client.pf_shard_roots);
  Alcotest.(check int) "one proven leaf" 1 (List.length p.Client.pf_items);
  let report = check_ok engine directory c p in
  Alcotest.(check bool) "records checked" true
    (report.Verifier.records_checked > 0);
  Alcotest.(check bool) "signatures checked" true
    (report.Verifier.signatures_checked > 0);
  (* the proven leaf is the actual cell value *)
  let it = List.hd p.Client.pf_items in
  Alcotest.(check bool) "leaf value is the cell" true
    (it.Client.pf_proof.Proof.leaf_value = Value.Int 10);
  Client.close c

let test_prove_whole_row () =
  let engine, directory, alice = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  let row, _ = ok (Client.insert c ~table:"stock" [| Value.Int 7; Value.Int 70 |]) in
  let p = ok (Client.prove c ~table:"stock" ~row ()) in
  (* no [col]: one proof per cell of the row *)
  Alcotest.(check int) "one leaf per cell" 2 (List.length p.Client.pf_items);
  ignore (check_ok engine directory c p);
  Client.close c

let test_prove_errors () =
  let engine, _, alice = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  (match Client.prove c ~table:"nope" ~row:0 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown table must fail");
  (match Client.prove c ~table:"stock" ~row:42 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown row must fail");
  Client.close c

(* Proofs must be strictly smaller than shipping the whole database
   subtree — the point of O(log n) remote verification. *)
let test_proof_smaller_than_delivery () =
  let engine, directory, alice = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  let row = ref 0 in
  for i = 1 to 32 do
    let r, _ =
      ok (Client.insert c ~table:"stock" [| Value.Int i; Value.Int (i * 10) |])
    in
    if i = 1 then row := r
  done;
  let p = ok (Client.prove c ~table:"stock" ~row:!row ~col:0 ()) in
  ignore (check_ok engine directory c p);
  let proof_bytes =
    List.fold_left
      (fun n it -> n + String.length it.Client.pf_encoded)
      0 p.Client.pf_items
  in
  let full, _ = ok (Engine.deliver engine (Engine.root_oid engine)) in
  let full_bytes = String.length (Subtree.to_string full) in
  Alcotest.(check bool)
    (Printf.sprintf "proof %dB < full delivery %dB" proof_bytes full_bytes)
    true
    (proof_bytes < full_bytes);
  Client.close c

(* ------------------------------------------------------------------ *)
(* Cross-shard chaining                                                 *)
(* ------------------------------------------------------------------ *)

let make_sharded_env () =
  let drbg = Tep_crypto.Drbg.create ~seed:"proof-shards" in
  let ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"CA" drbg in
  let directory =
    Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
  in
  let alice = Participant.create ~bits:512 ~ca ~name:"alice" drbg in
  Participant.Directory.register directory alice;
  let t0 = table_for_shard ~shards:2 0 and t1 = table_for_shard ~shards:2 1 in
  let make_engine table =
    let db = Database.create ~name:"sharddb" in
    let eng = Engine.create ~directory db in
    (match Engine.create_table eng alice ~name:table (Schema.all_int [ "a"; "b" ]) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    eng
  in
  let e0 = make_engine t0 and e1 = make_engine t1 in
  let coord_file = Filename.temp_file "tep_proof_coord" ".wal" in
  let coord = Wal.open_file coord_file in
  let server =
    Server.create
      ~drbg:(Tep_crypto.Drbg.create ~seed:"server")
      ~participants:[ ("alice", alice) ]
      ~coord [ (e0, None); (e1, None) ]
  in
  (server, directory, alice, e0, e1, t0, t1)

let test_prove_cross_shard () =
  let server, directory, alice, e0, e1, t0, t1 = make_sharded_env () in
  let c = make_client server in
  ok (Client.authenticate c alice);
  let r0, _ = ok (Client.insert c ~table:t0 [| Value.Int 1; Value.Int 10 |]) in
  let r1, _ = ok (Client.insert c ~table:t1 [| Value.Int 2; Value.Int 20 |]) in
  let trusted_root = ok (Client.root_hash c) in
  (* the published root really is the root-of-roots over both shards *)
  Alcotest.(check string) "published root = root-of-roots" trusted_root
    (Merkle.root_of_roots (Engine.algo e0)
       [ Engine.root_hash e0; Engine.root_hash e1 ]);
  (* prove a row on each shard; each answer carries BOTH shard roots
     and chains through the shard layer to the same pinned root *)
  List.iter
    (fun (table, row, shard, eng) ->
      let p = ok (Client.prove c ~table ~row ~col:0 ()) in
      Alcotest.(check int)
        (Printf.sprintf "%s owned by shard %d" table shard)
        shard p.Client.pf_shard;
      Alcotest.(check int) "both shard roots shipped" 2
        (List.length p.Client.pf_shard_roots);
      Alcotest.(check string) "owning shard root matches its engine"
        (Engine.root_hash eng)
        (List.nth p.Client.pf_shard_roots shard);
      let report =
        ok
          (Client.check_proofs ~algo:(Engine.algo e0) ~directory ~trusted_root p)
      in
      Alcotest.(check bool) "cross-shard proof clean" true (Verifier.ok report))
    [ (t0, r0, 0, e0); (t1, r1, 1, e1) ];
  Client.close c

(* A write to shard 1 changes the root-of-roots: proofs fetched before
   the write no longer chain to a freshly pinned root (stale shard
   roots), while freshly fetched proofs do — on BOTH shards. *)
let test_cross_shard_root_moves () =
  let server, directory, alice, e0, _, t0, t1 = make_sharded_env () in
  let c = make_client server in
  ok (Client.authenticate c alice);
  let r0, _ = ok (Client.insert c ~table:t0 [| Value.Int 1; Value.Int 10 |]) in
  let old_p = ok (Client.prove c ~table:t0 ~row:r0 ~col:0 ()) in
  ignore (ok (Client.insert c ~table:t1 [| Value.Int 2; Value.Int 20 |]));
  let new_root = ok (Client.root_hash c) in
  (match
     Client.check_proofs ~algo:(Engine.algo e0) ~directory
       ~trusted_root:new_root old_p
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale shard roots must not recombine");
  let fresh = ok (Client.prove c ~table:t0 ~row:r0 ~col:0 ()) in
  let report =
    ok
      (Client.check_proofs ~algo:(Engine.algo e0) ~directory
         ~trusted_root:new_root fresh)
  in
  Alcotest.(check bool) "fresh proof chains to the new root" true
    (Verifier.ok report);
  Client.close c

(* ------------------------------------------------------------------ *)
(* Proofs across a write                                               *)
(* ------------------------------------------------------------------ *)

let proofs_served c =
  match ok (Client.shard_stats c) with
  | [ s ] -> s.Message.ss_proofs_served
  | l -> Alcotest.fail (Printf.sprintf "expected 1 shard, got %d" (List.length l))

(* Every Prove builds its proof off the warm Merkle cache.  A repeat
   proves the same leaf against the same root; a write to the shard
   moves the root, the next proof carries the new value, and the
   earlier proof no longer chains. *)
let test_proof_after_write () =
  let engine, directory, alice = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  let row, _ = ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |]) in
  let old_root = ok (Client.root_hash c) in
  let p1 = ok (Client.prove c ~table:"stock" ~row ~col:1 ()) in
  let p2 = ok (Client.prove c ~table:"stock" ~row ~col:1 ()) in
  Alcotest.(check int) "both proofs served" 2 (proofs_served c);
  Alcotest.(check bool) "a repeat proves the same leaf" true
    (p1.Client.pf_items = p2.Client.pf_items);
  ignore (check_ok engine directory c p2);
  ignore (ok (Client.update c ~table:"stock" ~row ~col:1 (Value.Int 99)));
  let new_root = ok (Client.root_hash c) in
  Alcotest.(check bool) "the write moved the root" true (new_root <> old_root);
  let p3 = ok (Client.prove c ~table:"stock" ~row ~col:1 ()) in
  let report = check_ok engine directory c p3 in
  Alcotest.(check bool) "post-update proof clean" true (Verifier.ok report);
  Alcotest.(check bool) "proves the NEW value" true
    ((List.hd p3.Client.pf_items).Client.pf_proof.Proof.leaf_value
    = Value.Int 99);
  (* the pre-update proof no longer chains to the fresh root *)
  (match
     Client.check_proofs ~algo:(Engine.algo engine) ~directory
       ~trusted_root:new_root p2
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale proof must not verify against the new root");
  Client.close c

(* ------------------------------------------------------------------ *)
(* Tamper matrix: every flipped byte in the chain is caught             *)
(* ------------------------------------------------------------------ *)

let bump s =
  if s = "" then "x"
  else
    String.mapi
      (fun i ch -> if i = 0 then Char.chr (Char.code ch lxor 1) else ch)
      s

let test_tamper_matrix () =
  let engine, directory, alice = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  let row, _ = ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |]) in
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 2; Value.Int 20 |]));
  let trusted_root = ok (Client.root_hash c) in
  let p = ok (Client.prove c ~table:"stock" ~row ~col:1 ()) in
  let check q =
    Client.check_proofs ~algo:(Engine.algo engine) ~directory ~trusted_root q
  in
  (* baseline sanity: untampered answer verifies *)
  Alcotest.(check bool) "baseline verifies" true
    (match check p with Ok r -> Verifier.ok r | Error _ -> false);
  let it = List.hd p.Client.pf_items in
  let with_proof pf = { p with Client.pf_items = [ { it with Client.pf_proof = pf } ] } in
  let pf = it.Client.pf_proof in
  (* 1. flipped leaf value: the leaf hash no longer matches the parent *)
  let tampered_leaf = with_proof { pf with Proof.leaf_value = Value.Int 999 } in
  ignore (err (check tampered_leaf));
  (* 2. flipped sibling hash in the first path step *)
  let step = List.hd pf.Proof.path in
  let step' =
    {
      step with
      Proof.children =
        (match step.Proof.children with
        | Proof.Flat es -> Proof.Flat (List.map (fun (o, h) -> (o, bump h)) es)
        | Proof.Chunked c ->
            Proof.Chunked
              {
                c with
                chunks = List.map (List.map (fun (o, h) -> (o, bump h))) c.chunks;
              });
    }
  in
  let tampered_sibling =
    with_proof { pf with Proof.path = step' :: List.tl pf.Proof.path }
  in
  ignore (err (check tampered_sibling));
  (* 3. flipped shard root: the shard layer no longer recombines *)
  let tampered_root =
    { p with Client.pf_shard_roots = List.map bump p.Client.pf_shard_roots }
  in
  ignore (err (check tampered_root));
  (* 4. out-of-range shard index *)
  ignore (err (check { p with Client.pf_shard = 7 }));
  (* 5. tampered provenance records: hash chains hold, but the signed
     checksum chain trips — reported as violations, same exit path *)
  let tampered_records =
    {
      p with
      Client.pf_items =
        [
          {
            it with
            Client.pf_records =
              List.map
                (fun r -> { r with Record.checksum = bump r.Record.checksum })
                it.Client.pf_records;
          };
        ];
    }
  in
  (match check tampered_records with
  | Ok r ->
      Alcotest.(check bool) "record tampering reported" false (Verifier.ok r)
  | Error _ -> ());
  (* 6. stale proof: taken before a write, checked against the root
     published after it *)
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 3; Value.Int 30 |]));
  let fresh_root = ok (Client.root_hash c) in
  ignore
    (err
       (Client.check_proofs ~algo:(Engine.algo engine) ~directory
          ~trusted_root:fresh_root p));
  (* 7. a directory rooted at a foreign CA: it refuses alice's
     certificate, so no record signature may pass *)
  let other =
    Tep_crypto.Pki.create_ca ~bits:512 ~name:"Other"
      (Tep_crypto.Drbg.create ~seed:"foreign-ca")
  in
  let foreign =
    Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key other)
  in
  ignore
    (err
       (Participant.Directory.register_certificate foreign
          (Participant.certificate alice)));
  (match
     Client.check_proofs ~algo:(Engine.algo engine) ~directory:foreign
       ~trusted_root p
   with
  | Ok r -> Alcotest.(check bool) "foreign CA rejected" false (Verifier.ok r)
  | Error _ -> ());
  Client.close c

(* ------------------------------------------------------------------ *)
(* Sampled audit: determinism and the detection bound                   *)
(* ------------------------------------------------------------------ *)

let test_audit_sample_deterministic () =
  let engine, _, alice = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  for i = 1 to 8 do
    ignore
      (ok (Client.insert c ~table:"stock" [| Value.Int i; Value.Int (i * 10) |]))
  done;
  let r1, s1, n1 = ok (Client.audit_sample c ~seed:"sweep" ~alpha_ppm:400_000) in
  let r2, s2, n2 = ok (Client.audit_sample c ~seed:"sweep" ~alpha_ppm:400_000) in
  Alcotest.(check int) "same seed, same sample size" s1 s2;
  Alcotest.(check int) "same population" n1 n2;
  Alcotest.(check string) "same seed, same report"
    (Message.render_report r1) (Message.render_report r2);
  Alcotest.(check bool) "sample within population" true (s1 <= n1 && s1 >= 0);
  Alcotest.(check bool) "population counted" true (n1 > 0);
  Alcotest.(check bool) "clean history, clean sample" true (Message.report_ok r1);
  (* a 40% rate over this population must actually be a partial sweep
     for at least one of a handful of seeds (the DRBG is seeded, so
     this is a fixed, replayable outcome — not a flaky coin flip) *)
  let sizes =
    List.map
      (fun seed ->
        let _, s, _ = ok (Client.audit_sample c ~seed ~alpha_ppm:400_000) in
        s)
      [ "a"; "b"; "c"; "d"; "e"; "f" ]
  in
  Alcotest.(check bool) "partial sweep at alpha=0.4" true
    (List.exists (fun s -> s < n1) (s1 :: sizes));
  Client.close c

let test_audit_sample_full_alpha () =
  let engine, _, alice = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |]));
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 2; Value.Int 20 |]));
  let report, sampled, population =
    ok (Client.audit_sample c ~seed:"all" ~alpha_ppm:1_000_000)
  in
  Alcotest.(check int) "alpha=1 samples everything" population sampled;
  Alcotest.(check bool) "clean" true (Message.report_ok report);
  (* invalid alpha is rejected, not clamped *)
  (match Client.audit_sample c ~seed:"x" ~alpha_ppm:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "alpha=0 must be rejected");
  (match Client.audit_sample c ~seed:"x" ~alpha_ppm:1_000_001 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "alpha>1 must be rejected");
  Client.close c

let test_audit_sample_detects_tamper () =
  let engine, _, alice = make_env () in
  let server = make_server engine alice in
  let c = make_client server in
  ok (Client.authenticate c alice);
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |]));
  ignore (ok (Client.insert c ~table:"stock" [| Value.Int 2; Value.Int 20 |]));
  (* mutate a cell behind the engine's back, like `provdb tamper` *)
  let forest = Engine.forest engine in
  let cell =
    match
      List.concat_map (fun r -> Forest.children forest r) (Forest.roots forest)
      |> List.concat_map (fun t -> Forest.children forest t)
      |> List.concat_map (fun r -> Forest.children forest r)
    with
    | x :: _ -> x
    | [] -> Alcotest.fail "no cells"
  in
  ignore (Forest.update forest cell (Value.Text "TAMPERED"));
  (* alpha = 1: the tampered object is certainly in the sample *)
  let report, sampled, population =
    ok (Client.audit_sample c ~seed:"detect" ~alpha_ppm:1_000_000)
  in
  Alcotest.(check int) "full sweep" population sampled;
  Alcotest.(check bool) "tampering detected by the sampled audit" false
    (Message.report_ok report);
  (* the detection bound (1-alpha)^k is monotone in alpha: a full
     sweep has bound 0 for any k >= 1 *)
  Alcotest.(check (float 1e-9)) "bound at alpha=1" 0. ((1. -. 1.) ** 1.);
  Client.close c

(* The sweep's sample is fixed by the seed and its report by the
   sample: the pool only changes who verifies which object.  Two shards,
   a cell rewritten behind shard 0's engine and a record's output hash
   flipped in shard 1's store, swept by a sequential server and by a
   4-domain one over the same engines. *)
let test_audit_sample_pool_independent () =
  let server, directory, alice, e0, e1, t0, t1 = make_sharded_env () in
  let c = make_client server in
  ok (Client.authenticate c alice);
  for i = 1 to 6 do
    ignore (ok (Client.insert c ~table:t0 [| Value.Int i; Value.Int (i * 10) |]));
    ignore (ok (Client.insert c ~table:t1 [| Value.Int i; Value.Int (i * 20) |]))
  done;
  List.iter
    (fun (table, row) ->
      ignore (ok (Client.update c ~table ~row ~col:1 (Value.Int (100 + row)))))
    [ (t0, 1); (t0, 4); (t1, 2); (t1, 5) ];
  Client.close c;
  let cell eng table row =
    Option.get (Tree_view.cell_oid (Engine.mapping eng) table row 1)
  in
  ignore (Forest.update (Engine.forest e0) (cell e0 t0 3) (Value.Int 999));
  let victim = cell e1 t1 2 in
  let tampered = Provstore.create ~algo:(Engine.algo e1) () in
  List.iter
    (fun (r : Record.t) ->
      Provstore.append tampered
        (if Oid.equal r.Record.output_oid victim && r.Record.seq_id = 1 then
           { r with Record.output_hash = "evil" }
         else r))
    (Provstore.all (Engine.provstore e1));
  let e1 =
    Engine.of_parts ~directory ~provstore:tampered ~forest:(Engine.forest e1)
      ~view:(Engine.mapping e1) (Engine.backend e1)
  in
  let four = Tep_parallel.Pool.create ~domains:4 () in
  let sweep pool ~seed ~alpha_ppm =
    let server =
      Server.create ~pool
        ~drbg:(Tep_crypto.Drbg.create ~seed:"server")
        ~participants:[ ("alice", alice) ]
        [ (e0, None); (e1, None) ]
    in
    let c = make_client server in
    ok (Client.authenticate c alice);
    let r = ok (Client.audit_sample c ~seed ~alpha_ppm) in
    Client.close c;
    r
  in
  List.iter
    (fun (seed, alpha_ppm) ->
      let r1, s1, n1 = sweep Tep_parallel.Pool.sequential ~seed ~alpha_ppm in
      let r4, s4, n4 = sweep four ~seed ~alpha_ppm in
      let what = Printf.sprintf "seed %S at %d ppm" seed alpha_ppm in
      Alcotest.(check string) (what ^ ": rendered report")
        (Message.render_report r1) (Message.render_report r4);
      Alcotest.(check (list string)) (what ^ ": violation order")
        r1.Message.rp_violations r4.Message.rp_violations;
      Alcotest.(check int) (what ^ ": sampled") s1 s4;
      Alcotest.(check int) (what ^ ": population") n1 n4)
    [ ("pools", 300_000); ("pools", 1_000_000); ("other", 600_000) ];
  (* Pinned: a change to the DRBG stream or the draw order moves it. *)
  let _, sampled, population = sweep four ~seed:"pools" ~alpha_ppm:300_000 in
  Alcotest.(check int) "population" 40 population;
  Alcotest.(check int) "sampled for seed \"pools\" at 30%" 15 sampled;
  let full, sampled, _ = sweep four ~seed:"pools" ~alpha_ppm:1_000_000 in
  Alcotest.(check int) "alpha=1 samples every live object" population sampled;
  let reported tag =
    List.exists (String.ends_with ~suffix:tag) full.Message.rp_violations
  in
  Alcotest.(check bool) "tampered cell reported" true (reported "(R4/R5)");
  Alcotest.(check bool) "tampered record reported" true (reported "(R1/R8)");
  Tep_parallel.Pool.shutdown four

let () =
  Alcotest.run "proof-rpc"
    [
      ( "prove",
        [
          Alcotest.test_case "single cell" `Quick test_prove_single_cell;
          Alcotest.test_case "whole row" `Quick test_prove_whole_row;
          Alcotest.test_case "errors" `Quick test_prove_errors;
          Alcotest.test_case "smaller than delivery" `Quick
            test_proof_smaller_than_delivery;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "chains to root-of-roots" `Quick
            test_prove_cross_shard;
          Alcotest.test_case "root moves on remote write" `Quick
            test_cross_shard_root_moves;
        ] );
      ( "write",
        [
          Alcotest.test_case "repeat, then a new proof after a write" `Quick
            test_proof_after_write;
        ] );
      ( "tamper",
        [ Alcotest.test_case "tamper matrix" `Quick test_tamper_matrix ] );
      ( "sampled-audit",
        [
          Alcotest.test_case "deterministic" `Quick
            test_audit_sample_deterministic;
          Alcotest.test_case "alpha=1 sweeps all" `Quick
            test_audit_sample_full_alpha;
          Alcotest.test_case "detects tampering" `Quick
            test_audit_sample_detects_tamper;
          Alcotest.test_case "same sweep on any pool" `Quick
            test_audit_sample_pool_independent;
        ] );
    ]
