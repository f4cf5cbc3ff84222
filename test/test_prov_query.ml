(* Provenance queries: history, blame, contribution, derivation. *)
open Tep_store
open Tep_tree
open Tep_core

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let fixture () =
  let drbg = Tep_crypto.Drbg.create ~seed:"test-pq" in
  let ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"CA" drbg in
  let dir = Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca) in
  let mk name =
    let p = Participant.create ~bits:512 ~ca ~name drbg in
    Participant.Directory.register dir p;
    p
  in
  let alice = mk "alice" and bob = mk "bob" in
  let db = Database.create ~name:"pq" in
  ignore (ok (Database.create_table db ~name:"t" (Schema.all_int [ "a" ])));
  let eng = Engine.create ~directory:dir db in
  let r0 = ok (Engine.insert_row eng alice ~table:"t" [| Value.Int 1 |]) in
  let r1 = ok (Engine.insert_row eng alice ~table:"t" [| Value.Int 2 |]) in
  ok (Engine.update_cell eng bob ~table:"t" ~row:r0 ~col:0 (Value.Int 10));
  ok (Engine.update_cell eng alice ~table:"t" ~row:r0 ~col:0 (Value.Int 20));
  let row0 = Option.get (Tree_view.row_oid (Engine.mapping eng) "t" r0) in
  let row1 = Option.get (Tree_view.row_oid (Engine.mapping eng) "t" r1) in
  let cell = Option.get (Tree_view.cell_oid (Engine.mapping eng) "t" r0 0) in
  let agg = ok (Engine.aggregate_objects eng bob ~value:(Value.Text "agg") [ row0; row1 ]) in
  let agg2 = ok (Engine.aggregate_objects eng alice ~value:(Value.Text "agg2") [ agg ]) in
  (eng, alice, bob, cell, row0, row1, agg, agg2)

let store eng = Engine.provstore eng

let test_history_and_values () =
  let eng, _, _, cell, _, _, _, _ = fixture () in
  let h = Provstore.records_for (store eng) cell in
  Alcotest.(check int) "3 records" 3 (List.length h);
  let vh = Prov_query.value_history (store eng) cell in
  Alcotest.(check (list (triple int string (of_pp Value.pp))))
    "value timeline"
    [ (0, "alice", Value.Int 1); (1, "bob", Value.Int 10); (2, "alice", Value.Int 20) ]
    (List.map (fun (s, p, v) -> (s, p, v)) vh)

let test_writers () =
  let eng, _, _, cell, _, _, _, _ = fixture () in
  Alcotest.(check (option string)) "last writer" (Some "alice")
    (Prov_query.last_writer (store eng) cell)

let test_contributors () =
  let eng, _, _, _, _, _, agg, _ = fixture () in
  let cs = Prov_query.contributors (store eng) agg in
  Alcotest.(check bool) "both participants" true
    (List.mem_assoc "alice" cs && List.mem_assoc "bob" cs);
  (* sorted by count descending *)
  match cs with
  | (_, c1) :: (_, c2) :: _ -> Alcotest.(check bool) "sorted" true (c1 >= c2)
  | _ -> Alcotest.fail "expected two contributors"

let oids l = List.sort Int.compare (List.map Oid.to_int l)

(* Upstream: the provenance object shipped with an aggregate holds the
   records of its inputs, transitively through an aggregate of it. *)
let test_upstream () =
  let eng, _, _, _, row0, row1, agg, agg2 = fixture () in
  let outputs o =
    List.map (fun (r : Record.t) -> r.Record.output_oid)
      (Provstore.provenance_object (store eng) o)
  in
  let d = outputs agg in
  Alcotest.(check bool) "rows included" true
    (List.exists (Oid.equal row0) d && List.exists (Oid.equal row1) d);
  let d2 = outputs agg2 in
  Alcotest.(check bool) "transitive through agg" true
    (List.exists (Oid.equal agg) d2 && List.exists (Oid.equal row0) d2);
  Alcotest.(check (list int)) "base inputs of agg2" (oids [ row0; row1 ])
    (oids (Tep_prov.Lineage.which_inputs (Prov_index.of_store (store eng)) agg2))

let test_downstream () =
  let eng, _, _, _, row0, _, agg, agg2 = fixture () in
  let idx = Prov_index.of_store (store eng) in
  let d = Prov_index.descendants idx row0 in
  Alcotest.(check bool) "agg downstream" true (List.exists (Oid.equal agg) d);
  Alcotest.(check bool) "agg2 transitively downstream" true
    (List.exists (Oid.equal agg2) d);
  Alcotest.(check (list int)) "row0 aggregated into agg" [ Oid.to_int agg ]
    (List.map Oid.to_int (Provstore.aggregated_into (store eng) row0));
  Alcotest.(check (list int)) "agg2 has no descendants" []
    (List.map Oid.to_int (Prov_index.descendants idx agg2))

let test_touched_by () =
  let eng, _, _, cell, _, _, _, _ = fixture () in
  let dag = Dag.build (Provstore.all (store eng)) in
  let touched name =
    List.map (fun (r : Record.t) -> r.Record.output_oid)
      (Dag.records_of_participant dag name)
  in
  Alcotest.(check bool) "bob touched the cell" true
    (List.exists (Oid.equal cell) (touched "bob"));
  Alcotest.(check (list int)) "nobody named carol" []
    (List.map Oid.to_int (touched "carol"))

(* Each version's output hash is the next version's input hash. *)
let test_version_chain () =
  let eng, _, _, cell, _, _, _, _ = fixture () in
  match Provstore.records_for (store eng) cell with
  | [ v0; v1; v2 ] ->
      Alcotest.(check (list int)) "versions" [ 0; 1; 2 ]
        (List.map (fun (r : Record.t) -> r.Record.seq_id) [ v0; v1; v2 ]);
      Alcotest.(check (list string)) "v0 hash feeds v1 input"
        [ v0.Record.output_hash ] v1.Record.input_hashes;
      Alcotest.(check (list string)) "v1 hash feeds v2 input"
        [ v1.Record.output_hash ] v2.Record.input_hashes;
      Alcotest.(check bool) "latest is v2" true
        (Provstore.latest (store eng) cell = Some v2)
  | rs -> Alcotest.failf "expected 3 versions, got %d" (List.length rs)

(* ---- shared-index traversal: deep chains must stay linear ---- *)

(* A 10k-deep aggregate chain built straight into a store — unsigned,
   Prov_query never checks signatures — so this runs in milliseconds
   unless a traversal regresses to per-node rescans of the store. *)
let deep_chain n =
  let store = Provstore.create () in
  let ck i = "c" ^ string_of_int i in
  let record seq kind input_oids prev output =
    {
      Record.seq_id = seq;
      participant = "p";
      kind;
      inherited = false;
      input_oids;
      input_hashes = List.map (fun _ -> "h") input_oids;
      output_oid = Oid.of_int output;
      output_hash = "h";
      output_value = None;
      prev_checksums = prev;
      checksum = ck seq;
    }
  in
  Provstore.append store (record 0 Record.Insert [] [] 0);
  for i = 1 to n do
    Provstore.append store
      (record i Record.Aggregate [ Oid.of_int (i - 1) ] [ ck (i - 1) ] i)
  done;
  store

let test_deep_chain_linear () =
  let n = 10_000 in
  let store = deep_chain n in
  let idx = Prov_index.of_store store in
  (* A linear walk takes milliseconds here; a quadratic one (a rescan
     of the store, or a search of a visited list, per node) takes about
     a second or more. *)
  let elapsed = ref 0. in
  let walk name check =
    let t0 = Unix.gettimeofday () in
    check ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= 0.5 then
      Alcotest.failf
        "%s took %.2fs on the deep chain (expected well under 0.5s)" name dt;
    elapsed := !elapsed +. dt
  in
  walk "descendants" (fun () ->
      Alcotest.(check int) "all downstream" n
        (List.length (Prov_index.descendants idx (Oid.of_int 0))));
  walk "depth" (fun () ->
      Alcotest.(check int) "depth = chain length" n
        (Prov_index.depth idx (Oid.of_int n)));
  walk "impact" (fun () ->
      Alcotest.(check int) "impact reaches the chain's end" n
        (List.length (Tep_prov.Lineage.impact idx (Oid.of_int 0))));
  walk "contributors" (fun () ->
      Alcotest.(check (list (pair string int)))
        "every record contributes"
        [ ("p", n + 1) ]
        (Prov_query.contributors store (Oid.of_int n)));
  if !elapsed >= 5.0 then
    Alcotest.failf "deep-chain traversals took %.2fs (expected well under 5s)"
      !elapsed

(* ---- every lineage walk against a brute-force oracle ---- *)

(* A random aggregate DAG, built straight into a store.  Each op is
   (kind, pick, input picks): kind 0 inserts a base object, 1 updates
   an existing object, 2 aggregates into a fresh object and 3 adds a
   further aggregate record to an existing aggregate output, citing
   only objects created before that output so the DAG stays acyclic.
   Inputs are drawn from a small pool, so several aggregate records
   cite the same input and some records cite one input twice. *)
let random_store ops =
  let store = Provstore.create () in
  let created = ref [||] (* oids in creation order *)
  and agg_outputs = ref [] (* (oid, rank) *)
  and latest = Hashtbl.create 16 (* oid -> checksum *)
  and seq = ref 0 in
  let emit kind ~inputs oid =
    let checksum = "c" ^ string_of_int !seq in
    let input_oids = List.map Oid.of_int inputs in
    Provstore.append store
      {
        Record.seq_id = !seq;
        participant = "p" ^ string_of_int (!seq mod 3);
        kind;
        inherited = false;
        input_oids;
        input_hashes = List.map (fun _ -> "h") inputs;
        output_oid = Oid.of_int oid;
        output_hash = "h";
        output_value = None;
        prev_checksums = List.filter_map (Hashtbl.find_opt latest) inputs;
        checksum;
      };
    Hashtbl.replace latest oid checksum;
    incr seq
  in
  let create () =
    let oid = Array.length !created in
    created := Array.append !created [| oid |];
    oid
  in
  let pick_inputs rank picks =
    List.map (fun p -> !created.(p mod rank)) picks
  in
  List.iter
    (fun (kind, pick, picks) ->
      let n = Array.length !created in
      match kind with
      | 1 when n > 0 ->
          let oid = !created.(pick mod n) in
          emit Record.Update ~inputs:[ oid ] oid
      | 2 when n > 0 ->
          let inputs = pick_inputs n picks in
          let oid = create () in
          agg_outputs := (oid, n) :: !agg_outputs;
          emit Record.Aggregate ~inputs oid
      | 3 when !agg_outputs <> [] ->
          let oid, rank =
            List.nth !agg_outputs (pick mod List.length !agg_outputs)
          in
          emit Record.Aggregate ~inputs:(pick_inputs rank picks) oid
      | _ -> emit Record.Insert ~inputs:[] (create ()))
    ops;
  store

(* The oracle answers every question by rescanning [Provstore.all]. *)
let oracle_aggs store o =
  List.filter
    (fun (r : Record.t) ->
      r.Record.kind = Record.Aggregate && Oid.equal r.Record.output_oid o)
    (Provstore.all store)

let oracle_children store o =
  List.filter_map
    (fun (r : Record.t) ->
      if
        r.Record.kind = Record.Aggregate
        && List.exists (Oid.equal o) r.Record.input_oids
      then Some r.Record.output_oid
      else None)
    (Provstore.all store)
  |> List.sort_uniq Oid.compare

let oracle_descendants store o =
  let rec grow seen = function
    | [] -> seen
    | x :: rest ->
        if List.exists (Oid.equal x) seen then grow seen rest
        else grow (x :: seen) (oracle_children store x @ rest)
  in
  grow [] (oracle_children store o)
  |> List.filter (fun x -> not (Oid.equal x o))
  |> List.sort Oid.compare

(* Records reachable over predecessor checksums, to a fixed point. *)
let oracle_closure store o =
  let all = Provstore.all store in
  let rec grow closure =
    let cited =
      List.concat_map (fun (r : Record.t) -> r.Record.prev_checksums) closure
    in
    let next =
      List.filter
        (fun (r : Record.t) ->
          Oid.equal r.Record.output_oid o
          || List.mem r.Record.checksum cited)
        all
    in
    if List.length next = List.length closure then closure else grow next
  in
  grow []

let oracle_contributors store o =
  let ps =
    List.map
      (fun (r : Record.t) -> r.Record.participant)
      (oracle_closure store o)
  in
  List.sort_uniq compare ps
  |> List.map (fun p -> (p, List.length (List.filter (String.equal p) ps)))
  |> List.sort (fun (pa, ca) (pb, cb) ->
         if ca <> cb then compare cb ca else compare pa pb)

(* Per-question memo: a DAG can reach one object along exponentially
   many paths. *)
let memo_rec f =
  let tbl = Oid.Tbl.create 16 in
  let rec g o =
    match Oid.Tbl.find_opt tbl o with
    | Some v -> v
    | None ->
        let v = f g o in
        Oid.Tbl.replace tbl o v;
        v
  in
  g

let oracle_depth store =
  memo_rec (fun depth o ->
      match oracle_aggs store o with
      | [] -> 0
      | aggs ->
          1
          + List.fold_left
              (fun acc (r : Record.t) ->
                List.fold_left (fun acc i -> max acc (depth i)) acc
                  r.Record.input_oids)
              0 aggs)

let oracle_why store =
  memo_rec (fun why o ->
      match oracle_aggs store o with
      | [] -> Tep_prov.Polynomial.var (Oid.to_int o)
      | aggs ->
          Tep_prov.Polynomial.sum
            (List.map
               (fun (r : Record.t) ->
                 Tep_prov.Polynomial.product (List.map why r.Record.input_oids))
               aggs))

(* Base objects reachable over aggregate inputs. *)
let oracle_bases store =
  memo_rec (fun bases o ->
      match oracle_aggs store o with
      | [] -> [ o ]
      | aggs ->
          List.concat_map
            (fun (r : Record.t) -> List.concat_map bases r.Record.input_oids)
            aggs
          |> List.sort_uniq Oid.compare)

let check_walks label store o =
  let module L = Tep_prov.Lineage in
  let idx = Prov_index.of_store store in
  let expect what eq pp got want =
    if not (eq got want) then
      QCheck2.Test.fail_reportf "%s: %s of o%d: got %s, oracle %s" label what
        (Oid.to_int o) (pp got) (pp want)
  in
  let oids l = String.concat "," (List.map Oid.to_string l) in
  (* sorted, not deduplicated: a duplicate edge shows *)
  expect "aggregated_into" ( = ) oids
    (List.sort Oid.compare (Provstore.aggregated_into store o))
    (oracle_children store o);
  let descendants = oracle_descendants store o in
  expect "descendants" ( = ) oids (Prov_index.descendants idx o) descendants;
  expect "impact" ( = ) oids (L.impact idx o) descendants;
  expect "contributors" ( = )
    (fun l ->
      String.concat ","
        (List.map (fun (p, c) -> Printf.sprintf "%s:%d" p c) l))
    (Prov_query.contributors store o)
    (oracle_contributors store o);
  expect "depth" ( = ) string_of_int (L.depth idx o) (oracle_depth store o);
  expect "why" Tep_prov.Polynomial.equal L.poly_to_string (L.why idx o)
    (oracle_why store o);
  expect "which_inputs" ( = ) oids (L.which_inputs idx o) (oracle_bases store o)

(* Small DAGs: a why-polynomial multiplies its inputs' sums out, so its
   size grows exponentially with depth and fan-in. *)
let gen_dag =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 24)
         (triple (int_bound 3) (int_bound 1000)
            (list_size (int_range 1 3) (int_bound 1000))))
      (int_bound 1023))

let print_dag (ops, mask) =
  Printf.sprintf "live mask %d, ops [%s]" mask
    (String.concat "; "
       (List.map
          (fun (k, p, ps) ->
            Printf.sprintf "(%d,%d,[%s])" k p
              (String.concat "," (List.map string_of_int ps)))
          ops))

let prop_walks_match_oracle =
  QCheck2.Test.make ~name:"lineage walks = rescan oracle" ~count:500
    ~print:print_dag gen_dag (fun (ops, mask) ->
      let live = random_store ops in
      let reloaded =
        match Provstore.of_string (Provstore.to_string live) with
        | Ok s -> s
        | Error e -> QCheck2.Test.fail_reportf "round trip: %s" e
      in
      let pruned =
        Provstore.prune live
          ~live:
            (List.filter
               (fun o -> (mask lsr (Oid.to_int o mod 10)) land 1 = 1)
               (Provstore.objects live))
      in
      (* one oid past every object: a base with no record at all *)
      let oids =
        Oid.of_int (Provstore.object_count live) :: Provstore.objects live
      in
      List.iter (check_walks "reloaded" reloaded) oids;
      (* two stores queried in turn, one question each *)
      List.iter
        (fun o ->
          check_walks "live" live o;
          check_walks "pruned" pruned o)
        oids;
      true)

let () =
  Alcotest.run "prov_query"
    [
      ( "unit",
        [
          Alcotest.test_case "history & values" `Quick test_history_and_values;
          Alcotest.test_case "writers" `Quick test_writers;
          Alcotest.test_case "contributors" `Quick test_contributors;
          Alcotest.test_case "upstream" `Quick test_upstream;
          Alcotest.test_case "downstream" `Quick test_downstream;
          Alcotest.test_case "touched_by" `Quick test_touched_by;
          Alcotest.test_case "version chain" `Quick test_version_chain;
        ] );
      ( "oracle", [ QCheck_alcotest.to_alcotest prop_walks_match_oracle ] );
      ( "perf",
        [ Alcotest.test_case "10k deep chain" `Quick test_deep_chain_linear ] );
    ]
