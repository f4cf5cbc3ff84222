(* The lineage engine: semirings, provenance polynomials, annotated
   query evaluation with pruning, lineage queries over the DAG, and
   signed annotations (tamper detection). *)
open Tep_store
open Tep_tree
open Tep_core
open Tep_prov

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let qtest = QCheck_alcotest.to_alcotest

let poly =
  Alcotest.testable
    (fun fmt p -> Format.pp_print_string fmt (Polynomial.to_string p))
    Polynomial.equal

(* ------------------------------------------------------------------ *)
(* Semirings                                                           *)
(* ------------------------------------------------------------------ *)

let test_semiring_laws () =
  let check (type a) (module S : Semiring.S with type t = a) samples =
    List.iter
      (fun x ->
        Alcotest.(check bool) "0 + x = x" true (S.equal (S.plus S.zero x) x);
        Alcotest.(check bool) "1 * x = x" true (S.equal (S.times S.one x) x);
        Alcotest.(check bool) "0 * x = 0" true
          (S.equal (S.times S.zero x) S.zero);
        List.iter
          (fun y ->
            Alcotest.(check bool) "+ commutes" true
              (S.equal (S.plus x y) (S.plus y x));
            Alcotest.(check bool) "* commutes" true
              (S.equal (S.times x y) (S.times y x)))
          samples)
      samples
  in
  check (module Semiring.Counting) [ 0; 1; 2; 7 ];
  check (module Semiring.Boolean) [ false; true ];
  check (module Semiring.Tropical) [ 0; 1; 5; Semiring.Tropical.inf ]

let test_tropical_saturates () =
  let open Semiring.Tropical in
  Alcotest.(check int) "inf + cost saturates" inf (times inf 3);
  Alcotest.(check int) "min picks the cheap path" 3 (plus 3 7)

(* ------------------------------------------------------------------ *)
(* Polynomials                                                         *)
(* ------------------------------------------------------------------ *)

let x n = Polynomial.var n

let test_poly_algebra () =
  let open Polynomial in
  Alcotest.check poly "x+y = y+x" (plus (x 1) (x 2)) (plus (x 2) (x 1));
  Alcotest.check poly "x*y = y*x" (times (x 1) (x 2)) (times (x 2) (x 1));
  Alcotest.check poly "distributes"
    (times (x 1) (plus (x 2) (x 3)))
    (plus (times (x 1) (x 2)) (times (x 1) (x 3)));
  Alcotest.check poly "collects like terms"
    (times (of_const 2) (x 1))
    (plus (x 1) (x 1));
  Alcotest.check poly "powers" (product [ x 1; x 1; x 1 ])
    (times (x 1) (times (x 1) (x 1)));
  Alcotest.(check bool) "zero annihilates" true
    (is_zero (times zero (plus (x 1) (x 2))));
  Alcotest.(check bool) "one is neutral" true
    (equal (times one (x 4)) (x 4));
  Alcotest.(check (list int)) "vars sorted" [ 1; 2; 3 ]
    (vars (plus (times (x 3) (x 1)) (x 2)));
  Alcotest.(check int) "degree" 3
    (degree (plus (times (x 1) (times (x 2) (x 3))) (x 9)));
  Alcotest.(check int) "degree of zero" (-1) (degree zero)

let test_poly_eval () =
  (* 2*x1*x2 + x3^2 under each semiring *)
  let p =
    Polynomial.(
      plus
        (times (of_const 2) (times (x 1) (x 2)))
        (times (x 3) (x 3)))
  in
  Alcotest.(check int) "counting" ((2 * 3 * 4) + (5 * 5))
    (Polynomial.count (function 1 -> 3 | 2 -> 4 | _ -> 5) p);
  Alcotest.(check bool) "boolean holds via x3" true
    (Polynomial.holds (fun v -> v = 3) p);
  Alcotest.(check bool) "boolean fails without x2" false
    (Polynomial.holds (fun v -> v = 1) p);
  (* cheapest derivation: x3^2 uses 2 base objects, x1*x2 also 2 *)
  Alcotest.(check int) "min support" 2 (Polynomial.min_support p);
  Alcotest.(check int) "tropical exponents add costs" 2
    (Polynomial.eval
       (module Semiring.Tropical)
       (fun _ -> 1)
       (Polynomial.times (x 1) (x 1)))

let test_poly_render () =
  let p =
    Polynomial.(plus (times (x 2) (x 5)) (times (of_const 2) (times (x 7) (x 7))))
  in
  Alcotest.(check string) "graded order, powers" "x2*x5 + 2*x7^2"
    (Polynomial.to_string p);
  Alcotest.(check string) "zero" "0" (Polynomial.to_string Polynomial.zero);
  Alcotest.(check string) "named" "o2*o5 + 2*o7^2"
    (Lineage.poly_to_string p)

let gen_poly =
  QCheck2.Gen.(
    let gen_atom =
      oneof
        [
          map x (int_range 0 50);
          map Polynomial.of_const (int_range 0 5);
        ]
    in
    (* small trees only: [times] over sums multiplies term counts, so
       unbounded nesting would build astronomically large normal forms *)
    sized_size (int_range 0 8)
    @@ fix (fun self n ->
           if n <= 0 then gen_atom
           else
             oneof
               [
                 gen_atom;
                 map2 Polynomial.plus (self (n / 2)) (self (n / 2));
                 map2 Polynomial.times (self (n / 2)) (self (n / 2));
               ]))

let prop_poly_codec =
  QCheck2.Test.make ~name:"decode (encode p) = p, all bytes consumed"
    ~count:500 gen_poly (fun p ->
      let s = Polynomial.encoded p in
      let p', off = Polynomial.decode s 0 in
      off = String.length s && Polynomial.equal p p')

let test_poly_decode_rejects () =
  let s = Polynomial.encoded Polynomial.(times (x 1) (plus (x 2) (x 3))) in
  for cut = 0 to String.length s - 1 do
    match Polynomial.decode (String.sub s 0 cut) 0 with
    | exception Failure _ -> ()
    | exception Invalid_argument _ -> ()
    | p', off ->
        (* a shorter valid encoding may embed as a prefix, but it must
           never claim the full length or reproduce the original *)
        if off = String.length s then
          Alcotest.failf "truncation to %d bytes consumed the full length" cut;
        if Polynomial.equal p'
             Polynomial.(times (x 1) (plus (x 2) (x 3)))
        then Alcotest.failf "truncation to %d bytes decoded the original" cut
  done

(* ------------------------------------------------------------------ *)
(* Annotated evaluation + pruning                                      *)
(* ------------------------------------------------------------------ *)

let mk_table () =
  let schema =
    Schema.make
      [
        { Schema.name = "sku"; ty = Value.TText; nullable = false };
        { Schema.name = "qty"; ty = Value.TInt; nullable = true };
      ]
  in
  let t = Table.create ~name:"stock" schema in
  List.iter
    (fun (s, q) ->
      ignore
        (Table.insert t
           [|
             Value.Text s;
             (match q with Some q -> Value.Int q | None -> Value.Null);
           |]))
    [ ("a", Some 100); ("b", Some 7); ("c", None); ("d", Some 50) ];
  t

let test_annotated_select_matches_plain () =
  let t = mk_table () in
  let pred = Query.Cmp ("qty", Query.Gt, Value.Int 10) in
  let plain = ok (Query.select t pred) in
  let annotated = ok (Annotate.select t pred) in
  Alcotest.(check (list int)) "same rows, same order"
    (List.map (fun (r : Table.row) -> r.Table.id) plain)
    (List.map (fun ((r : Table.row), _) -> r.Table.id) annotated);
  List.iter
    (fun ((r : Table.row), p) ->
      Alcotest.check poly "row var" (x r.Table.id) p)
    annotated

let test_annotated_count_and_agg () =
  let t = mk_table () in
  let pred = Query.Cmp ("qty", Query.Gt, Value.Int 10) in
  let n, cp = ok (Annotate.count t pred) in
  Alcotest.(check int) "count" 2 n;
  (* each row is an alternative derivation of the tally *)
  Alcotest.check poly "count = sum of rows" Polynomial.(plus (x 0) (x 3)) cp;
  let v, ap = ok (Annotate.aggregate t pred (Query.Sum "qty")) in
  Alcotest.(check bool) "sum value" true (v = Value.Int 150);
  (* a value aggregate uses all its inputs jointly *)
  Alcotest.check poly "sum uses all rows" Polynomial.(times (x 0) (x 3)) ap

let test_pruning () =
  let t = mk_table () in
  let contradiction =
    Query.And
      ( Query.Cmp ("sku", Query.Eq, Value.Text "a"),
        Query.Cmp ("sku", Query.Eq, Value.Text "b") )
  in
  Alcotest.(check bool) "contradiction detected" true
    (Annotate.never_matches contradiction);
  Alcotest.(check bool) "null never compares" true
    (Annotate.never_matches
       (Query.And (Query.IsNull "qty", Query.Cmp ("qty", Query.Gt, Value.Int 0))));
  Alcotest.(check bool) "double negation survives" true
    (Annotate.simplify (Query.Not (Query.Not Query.True)) = Query.True);
  Annotate.reset_pruned_scans ();
  let rows = ok (Annotate.select t contradiction) in
  Alcotest.(check int) "no rows" 0 (List.length rows);
  Alcotest.(check int) "scan skipped" 1 (Annotate.pruned_scans ());
  (* pruning must not reject satisfiable predicates *)
  Alcotest.(check int) "or of contradictions keeps the live arm" 1
    (List.length
       (ok
          (Annotate.select t
             (Query.Or (contradiction, Query.Cmp ("sku", Query.Eq, Value.Text "a"))))))

(* ------------------------------------------------------------------ *)
(* Lineage over an engine                                              *)
(* ------------------------------------------------------------------ *)

let fixture () =
  let drbg = Tep_crypto.Drbg.create ~seed:"test-prov" in
  let ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"CA" drbg in
  let dir =
    Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
  in
  let alice = Participant.create ~bits:512 ~ca ~name:"alice" drbg in
  Participant.Directory.register dir alice;
  let db = Database.create ~name:"p" in
  ignore (ok (Database.create_table db ~name:"t" (Schema.all_int [ "a" ])));
  let eng = Engine.create ~directory:dir db in
  let r0 = ok (Engine.insert_row eng alice ~table:"t" [| Value.Int 1 |]) in
  let r1 = ok (Engine.insert_row eng alice ~table:"t" [| Value.Int 2 |]) in
  let row0 = Option.get (Tree_view.row_oid (Engine.mapping eng) "t" r0) in
  let row1 = Option.get (Tree_view.row_oid (Engine.mapping eng) "t" r1) in
  let agg =
    ok
      (Engine.aggregate_objects eng alice ~value:(Value.Text "agg")
         [ row0; row1 ])
  in
  let agg2 =
    ok (Engine.aggregate_objects eng alice ~value:(Value.Text "agg2") [ agg ])
  in
  (eng, dir, alice, row0, row1, agg, agg2)

let test_lineage_why () =
  let eng, _, _, row0, row1, agg, agg2 = fixture () in
  let idx = Prov_index.of_store (Engine.provstore eng) in
  let v o = x (Oid.to_int o) in
  Alcotest.check poly "base object is its own variable" (v row0)
    (Lineage.why idx row0);
  Alcotest.check poly "aggregate multiplies its inputs"
    (Polynomial.times (v row0) (v row1))
    (Lineage.why idx agg);
  Alcotest.check poly "nested aggregate expands transitively"
    (Polynomial.times (v row0) (v row1))
    (Lineage.why idx agg2);
  Alcotest.(check (list int)) "which_inputs"
    (List.sort compare [ Oid.to_int row0; Oid.to_int row1 ])
    (List.map Oid.to_int (Lineage.which_inputs idx agg2));
  Alcotest.(check int) "depth of base" 0 (Lineage.depth idx row0);
  Alcotest.(check int) "depth of agg2" 2 (Lineage.depth idx agg2);
  Alcotest.(check int) "min support" 2 (Lineage.min_support idx agg2);
  Alcotest.(check bool) "impact of row0 reaches agg2" true
    (List.exists (Oid.equal agg2) (Lineage.impact idx row0))

(* why on a 10k-deep unsigned chain: the memoised index keeps it
   linear, and the polynomial collapses to the sole base variable *)
let test_lineage_deep_chain () =
  let n = 10_000 in
  let store = Provstore.create () in
  let ck i = "c" ^ string_of_int i in
  Provstore.append store
    {
      Record.seq_id = 0;
      participant = "p";
      kind = Record.Insert;
      inherited = false;
      input_oids = [];
      input_hashes = [];
      output_oid = Oid.of_int 0;
      output_hash = "h";
      output_value = None;
      prev_checksums = [];
      checksum = ck 0;
    };
  for i = 1 to n do
    Provstore.append store
      {
        Record.seq_id = i;
        participant = "p";
        kind = Record.Aggregate;
        inherited = false;
        input_oids = [ Oid.of_int (i - 1) ];
        input_hashes = [ "h" ];
        output_oid = Oid.of_int i;
        output_hash = "h";
        output_value = None;
        prev_checksums = [ ck (i - 1) ];
        checksum = ck i;
      }
  done;
  let idx = Prov_index.of_store store in
  let t0 = Unix.gettimeofday () in
  Alcotest.check poly "why collapses to the base" (x 0)
    (Lineage.why idx (Oid.of_int n));
  Alcotest.(check int) "depth" n (Lineage.depth idx (Oid.of_int n));
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed >= 5.0 then
    Alcotest.failf "deep-chain why took %.2fs (expected well under 5s)" elapsed

(* ------------------------------------------------------------------ *)
(* Signed annotations                                                  *)
(* ------------------------------------------------------------------ *)

let sample_annot alice root =
  Annot.make ~id:"audit1" ~table:"t" ~pred:"a > 0" ~agg:"sum(a)"
    ~rows:[ (2, x 2); (5, Polynomial.times (x 5) (x 5)) ]
    ~value:(Some (Value.Int 3)) ~root alice

let test_annot_verify_roundtrip () =
  let eng, dir, alice, _, _, _, _ = fixture () in
  let a = sample_annot alice (Engine.root_hash eng) in
  ok (Annot.verify dir a);
  (* file-format roundtrip preserves verifiability *)
  let s = Annot.list_to_string [ a; a ] in
  let l = ok (Annot.list_of_string s) in
  Alcotest.(check int) "both entries back" 2 (List.length l);
  List.iter (fun a -> ok (Annot.verify dir a)) l

let test_annot_tamper_detected () =
  let eng, dir, alice, _, _, _, _ = fixture () in
  let a = sample_annot alice (Engine.root_hash eng) in
  (* any field edit breaks the signature: the payload is recomputed *)
  let edits =
    [
      { a with Annot.a_table = "u" };
      { a with Annot.a_pred = "a > 1" };
      { a with Annot.a_agg = "" };
      { a with Annot.a_rows = [ (2, x 2) ] };
      { a with Annot.a_rows = [ (2, x 3); (5, Polynomial.times (x 5) (x 5)) ] };
      { a with Annot.a_value = None };
      { a with Annot.a_root = String.make 20 '\x00' };
      { a with Annot.a_participant = "bob" };
    ]
  in
  List.iter
    (fun bad ->
      match Annot.verify dir bad with
      | Ok () -> Alcotest.fail "edited annotation verified"
      | Error _ -> ())
    edits;
  (* every single-byte flip of the stored form must fail to parse or
     fail to verify *)
  let s = Annot.list_to_string [ a ] in
  let flips = [ 0; String.length s / 2; String.length s - 1 ] in
  List.iter
    (fun i ->
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      match Annot.list_of_string (Bytes.to_string b) with
      | Error _ -> ()
      | Ok l -> (
          match List.find_opt (fun a -> Annot.verify dir a <> Ok ()) l with
          | Some _ -> ()
          | None -> Alcotest.failf "flip at byte %d went undetected" i))
    flips

let test_annot_unknown_participant () =
  let eng, _, alice, _, _, _, _ = fixture () in
  let drbg = Tep_crypto.Drbg.create ~seed:"other-ca" in
  let other_ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"Other" drbg in
  let foreign_dir =
    Participant.Directory.create
      ~ca_key:(Tep_crypto.Pki.ca_public_key other_ca)
  in
  let a = sample_annot alice (Engine.root_hash eng) in
  match Annot.verify foreign_dir a with
  | Ok () -> Alcotest.fail "foreign directory accepted the annotation"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* The annotated query shared by the service and the CLI               *)
(* ------------------------------------------------------------------ *)

let test_query_errors () =
  let t = mk_table () in
  let q ?agg where =
    Annotate.query ~var:(fun (r : Table.row) -> r.Table.id) t ~where ~agg
  in
  (match q "qty >" with
  | Error (Annotate.Parse _) -> ()
  | _ -> Alcotest.fail "a malformed where must be a parse error");
  (match q ~agg:"median(qty)" "" with
  | Error (Annotate.Parse _) -> ()
  | _ -> Alcotest.fail "an unknown aggregate must be a parse error");
  (match q ~agg:"sum(sku)" "" with
  | Error (Annotate.Eval _) -> ()
  | _ -> Alcotest.fail "sum over a text column must be an evaluation error");
  match q ~agg:"sum(qty)" "qty > 10" with
  | Error _ -> Alcotest.fail "a well-formed query failed"
  | Ok a ->
      Alcotest.(check (list int)) "rows" [ 0; 3 ]
        (List.map (fun (_, v, _) -> v) a.Annotate.q_rows);
      Alcotest.(check bool) "value" true (a.q_value = Some (Value.Int 150))

(* What a client receives for an Annotated_query is exactly what the
   shared evaluator computes on the server's engine. *)
let test_query_loopback_matches_direct () =
  let eng, _, alice, _, _, _, _ = fixture () in
  let module Client = Tep_client.Client in
  let server =
    Tep_server.Server.create
      ~drbg:(Tep_crypto.Drbg.create ~seed:"server")
      ~participants:[ ("alice", alice) ]
      eng
  in
  let c = Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"client") server in
  ok (Client.authenticate c alice);
  let tbl = Database.get_table_exn (Engine.backend eng) "t" in
  List.iter
    (fun (where, agg) ->
      let direct =
        match
          Annotate.query
            ~var:(Annotate.row_var (Engine.mapping eng) "t")
            tbl ~where ~agg
        with
        | Ok a -> a
        | Error _ -> Alcotest.failf "direct query %S failed" where
      in
      let rows, value, _ =
        ok (Client.annotated_query c ~table:"t" ~where ?agg ())
      in
      let text cells =
        String.concat "," (Array.to_list (Array.map Value.to_string cells))
      in
      Alcotest.(check (list (triple int string string)))
        (where ^ ": rows and polynomials")
        (List.map
           (fun ((r : Table.row), v, p) ->
             (v, text r.Table.cells, Polynomial.to_string p))
           direct.Annotate.q_rows)
        (List.map
           (fun (r : Client.annotated_row) ->
             ( r.Client.ar_var,
               text r.Client.ar_cells,
               Polynomial.to_string r.Client.ar_poly ))
           rows);
      Alcotest.(check bool) (where ^ ": value") true (value = direct.q_value))
    [
      ("", None); ("a > 1", None); ("a >= 1", Some "sum(a)"); ("", Some "count");
    ];
  Client.close c

let () =
  Alcotest.run "prov"
    [
      ( "semiring",
        [
          Alcotest.test_case "laws" `Quick test_semiring_laws;
          Alcotest.test_case "tropical" `Quick test_tropical_saturates;
        ] );
      ( "polynomial",
        [
          Alcotest.test_case "algebra" `Quick test_poly_algebra;
          Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "render" `Quick test_poly_render;
          Alcotest.test_case "decode rejects" `Quick test_poly_decode_rejects;
          qtest prop_poly_codec;
        ] );
      ( "annotate",
        [
          Alcotest.test_case "select matches plain" `Quick
            test_annotated_select_matches_plain;
          Alcotest.test_case "count & aggregate" `Quick
            test_annotated_count_and_agg;
          Alcotest.test_case "pruning" `Quick test_pruning;
          Alcotest.test_case "query errors" `Quick test_query_errors;
          Alcotest.test_case "loopback query = direct" `Quick
            test_query_loopback_matches_direct;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "why & friends" `Quick test_lineage_why;
          Alcotest.test_case "10k deep chain" `Quick test_lineage_deep_chain;
        ] );
      ( "annot",
        [
          Alcotest.test_case "sign & verify" `Quick test_annot_verify_roundtrip;
          Alcotest.test_case "tampering detected" `Quick
            test_annot_tamper_detected;
          Alcotest.test_case "foreign directory" `Quick
            test_annot_unknown_participant;
        ] );
    ]
