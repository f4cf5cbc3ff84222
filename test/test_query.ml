(* Predicates, deletes and updates of selected rows, aggregates. *)
open Tep_store
open Query

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let mk_table () =
  let schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.TInt; nullable = false };
        { Schema.name = "score"; ty = Value.TInt; nullable = true };
        { Schema.name = "name"; ty = Value.TText; nullable = false };
      ]
  in
  let t = Table.create ~name:"people" schema in
  List.iter
    (fun (i, s, n) ->
      ignore
        (Table.insert t
           [|
             Value.Int i;
             (match s with Some v -> Value.Int v | None -> Value.Null);
             Value.Text n;
           |]))
    [
      (1, Some 10, "ann");
      (2, Some 20, "bob");
      (3, None, "carol");
      (4, Some 40, "dave");
      (5, Some 50, "ann");
    ];
  t

let test_select_cmp () =
  let t = mk_table () in
  Alcotest.(check int) "gt" 2
    (List.length (ok (select t (Cmp ("score", Gt, Value.Int 20)))));
  Alcotest.(check int) "eq text" 2
    (List.length (ok (select t (Cmp ("name", Eq, Value.Text "ann")))));
  Alcotest.(check int) "ne" 3
    (List.length (ok (select t (Cmp ("name", Ne, Value.Text "ann")))));
  Alcotest.(check int) "le" 2
    (List.length (ok (select t (Cmp ("score", Le, Value.Int 20)))))

let test_null_semantics () =
  let t = mk_table () in
  (* NULL never matches a comparison, even Ne *)
  Alcotest.(check int) "null not in ne" 3
    (List.length (ok (select t (Cmp ("score", Ne, Value.Int 10)))));
  Alcotest.(check int) "is null" 1 (List.length (ok (select t (IsNull "score"))));
  Alcotest.(check int) "not null" 4
    (List.length (ok (select t (Not (IsNull "score")))))

let test_boolean_ops () =
  let t = mk_table () in
  let p =
    And (Cmp ("score", Ge, Value.Int 20), Cmp ("name", Ne, Value.Text "dave"))
  in
  Alcotest.(check int) "and" 2 (List.length (ok (select t p)));
  let p = Or (Cmp ("name", Eq, Value.Text "carol"), Cmp ("id", Eq, Value.Int 1)) in
  Alcotest.(check int) "or" 2 (List.length (ok (select t p)));
  Alcotest.(check int) "true" 5 (List.length (ok (select t True)))

let test_unknown_column () =
  let t = mk_table () in
  match select t (Cmp ("nope", Eq, Value.Int 1)) with
  | Ok _ -> Alcotest.fail "unknown column accepted"
  | Error e -> Alcotest.(check string) "msg" "unknown column nope" e

let test_count () =
  let t = mk_table () in
  Alcotest.(check int) "count" 2 (ok (count t (Cmp ("name", Eq, Value.Text "ann"))))

(* Bulk changes are a select followed by per-row table operations. *)
let test_delete_selected () =
  let t = mk_table () in
  let p = Cmp ("score", Lt, Value.Int 25) in
  let ids = List.map (fun (r : Table.row) -> r.Table.id) (ok (select t p)) in
  Alcotest.(check int) "selected" 2 (List.length ids);
  Alcotest.(check (list bool)) "each deleted" [ true; true ]
    (List.map (Table.delete t) ids);
  Alcotest.(check int) "remaining" 3 (Table.row_count t);
  Alcotest.(check int) "none left to match" 0 (ok (count t p))

let test_update_selected () =
  let t = mk_table () in
  let rows = ok (select t (Cmp ("name", Eq, Value.Text "ann"))) in
  Alcotest.(check int) "touched" 2 (List.length rows);
  List.iter
    (fun (r : Table.row) -> ignore (ok (Table.update_cell t r.Table.id 1 (Value.Int 0))))
    rows;
  Alcotest.(check int) "zeroed" 2 (ok (count t (Cmp ("score", Eq, Value.Int 0))));
  Alcotest.(check int) "others kept" 1 (ok (count t (Cmp ("score", Eq, Value.Int 20))));
  match Table.update_cell t 1 9 (Value.Int 0) with
  | Ok _ -> Alcotest.fail "unknown column accepted"
  | Error e -> Alcotest.(check string) "msg" "no column 9" e

let test_aggregates () =
  let t = mk_table () in
  let v = Alcotest.testable Value.pp Value.equal in
  Alcotest.check v "count" (Value.Int 5) (ok (aggregate t True Count));
  Alcotest.check v "sum skips null" (Value.Int 120) (ok (aggregate t True (Sum "score")));
  Alcotest.check v "avg" (Value.Float 30.) (ok (aggregate t True (Avg "score")));
  Alcotest.check v "min" (Value.Int 10) (ok (aggregate t True (Min "score")));
  Alcotest.check v "max" (Value.Int 50) (ok (aggregate t True (Max "score")));
  Alcotest.check v "min text" (Value.Text "ann") (ok (aggregate t True (Min "name")));
  (* empty input *)
  Alcotest.check v "empty sum" Value.Null
    (ok (aggregate t (Cmp ("id", Gt, Value.Int 100)) (Sum "score")));
  Alcotest.check v "empty count" (Value.Int 0)
    (ok (aggregate t (Cmp ("id", Gt, Value.Int 100)) Count));
  (* non-numeric sum *)
  match aggregate t True (Sum "name") with
  | Ok _ -> Alcotest.fail "text sum accepted"
  | Error _ -> ()

let test_pp () =
  let p = And (Cmp ("a", Le, Value.Int 3), Not (IsNull "b")) in
  Alcotest.(check string) "render" "(a <= 3 and not b is null)"
    (Format.asprintf "%a" pp_pred p)

(* ---- pred_of_string: the inverse of pp_pred ---- *)

let test_parse_pred () =
  let p s = ok (pred_of_string s) in
  (* not > and > or *)
  Alcotest.(check string) "precedence"
    "((i = 1 and not j = 2) or k is null)"
    (pred_to_string (p "i = 1 and not j = 2 or k is null"));
  Alcotest.(check string) "parens" "(i = 1 and (j = 2 or k = 3))"
    (pred_to_string (p "i = 1 and (j = 2 or k = 3)"));
  (* quoted text, with spaces and keywords *)
  (match p "name = 'ann and bob'" with
  | Cmp ("name", Eq, Value.Text "ann and bob") -> ()
  | q -> Alcotest.failf "quoted text parsed as %s" (pred_to_string q));
  (* unquoted multi-word values join with spaces *)
  (match p "name = ann bob" with
  | Cmp ("name", Eq, Value.Text "ann bob") -> ()
  | q -> Alcotest.failf "multi-word text parsed as %s" (pred_to_string q));
  (match p "score is not null" with
  | Not (IsNull "score") -> ()
  | q -> Alcotest.failf "is-not-null parsed as %s" (pred_to_string q));
  Alcotest.(check bool) "empty is true" true (p "" = True);
  List.iter
    (fun bad ->
      match pred_of_string bad with
      | Ok q -> Alcotest.failf "%S accepted as %s" bad (pred_to_string q)
      | Error _ -> ())
    [ "i ="; "= 1"; "i = 'abc"; "(i = 1"; "i = 1)"; "and"; "not"; "i <=> 1" ]

(* Property: parse is the left inverse of print, over a typed schema.
   Values are printed by Value.to_string, so the parser sees "1" for
   Float 1. and reads it back as Int 1 — coerce_pred against the
   schema restores the typed form, which is also exactly what every
   pred_of_string caller does with live tables. *)
let roundtrip_schema =
  Schema.make
    [
      { Schema.name = "i"; ty = Value.TInt; nullable = true };
      { Schema.name = "f"; ty = Value.TFloat; nullable = true };
      { Schema.name = "b"; ty = Value.TBool; nullable = true };
      { Schema.name = "s"; ty = Value.TText; nullable = true };
    ]

(* Lowercase words that are neither grammar keywords nor parseable as
   numbers, so a text value reparses as itself. *)
let gen_word =
  let keywords =
    [ "and"; "or"; "not"; "is"; "null"; "true"; "false"; "nan"; "inf";
      "infinity" ]
  in
  QCheck2.Gen.(
    map
      (fun s -> if List.mem s keywords then s ^ "x" else s)
      (string_size
         ~gen:(map (fun i -> Char.chr (Char.code 'a' + i)) (int_range 0 25))
         (int_range 1 8)))

let gen_cmp =
  let open QCheck2.Gen in
  let col_val =
    oneof
      [
        map (fun n -> ("i", Value.Int n)) (int_range (-1000) 1000);
        map
          (fun n -> ("f", Value.Float (float_of_int n /. 8.)))
          (int_range (-1000) 1000);
        map (fun b -> ("b", Value.Bool b)) bool;
        map (fun w -> ("s", Value.Text w)) gen_word;
        oneofl [ ("i", Value.Null); ("s", Value.Null) ];
      ]
  in
  map2
    (fun (c, v) op -> Cmp (c, op, v))
    col_val
    (oneofl [ Eq; Ne; Lt; Le; Gt; Ge ])

let gen_pred =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then
             oneof
               [ return True; gen_cmp; oneofl [ IsNull "i"; IsNull "s" ] ]
           else
             frequency
               [
                 (3, gen_cmp);
                 (1, map (fun p -> Not p) (self (n - 1)));
                 (2, map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2)));
                 (2, map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2)));
               ]))

let prop_pred_roundtrip =
  QCheck2.Test.make ~name:"coerce (parse (print p)) = p" ~count:1000 gen_pred
    (fun p ->
      let s = pred_to_string p in
      match pred_of_string s with
      | Error e -> QCheck2.Test.fail_reportf "parse error on %S: %s" s e
      | Ok q -> coerce_pred roundtrip_schema q = p)

(* Random tables over the round-trip schema: every column nullable,
   values drawn close to gen_cmp's literals so comparisons hit both
   sides and equality. *)
let gen_rows =
  let open QCheck2.Gen in
  let cell gen = frequency [ (1, return Value.Null); (4, gen) ] in
  list_size (int_range 0 20)
    (map
       (fun (i, f, b, w) -> [| i; f; b; w |])
       (quad
          (cell (map (fun n -> Value.Int n) (int_range (-4) 4)))
          (cell (map (fun n -> Value.Float (float_of_int n /. 2.)) (int_range (-4) 4)))
          (cell (map (fun b -> Value.Bool b) bool))
          (cell (map (fun w -> Value.Text w) (oneofl [ "a"; "ann"; "b"; "zed" ])))))

let table_of rows =
  let t = Table.create ~name:"r" roundtrip_schema in
  List.iter (fun cells -> ignore (ok (Table.insert t cells))) rows;
  t

let ids_of rows = List.map (fun (r : Table.row) -> r.Table.id) rows
let select_ids t p = ids_of (ok (select t p))

(* Two-valued logic over rows: [And]/[Or]/[Not] are intersection,
   union and complement of the selected id sets, and every result is
   in row-id order. *)
let prop_connectives_are_set_algebra =
  QCheck2.Test.make ~name:"and/or/not = inter/union/complement" ~count:300
    QCheck2.Gen.(triple gen_rows gen_pred gen_pred)
    (fun (rows, p, q) ->
      let t = table_of rows in
      let all = Table.row_ids t in
      let sp = select_ids t p and sq = select_ids t q in
      let keep f = List.filter f all in
      select_ids t (And (p, q)) = keep (fun i -> List.mem i sp && List.mem i sq)
      && select_ids t (Or (p, q)) = keep (fun i -> List.mem i sp || List.mem i sq)
      && select_ids t (Not p) = keep (fun i -> not (List.mem i sp))
      && ok (count t p) = List.length sp)

let prop_delete_selected =
  QCheck2.Test.make ~name:"deleting select's rows leaves its complement" ~count:300
    QCheck2.Gen.(pair gen_rows gen_pred)
    (fun (rows, p) ->
      let t = table_of rows in
      let before = Table.row_ids t in
      let matched = select_ids t p in
      let rest = select_ids t (Not p) in
      List.for_all (Table.delete t) matched
      && Table.row_ids t = List.filter (fun i -> not (List.mem i matched)) before
      && Table.row_ids t = rest
      && select_ids t p = [])

(* Count, Sum, Min and Max over an int column, against a fold over
   the selected rows' non-null cells. *)
let prop_aggregates_over_select =
  QCheck2.Test.make ~name:"aggregate = fold over select" ~count:300
    QCheck2.Gen.(pair gen_rows gen_pred)
    (fun (rows, p) ->
      let t = table_of rows in
      let sel = ok (select t p) in
      let ints =
        List.filter_map
          (fun (r : Table.row) ->
            match r.Table.cells.(0) with Value.Int n -> Some n | _ -> None)
          sel
      in
      let over f = match ints with [] -> Value.Null | n :: ns -> Value.Int (List.fold_left f n ns) in
      ok (aggregate t p Count) = Value.Int (List.length sel)
      && ok (aggregate t p (Sum "i")) = over ( + )
      && ok (aggregate t p (Min "i")) = over min
      && ok (aggregate t p (Max "i")) = over max
      && aggregate t p (Sum "s") = aggregate_rows (Table.schema t) sel (Sum "s"))

let prop_agg_roundtrip =
  QCheck2.Test.make ~name:"agg_of_string (agg_to_string a) = a" ~count:200
    QCheck2.Gen.(
      map2
        (fun f c -> f c)
        (oneofl
           [ (fun _ -> Count); (fun c -> Sum c); (fun c -> Avg c);
             (fun c -> Min c); (fun c -> Max c) ])
        gen_word)
    (fun a -> agg_of_string (agg_to_string a) = Ok a)

let () =
  Alcotest.run "query"
    [
      ( "unit",
        [
          Alcotest.test_case "select cmp" `Quick test_select_cmp;
          Alcotest.test_case "null semantics" `Quick test_null_semantics;
          Alcotest.test_case "boolean ops" `Quick test_boolean_ops;
          Alcotest.test_case "unknown column" `Quick test_unknown_column;
          Alcotest.test_case "count" `Quick test_count;
          Alcotest.test_case "delete selected" `Quick test_delete_selected;
          Alcotest.test_case "update selected" `Quick test_update_selected;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "pred-parse",
        [
          Alcotest.test_case "grammar" `Quick test_parse_pred;
          QCheck_alcotest.to_alcotest prop_pred_roundtrip;
          QCheck_alcotest.to_alcotest prop_agg_roundtrip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_connectives_are_set_algebra;
            prop_delete_selected;
            prop_aggregates_over_select;
          ]
      );
    ]
