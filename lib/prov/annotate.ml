open Tep_store

(* ------------------------------------------------------------------ *)
(* Pruning                                                             *)
(* ------------------------------------------------------------------ *)

(* [Not True] is the canonical "matches nothing" predicate — the
   grammar has no dedicated False constructor. *)
let pfalse = Query.Not Query.True
let is_false p = p = pfalse

(* Would a row whose [col] equals [v] fail comparison [(op, w)]?
   Mirrors [Query.cmp_ok] over [Value.compare], so a conjunction
   [col = v and col op w] is contradictory exactly when the plain
   evaluator would reject every row the equality admits. *)
let eq_rejects (op : Query.cmp) v w =
  let c = Value.compare v w in
  match op with
  | Query.Eq -> c <> 0
  | Query.Ne -> c = 0
  | Query.Lt -> c >= 0
  | Query.Le -> c > 0
  | Query.Gt -> c <= 0
  | Query.Ge -> c < 0

(* Conjuncts of a conjunction, atoms only (nested or/not stay opaque). *)
let rec conjuncts p =
  match p with
  | Query.And (a, b) -> conjuncts a @ conjuncts b
  | _ -> [ p ]

let contradictory atoms =
  let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) atoms) atoms in
  List.exists
    (fun (a, b) ->
      match (a, b) with
      | Query.Cmp (ca, Query.Eq, v), Query.Cmp (cb, op, w) when ca = cb ->
          eq_rejects op v w
      | Query.IsNull ca, Query.Cmp (cb, _, _) when ca = cb ->
          (* SQL: a NULL cell satisfies no comparison *)
          true
      | _ -> false)
    pairs

let rec simplify p =
  match p with
  | Query.True | Query.Cmp _ | Query.IsNull _ -> p
  | Query.Not a -> (
      match simplify a with
      | Query.True -> pfalse
      | Query.Not b -> b (* double negation; also turns [not false] into true *)
      | b -> Query.Not b)
  | Query.Or (a, b) -> (
      match (simplify a, b |> simplify) with
      | Query.True, _ | _, Query.True -> Query.True
      | a', b' when is_false a' -> b'
      | a', b' when is_false b' -> a'
      | a', b' -> Query.Or (a', b'))
  | Query.And (a, b) -> (
      match (simplify a, simplify b) with
      | a', b' when is_false a' || is_false b' -> pfalse
      | Query.True, b' -> b'
      | a', Query.True -> a'
      | a', b' ->
          let conj = Query.And (a', b') in
          if contradictory (conjuncts conj) then pfalse else conj)

let never_matches p = is_false (simplify p)

let pruned = Atomic.make 0
let pruned_scans () = Atomic.get pruned
let reset_pruned_scans () = Atomic.set pruned 0

(* ------------------------------------------------------------------ *)
(* Annotated evaluation                                                *)
(* ------------------------------------------------------------------ *)

let row_var mapping table (row : Table.row) =
  match Tep_tree.Tree_view.row_oid mapping table row.Table.id with
  | Some oid -> Tep_tree.Oid.to_int oid
  | None -> row.Table.id

let default_var (row : Table.row) = Polynomial.var row.Table.id

let select ?(var = default_var) table pred =
  let pred = simplify pred in
  if is_false pred then begin
    Atomic.incr pruned;
    Ok []
  end
  else
    Result.map (List.map (fun r -> (r, var r))) (Query.select table pred)

let count ?var table pred =
  Result.map
    (fun rows ->
      (List.length rows, Polynomial.sum (List.map snd rows)))
    (select ?var table pred)

let aggregate ?var table pred agg =
  match select ?var table pred with
  | Error e -> Error e
  | Ok rows -> (
      let polys = List.map snd rows in
      let annot =
        match agg with
        | Query.Count -> Polynomial.sum polys
        | _ -> Polynomial.product polys
      in
      match Query.aggregate_rows (Table.schema table) (List.map fst rows) agg with
      | Error e -> Error e
      | Ok v -> Ok (v, annot))

(* ------------------------------------------------------------------ *)
(* The annotated query                                                 *)
(* ------------------------------------------------------------------ *)

type query_error = Parse of string | Eval of string

type answer = {
  q_pred : Query.pred;
  q_rows : (Table.row * int * Polynomial.t) list;
  q_value : Value.t option;
}

let query ~var table ~where ~agg =
  let ( let* ) = Result.bind in
  let parse r = Result.map_error (fun e -> Parse e) r
  and eval r = Result.map_error (fun e -> Eval e) r in
  let schema = Table.schema table in
  let* pred = parse (Query.pred_of_string where) in
  let pred = Query.coerce_pred schema pred in
  let* rows = eval (select ~var:(fun r -> Polynomial.var (var r)) table pred) in
  let* value =
    match agg with
    | None -> Ok None
    | Some a ->
        let* a = parse (Query.agg_of_string a) in
        let* v = eval (Query.aggregate_rows schema (List.map fst rows) a) in
        Ok (Some v)
  in
  let q_rows = List.map (fun (r, p) -> (r, var r, p)) rows in
  Ok { q_pred = pred; q_rows; q_value = value }
