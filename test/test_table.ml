(* Tables: CRUD, id stability, iteration order, codec. *)
open Tep_store

let mk_table () = Table.create ~name:"t" (Schema.all_int [ "a"; "b" ])

let row i j = [| Value.Int i; Value.Int j |]

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let test_insert_get () =
  let t = mk_table () in
  let id0 = ok (Table.insert t (row 1 2)) in
  let id1 = ok (Table.insert t (row 3 4)) in
  Alcotest.(check int) "ids distinct" 1 (id1 - id0);
  (match Table.get t id0 with
  | Some r -> Alcotest.(check bool) "cells" true (Value.equal r.Table.cells.(1) (Value.Int 2))
  | None -> Alcotest.fail "row missing");
  Alcotest.(check int) "count" 2 (Table.row_count t)

let test_insert_validates () =
  let t = mk_table () in
  match Table.insert t [| Value.Text "no"; Value.Int 1 |] with
  | Ok _ -> Alcotest.fail "type error accepted"
  | Error _ -> ()

let test_insert_isolation () =
  (* mutation of the caller's array must not leak into the table *)
  let t = mk_table () in
  let cells = row 1 2 in
  let id = ok (Table.insert t cells) in
  cells.(0) <- Value.Int 999;
  match Table.get t id with
  | Some r -> Alcotest.(check bool) "copied" true (Value.equal r.Table.cells.(0) (Value.Int 1))
  | None -> Alcotest.fail "row missing"

let test_delete () =
  let t = mk_table () in
  let id = ok (Table.insert t (row 1 2)) in
  Alcotest.(check bool) "deleted" true (Table.delete t id);
  Alcotest.(check bool) "gone" true (Table.get t id = None);
  Alcotest.(check bool) "double delete" false (Table.delete t id);
  (* ids are never reused *)
  let id2 = ok (Table.insert t (row 5 6)) in
  Alcotest.(check bool) "no reuse" true (id2 > id)

let test_update_cell () =
  let t = mk_table () in
  let id = ok (Table.insert t (row 1 2)) in
  let prev = ok (Table.update_cell t id 1 (Value.Int 42)) in
  Alcotest.(check bool) "prev" true (Value.equal prev (Value.Int 2));
  (match Table.update_cell t id 1 (Value.Text "bad") with
  | Ok _ -> Alcotest.fail "type check missed"
  | Error _ -> ());
  (match Table.update_cell t id 9 (Value.Int 0) with
  | Ok _ -> Alcotest.fail "bad column accepted"
  | Error _ -> ());
  match Table.update_cell t 999 0 (Value.Int 0) with
  | Ok _ -> Alcotest.fail "missing row accepted"
  | Error _ -> ()

let test_iteration_order () =
  let t = mk_table () in
  let ids = List.init 50 (fun i -> ok (Table.insert t (row i i))) in
  (* delete every third, insert a few more *)
  List.iteri (fun i id -> if i mod 3 = 0 then ignore (Table.delete t id)) ids;
  let _ = ok (Table.insert t (row 100 100)) in
  let seen = ref [] in
  Table.iter (fun r -> seen := r.Table.id :: !seen) t;
  let seen = List.rev !seen in
  Alcotest.(check (list int)) "sorted ids" (List.sort compare seen) seen;
  Alcotest.(check int) "rows function agrees" (List.length seen)
    (List.length (Table.rows t))

let test_insert_with_id () =
  let t = mk_table () in
  ok (Table.insert_with_id t 10 (row 1 1));
  (match Table.insert_with_id t 10 (row 2 2) with
  | Ok () -> Alcotest.fail "duplicate id accepted"
  | Error _ -> ());
  (* allocator bumped past explicit ids *)
  let id = ok (Table.insert t (row 3 3)) in
  Alcotest.(check bool) "bumped" true (id > 10)

let test_fold () =
  let t = mk_table () in
  for i = 1 to 10 do
    ignore (Table.insert t (row i 0))
  done;
  let sum =
    Table.fold
      (fun acc r ->
        match r.Table.cells.(0) with Value.Int i -> acc + i | _ -> acc)
      0 t
  in
  Alcotest.(check int) "fold sum" 55 sum

let test_codec () =
  let t = mk_table () in
  for i = 1 to 20 do
    ignore (Table.insert t (row i (i * i)))
  done;
  ignore (Table.delete t 5);
  let buf = Buffer.create 256 in
  Table.encode buf t;
  let t', off = Table.decode (Buffer.contents buf) 0 in
  Alcotest.(check int) "consumed" (Buffer.length buf) off;
  Alcotest.(check int) "rows" (Table.row_count t) (Table.row_count t');
  Alcotest.(check (list int)) "ids" (Table.row_ids t) (Table.row_ids t');
  (* next_id preserved: new insert gets a fresh id *)
  let id = ok (Table.insert t' (row 0 0)) in
  Alcotest.(check int) "next id" 20 id

let () =
  Alcotest.run "table"
    [
      ( "unit",
        [
          Alcotest.test_case "insert/get" `Quick test_insert_get;
          Alcotest.test_case "insert validates" `Quick test_insert_validates;
          Alcotest.test_case "insert isolation" `Quick test_insert_isolation;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "update_cell" `Quick test_update_cell;
          Alcotest.test_case "iteration order" `Quick test_iteration_order;
          Alcotest.test_case "insert_with_id" `Quick test_insert_with_id;
          Alcotest.test_case "fold" `Quick test_fold;
          Alcotest.test_case "codec" `Quick test_codec;
        ] );
    ]
