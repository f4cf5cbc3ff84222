open Tep_store

type location =
  | Root
  | Table of string
  | Row of string * int
  | Cell of string * int * int

type mapping = {
  root : Oid.t;
  forward : (location, Oid.t) Hashtbl.t;
  reverse : location Oid.Tbl.t;
}

let root m = m.root

let root_value db = Value.Text (Database.name db)
let table_value name = Value.Text name
let row_value id = Value.Int id

let register m loc oid =
  Hashtbl.replace m.forward loc oid;
  Oid.Tbl.replace m.reverse oid loc

let unregister m oid =
  match Oid.Tbl.find_opt m.reverse oid with
  | None -> ()
  | Some loc ->
      Oid.Tbl.remove m.reverse oid;
      Hashtbl.remove m.forward loc

let table_oid m name = Hashtbl.find_opt m.forward (Table name)
let row_oid m tbl id = Hashtbl.find_opt m.forward (Row (tbl, id))
let cell_oid m tbl id col = Hashtbl.find_opt m.forward (Cell (tbl, id, col))
let locate m oid = Oid.Tbl.find_opt m.reverse oid

let ( let* ) = Result.bind

(* The oids a replay assigns are the oids the engine assigned only
   because both run this one function: every node is inserted in the
   order below, from the same allocator. *)
let mirror ?(touch = fun ~direct:_ _ -> ()) ?(created = ignore) forest m =
  let insert parent loc v =
    let* oid = Forest.insert ~parent forest v in
    register m loc oid;
    created oid;
    Ok oid
  in
  function
  | Wal.Create_table (name, _) ->
      touch ~direct:false m.root;
      let* _ = insert m.root (Table name) (table_value name) in
      Ok ()
  | Wal.Insert_row (tbl, id, cells) -> (
      match table_oid m tbl with
      | None -> Error (Printf.sprintf "no table %s" tbl)
      | Some toid ->
          touch ~direct:false toid;
          let* roid = insert toid (Row (tbl, id)) (row_value id) in
          let rec from col =
            if col = Array.length cells then Ok ()
            else
              let* _ = insert roid (Cell (tbl, id, col)) cells.(col) in
              from (col + 1)
          in
          from 0)
  | Wal.Delete_row (tbl, id) -> (
      match row_oid m tbl id with
      | None -> Error (Printf.sprintf "no row %d in %s" id tbl)
      | Some roid ->
          touch ~direct:true roid;
          (* leaf deletes only: the cells first, then the row *)
          List.fold_left
            (fun acc oid ->
              let* () = acc in
              let* _ = Forest.delete forest oid in
              unregister m oid;
              Ok ())
            (Ok ())
            (Forest.children forest roid @ [ roid ]))
  | Wal.Update_cell (tbl, id, col, v) -> (
      match cell_oid m tbl id col with
      | None -> Error (Printf.sprintf "no cell (%s, row %d, col %d)" tbl id col)
      | Some coid ->
          touch ~direct:true coid;
          let* _ = Forest.update forest coid v in
          Ok ())
  | Wal.Aggregate (v, inputs) ->
      let* boid, _ = Forest.aggregate forest v (List.map Oid.of_int inputs) in
      created boid;
      Ok ()
  | Wal.Commit _ | Wal.Blob _ | Wal.Prepare _ | Wal.Decide _ -> Ok ()

let build forest db =
  let root =
    match Forest.insert forest (root_value db) with
    | Ok o -> o
    | Error e -> failwith e
  in
  let m =
    { root; forward = Hashtbl.create 4096; reverse = Oid.Tbl.create 4096 }
  in
  register m Root root;
  let apply entry =
    match mirror forest m entry with Ok () -> () | Error e -> failwith e
  in
  List.iter
    (fun tbl ->
      let name = Table.name tbl in
      apply (Wal.Create_table (name, Table.schema tbl));
      Table.iter
        (fun r -> apply (Wal.Insert_row (name, r.Table.id, r.Table.cells)))
        tbl)
    (Database.tables db);
  m

(* Entries go out in oid order, so the bytes depend on the mapping
   alone and not on the hash table's insertion history: a recovered
   mapping encodes exactly like the live one. *)
let encode buf m =
  Value.add_varint buf (Oid.to_int m.root);
  Value.add_varint buf (Hashtbl.length m.forward);
  Hashtbl.fold (fun loc oid acc -> (oid, loc) :: acc) m.forward []
  |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)
  |> List.iter (fun (oid, loc) ->
      (match loc with
      | Root -> Buffer.add_char buf '\x00'
      | Table t ->
          Buffer.add_char buf '\x01';
          Value.add_string buf t
      | Row (t, r) ->
          Buffer.add_char buf '\x02';
          Value.add_string buf t;
          Value.add_varint buf r
      | Cell (t, r, c) ->
          Buffer.add_char buf '\x03';
          Value.add_string buf t;
          Value.add_varint buf r;
          Value.add_varint buf c);
      Value.add_varint buf (Oid.to_int oid))

let decode s off =
  let root, off = Value.read_varint s off in
  let count, off = Value.read_varint s off in
  (* Each entry is at least 2 bytes; reject counts a hostile input
     cannot possibly back, and never preallocate from untrusted
     sizes. *)
  if count < 0 || count > (String.length s - off) / 2 then
    failwith "Tree_view.decode: implausible entry count";
  let size_hint = min 65_536 (max 16 count) in
  let m =
    {
      root = Oid.of_int root;
      forward = Hashtbl.create size_hint;
      reverse = Oid.Tbl.create size_hint;
    }
  in
  let off = ref off in
  for _ = 1 to count do
    if !off >= String.length s then failwith "Tree_view.decode: truncated";
    let tag = s.[!off] in
    incr off;
    let loc =
      match tag with
      | '\x00' -> Root
      | '\x01' ->
          let t, o = Value.read_string s !off in
          off := o;
          Table t
      | '\x02' ->
          let t, o = Value.read_string s !off in
          let r, o = Value.read_varint s o in
          off := o;
          Row (t, r)
      | '\x03' ->
          let t, o = Value.read_string s !off in
          let r, o = Value.read_varint s o in
          let c, o = Value.read_varint s o in
          off := o;
          Cell (t, r, c)
      | _ -> failwith "Tree_view.decode: bad location tag"
    in
    let oid, o = Value.read_varint s !off in
    off := o;
    register m loc (Oid.of_int oid)
  done;
  (m, !off)
