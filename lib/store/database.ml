type t = { name : string; tables : (string, Table.t) Hashtbl.t }

let create ~name = { name; tables = Hashtbl.create 8 }

let name t = t.name

let create_table t ~name schema =
  if Hashtbl.mem t.tables name then
    Error (Printf.sprintf "table %s already exists" name)
  else begin
    let table = Table.create ~name schema in
    Hashtbl.replace t.tables name table;
    Ok table
  end

let get_table t name = Hashtbl.find_opt t.tables name

let get_table_exn t name =
  match get_table t name with Some tbl -> tbl | None -> raise Not_found

let table_names t =
  List.sort Stdlib.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [])

let tables t = List.map (get_table_exn t) (table_names t)

let total_rows t =
  List.fold_left (fun acc tbl -> acc + Table.row_count tbl) 0 (tables t)

let node_count t =
  List.fold_left
    (fun acc tbl ->
      acc + 1 + (Table.row_count tbl * (1 + Schema.arity (Table.schema tbl))))
    1 (tables t)

let encode buf t =
  Value.add_string buf t.name;
  Value.add_varint buf (Hashtbl.length t.tables);
  List.iter (fun tbl -> Table.encode buf tbl) (tables t)

let decode s off =
  let name, off = Value.read_string s off in
  let count, off = Value.read_varint s off in
  let t = create ~name in
  let off = ref off in
  for _ = 1 to count do
    let tbl, o = Table.decode s !off in
    off := o;
    Hashtbl.replace t.tables (Table.name tbl) tbl
  done;
  (t, !off)
