type row = { id : int; cells : Value.t array }

type t = {
  name : string;
  schema : Schema.t;
  rows : (int, row) Hashtbl.t;
  mutable next_id : int;
  (* Sorted id cache, invalidated on insert/delete, so that repeated
     in-order scans (hashing, snapshots) avoid an O(n log n) sort. *)
  mutable sorted_ids : int array option;
}

let create ~name schema =
  { name; schema; rows = Hashtbl.create 64; next_id = 0; sorted_ids = None }

let name t = t.name
let schema t = t.schema

let insert t cells =
  match Schema.validate_row t.schema cells with
  | Error e -> Error e
  | Ok () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.rows id { id; cells = Array.copy cells };
      t.sorted_ids <- None;
      Ok id

let insert_with_id t id cells =
  if Hashtbl.mem t.rows id then
    Error (Printf.sprintf "row id %d already exists" id)
  else
    match Schema.validate_row t.schema cells with
    | Error e -> Error e
    | Ok () ->
        Hashtbl.replace t.rows id { id; cells = Array.copy cells };
        if id >= t.next_id then t.next_id <- id + 1;
        t.sorted_ids <- None;
        Ok ()

let delete t id =
  if Hashtbl.mem t.rows id then begin
    Hashtbl.remove t.rows id;
    t.sorted_ids <- None;
    true
  end
  else false

let get t id = Hashtbl.find_opt t.rows id

let update_cell t row_id col v =
  match Hashtbl.find_opt t.rows row_id with
  | None -> Error (Printf.sprintf "no row %d" row_id)
  | Some r ->
      if col < 0 || col >= Schema.arity t.schema then
        Error (Printf.sprintf "no column %d" col)
      else begin
        let c = Schema.column_at t.schema col in
        if v = Value.Null && not c.Schema.nullable then
          Error (Printf.sprintf "column %s is not nullable" c.Schema.name)
        else if not (Value.conforms c.Schema.ty v) then
          Error (Printf.sprintf "column %s expects %s" c.Schema.name
                   (Value.ty_name c.Schema.ty))
        else begin
          let prev = r.cells.(col) in
          r.cells.(col) <- v;
          Ok prev
        end
      end

let row_count t = Hashtbl.length t.rows

let ids_sorted t =
  match t.sorted_ids with
  | Some ids -> ids
  | None ->
      let ids = Array.make (Hashtbl.length t.rows) 0 in
      let i = ref 0 in
      Hashtbl.iter
        (fun id _ ->
          ids.(!i) <- id;
          incr i)
        t.rows;
      Array.sort Stdlib.compare ids;
      t.sorted_ids <- Some ids;
      ids

let iter f t =
  Array.iter (fun id -> f (Hashtbl.find t.rows id)) (ids_sorted t)

let fold f init t =
  Array.fold_left (fun acc id -> f acc (Hashtbl.find t.rows id)) init (ids_sorted t)

let rows t = List.rev (fold (fun acc r -> r :: acc) [] t)
let row_ids t = Array.to_list (ids_sorted t)

let encode buf t =
  Value.add_string buf t.name;
  Schema.encode buf t.schema;
  Value.add_varint buf t.next_id;
  Value.add_varint buf (row_count t);
  iter
    (fun r ->
      Value.add_varint buf r.id;
      Array.iter (Value.encode buf) r.cells)
    t

let decode s off =
  let name, off = Value.read_string s off in
  let schema, off = Schema.decode s off in
  let next_id, off = Value.read_varint s off in
  let count, off = Value.read_varint s off in
  let t = create ~name schema in
  let arity = Schema.arity schema in
  let off = ref off in
  for _ = 1 to count do
    let id, o = Value.read_varint s !off in
    off := o;
    let cells =
      Array.init arity (fun _ ->
          let v, o = Value.decode s !off in
          off := o;
          v)
    in
    Hashtbl.replace t.rows id { id; cells }
  done;
  t.next_id <- next_id;
  (t, !off)
