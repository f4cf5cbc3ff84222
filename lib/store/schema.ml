type column = { name : string; ty : Value.ty; nullable : bool }

type t = { cols : column array; index : (string, int) Hashtbl.t }

let make cols =
  if cols = [] then invalid_arg "Schema.make: no columns";
  let arr = Array.of_list cols in
  let index = Hashtbl.create (Array.length arr) in
  Array.iteri
    (fun i c ->
      if c.name = "" then invalid_arg "Schema.make: empty column name";
      if Hashtbl.mem index c.name then
        invalid_arg ("Schema.make: duplicate column " ^ c.name);
      Hashtbl.add index c.name i)
    arr;
  { cols = arr; index }

let columns t = Array.to_list t.cols
let arity t = Array.length t.cols

let column_at t i = t.cols.(i)

let column_index t name = Hashtbl.find_opt t.index name

let validate_row t row =
  if Array.length row <> Array.length t.cols then
    Error
      (Printf.sprintf "arity mismatch: expected %d, got %d"
         (Array.length t.cols) (Array.length row))
  else begin
    let err = ref None in
    Array.iteri
      (fun i v ->
        if !err = None then begin
          let c = t.cols.(i) in
          if v = Value.Null && not c.nullable then
            err := Some (Printf.sprintf "column %s is not nullable" c.name)
          else if not (Value.conforms c.ty v) then
            err :=
              Some
                (Printf.sprintf "column %s expects %s" c.name
                   (Value.ty_name c.ty))
        end)
      row;
    match !err with None -> Ok () | Some e -> Error e
  end

let to_string t =
  String.concat ", "
    (List.map
       (fun c ->
         Printf.sprintf "%s %s%s" c.name (Value.ty_name c.ty)
           (if c.nullable then "" else " not null"))
       (columns t))

let ty_tag = function
  | Value.TBool -> 0
  | Value.TInt -> 1
  | Value.TFloat -> 2
  | Value.TText -> 3
  | Value.TBlob -> 4

let ty_of_tag = function
  | 0 -> Value.TBool
  | 1 -> Value.TInt
  | 2 -> Value.TFloat
  | 3 -> Value.TText
  | 4 -> Value.TBlob
  | n -> failwith (Printf.sprintf "Schema.decode: bad type tag %d" n)

let encode buf t =
  Value.add_varint buf (Array.length t.cols);
  Array.iter
    (fun c ->
      Value.add_string buf c.name;
      Buffer.add_char buf (Char.chr (ty_tag c.ty));
      Buffer.add_char buf (if c.nullable then '\x01' else '\x00'))
    t.cols

let decode s off =
  let n, off = Value.read_varint s off in
  let off = ref off in
  let cols =
    List.init n (fun _ ->
        let name, o = Value.read_string s !off in
        if o + 2 > String.length s then failwith "Schema.decode: truncated";
        let ty = ty_of_tag (Char.code s.[o]) in
        let nullable = s.[o + 1] = '\x01' in
        off := o + 2;
        { name; ty; nullable })
  in
  (make cols, !off)

let all_int names =
  make (List.map (fun name -> { name; ty = Value.TInt; nullable = false }) names)
