open Tep_store

type table_spec = { name : string; attrs : int; rows : int }

let paper_tables =
  [
    { name = "t1"; attrs = 8; rows = 4000 };
    { name = "t2"; attrs = 9; rows = 3000 };
    { name = "t3"; attrs = 10; rows = 2000 };
    { name = "t4"; attrs = 5; rows = 5000 };
  ]

let paper_node_counts = [ 36002; 66003; 88004; 118005 ]

let scale f spec =
  { spec with rows = max 1 (int_of_float (float_of_int spec.rows *. f)) }

let int_schema attrs =
  Schema.all_int (List.init attrs (fun i -> Printf.sprintf "c%d" i))

let build_table drbg db spec =
  match Database.create_table db ~name:spec.name (int_schema spec.attrs) with
  | Error e -> Error e
  | Ok tbl ->
      let err = ref None in
      for _ = 1 to spec.rows do
        if !err = None then begin
          let cells =
            Array.init spec.attrs (fun _ ->
                Value.Int (Tep_crypto.Drbg.uniform_int drbg 1_000_000))
          in
          match Table.insert tbl cells with
          | Ok _ -> ()
          | Error e -> err := Some e
        end
      done;
      (match !err with None -> Ok tbl | Some e -> Error e)

let build_database ?(name = "synthetic") ~seed specs =
  let drbg = Tep_crypto.Drbg.create ~seed in
  let db = Database.create ~name in
  List.iter
    (fun spec ->
      match build_table drbg db spec with
      | Ok _ -> ()
      | Error e -> failwith ("Synth.build_database: " ^ e))
    specs;
  db

let paper_database ?(scale_factor = 1.0) n =
  if n < 1 || n > 4 then invalid_arg "Synth.paper_database: n must be 1..4";
  let specs =
    List.filteri (fun i _ -> i < n) paper_tables |> List.map (scale scale_factor)
  in
  build_database ~name:(Printf.sprintf "paper_db_%d" n) ~seed:"tep-paper-db" specs

let build_title_database ~rows =
  let db = Database.create ~name:"title_db" in
  let schema =
    Schema.make
      [
        { Schema.name = "DocumentID"; ty = Value.TInt; nullable = false };
        { Schema.name = "Title"; ty = Value.TText; nullable = false };
      ]
  in
  let tbl =
    match Database.create_table db ~name:"Title" schema with
    | Ok t -> t
    | Error e -> failwith e
  in
  let drbg = Tep_crypto.Drbg.create ~seed:"tep-title-db" in
  for i = 0 to rows - 1 do
    let title =
      Printf.sprintf "Document %d: %s" i
        (Tep_crypto.Digest_algo.to_hex (Tep_crypto.Drbg.generate drbg 8))
    in
    match Table.insert tbl [| Value.Int i; Value.Text title |] with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  db
