open Tep_store

let leaf_hash algo oid value = Merkle.node_hash algo (Oid.of_int oid) value []

(* Bounded-memory twin of Merkle's chunk tree: one open chunk per
   level.  A level's first closed chunk is held back until a second
   closes, because a level with a single chunk is the top and has no
   entry above it. *)
type level = {
  mutable entries : (Oid.t * string) list;  (* open chunk, newest first *)
  mutable held : (Oid.t * string) option;
  mutable closed : int;
}

let rec push algo levels level key h =
  let l = levels.(level) in
  l.entries <- (key, h) :: l.entries;
  if Merkle.closes ~level key then close algo levels level

and close algo levels level =
  let l = levels.(level) in
  let key = fst (List.hd l.entries) in
  let d = Merkle.chunk_digest algo ~level (List.rev l.entries) in
  l.entries <- [];
  l.closed <- l.closed + 1;
  match l.held with
  | Some (k0, d0) ->
      l.held <- None;
      push algo levels (level + 1) k0 d0;
      push algo levels (level + 1) key d
  | None when l.closed = 1 -> l.held <- Some (key, d)
  | None -> push algo levels (level + 1) key d

let rec top algo levels level =
  let l = levels.(level) in
  if l.entries <> [] then close algo levels level;
  match l.held with
  | Some (_, d) when l.closed = 1 -> d
  | _ -> top algo levels (level + 1)

(* Hash a node whose [count] children arrive one (oid, hash) at a time
   through [add], in oid order: narrow nodes buffer their <= 32
   entries, wide ones stream them through the chunk levels. *)
let node_stream algo oid value ~count =
  if count <= Merkle.wide_threshold then
    let entries = ref [] in
    ( (fun k h -> entries := (Oid.of_int k, h) :: !entries),
      fun () -> Merkle.node_hash algo (Oid.of_int oid) value (List.rev !entries)
    )
  else
    let levels =
      Array.init Merkle.max_levels (fun _ ->
          { entries = []; held = None; closed = 0 })
    in
    ( (fun k h -> push algo levels 0 (Oid.of_int k) h),
      fun () ->
        Merkle.wide_digest algo (Oid.of_int oid) value ~count (top algo levels 0)
    )

(* Oids per row slot: row oid, then one oid per cell. *)
let row_slot_width arity = 1 + arity

let hash_rows algo ~schema_arity ~table_oid ~table_name ~row_count pull =
  let arity = schema_arity in
  let row_oid j = table_oid + 1 + (j * row_slot_width arity) in
  (* Table node first (its child count is known up front), then one
     row hash at a time. *)
  let add, finish =
    node_stream algo table_oid (Tree_view.table_value table_name)
      ~count:row_count
  in
  let nodes = ref 1 in
  let j = ref 0 in
  let rec loop () =
    match pull () with
    | None -> ()
    | Some (id, cells) ->
        if !j >= row_count then
          invalid_arg "Streaming.hash_rows: more rows than row_count";
        if Array.length cells <> arity then
          invalid_arg "Streaming.hash_rows: arity mismatch";
        let roid = row_oid !j in
        let cell_hashes =
          List.init arity (fun c ->
              let o = roid + 1 + c in
              (Oid.of_int o, leaf_hash algo o cells.(c)))
        in
        add roid
          (Merkle.node_hash algo (Oid.of_int roid) (Tree_view.row_value id)
             cell_hashes);
        nodes := !nodes + 1 + arity;
        incr j;
        loop ()
  in
  loop ();
  if !j <> row_count then
    invalid_arg "Streaming.hash_rows: fewer rows than row_count";
  (finish (), !nodes)

let hash_database_with_counts algo db =
  let tables = Database.tables db in
  (* Root is oid 0; table oids depend on the sizes of earlier tables. *)
  let table_oids =
    let next = ref 1 in
    List.map
      (fun tbl ->
        let toid = !next in
        next :=
          toid + 1
          + (Table.row_count tbl * row_slot_width (Schema.arity (Table.schema tbl)));
        (tbl, toid))
      tables
  in
  let add, finish =
    node_stream algo 0 (Tree_view.root_value db) ~count:(List.length tables)
  in
  let nodes = ref 1 in
  List.iter
    (fun (tbl, toid) ->
      let rows = ref (Table.rows tbl) in
      let pull () =
        match !rows with
        | [] -> None
        | r :: rest ->
            rows := rest;
            Some (r.Table.id, r.Table.cells)
      in
      let h, n =
        hash_rows algo
          ~schema_arity:(Schema.arity (Table.schema tbl))
          ~table_oid:toid ~table_name:(Table.name tbl)
          ~row_count:(Table.row_count tbl) pull
      in
      add toid h;
      nodes := !nodes + n)
    table_oids;
  (finish (), !nodes)

let hash_database algo db = fst (hash_database_with_counts algo db)
