let history = Provstore.records_for

let value_history store oid =
  List.filter_map
    (fun (r : Record.t) ->
      Option.map
        (fun v -> (r.Record.seq_id, r.Record.participant, v))
        r.Record.output_value)
    (history store oid)

let last_writer store oid =
  Option.map
    (fun (r : Record.t) -> r.Record.participant)
    (Provstore.latest store oid)

let writers store oid =
  List.fold_left
    (fun acc (r : Record.t) ->
      if List.mem r.Record.participant acc then acc
      else acc @ [ r.Record.participant ])
    [] (history store oid)

let contributors store oid =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (r : Record.t) ->
      let c =
        Option.value (Hashtbl.find_opt counts r.Record.participant) ~default:0
      in
      Hashtbl.replace counts r.Record.participant (c + 1))
    (Provstore.provenance_object store oid);
  Hashtbl.fold (fun p c acc -> (p, c) :: acc) counts []
  |> List.sort (fun (pa, ca) (pb, cb) ->
         let c = compare cb ca in
         if c <> 0 then c else compare pa pb)

let derived_from store oid = Prov_index.ancestors (Prov_index.of_store store) oid

let derivatives store oid =
  Prov_index.descendants (Prov_index.of_store store) oid

let touched_by store participant =
  List.filter
    (fun oid ->
      List.exists
        (fun (r : Record.t) -> r.Record.participant = participant)
        (history store oid))
    (Provstore.objects store)

let record_at store oid seq =
  List.find_opt (fun (r : Record.t) -> r.Record.seq_id = seq) (history store oid)

let state_hash_at store oid seq =
  Option.map (fun (r : Record.t) -> r.Record.output_hash) (record_at store oid seq)
