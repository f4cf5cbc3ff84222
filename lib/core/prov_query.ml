let value_history store oid =
  List.filter_map
    (fun (r : Record.t) ->
      Option.map
        (fun v -> (r.Record.seq_id, r.Record.participant, v))
        r.Record.output_value)
    (Provstore.records_for store oid)

let last_writer store oid =
  Option.map
    (fun (r : Record.t) -> r.Record.participant)
    (Provstore.latest store oid)

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
