open Tep_tree

type t = Provstore.t

let of_store store = store
let store t = t

let descendants t oid =
  let seen = Oid.Tbl.create 16 in
  let rec go = function
    | [] -> ()
    | o :: rest ->
        if Oid.Tbl.mem seen o then go rest
        else begin
          Oid.Tbl.replace seen o ();
          go (Provstore.aggregated_into t o @ rest)
        end
  in
  go (Provstore.aggregated_into t oid);
  Oid.Tbl.remove seen oid;
  Oid.Tbl.fold (fun o () acc -> o :: acc) seen [] |> List.sort Oid.compare

(* Aggregate inputs of an object, across all of its aggregate records. *)
let agg_inputs t oid =
  List.concat_map
    (fun (r : Record.t) ->
      if r.Record.kind = Record.Aggregate then r.Record.input_oids else [])
    (Provstore.records_for t oid)
  |> List.sort_uniq Oid.compare

let depth t oid =
  (* iterative post-order: push an oid, revisit it once its inputs are
     resolved.  The DAG is acyclic by construction (seq ids grow along
     edges); a repeat on the in-progress path would mean a corrupt
     store, so break the tie at depth 0 rather than looping. *)
  let memo = Oid.Tbl.create 16 in
  let in_progress = Oid.Tbl.create 16 in
  let rec run stack =
    match stack with
    | [] -> ()
    | o :: rest ->
        if Oid.Tbl.mem memo o then run rest
        else
          let inputs = agg_inputs t o in
          if inputs = [] then begin
            Oid.Tbl.replace memo o 0;
            run rest
          end
          else
            let pending =
              List.filter
                (fun i ->
                  (not (Oid.Tbl.mem memo i)) && not (Oid.Tbl.mem in_progress i))
                inputs
            in
            if pending = [] then begin
              let d =
                List.fold_left
                  (fun acc i ->
                    max acc
                      (Option.value (Oid.Tbl.find_opt memo i) ~default:(-1)))
                  (-1) inputs
              in
              Oid.Tbl.replace memo o (d + 1);
              Oid.Tbl.remove in_progress o;
              run rest
            end
            else begin
              Oid.Tbl.replace in_progress o ();
              run (pending @ stack)
            end
  in
  run [ oid ];
  Option.value (Oid.Tbl.find_opt memo oid) ~default:0
