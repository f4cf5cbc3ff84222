open Tep_tree

type t = {
  store : Provstore.t;
  generation : int; (* record_count at build time *)
  children : Oid.t list Oid.Tbl.t; (* input oid -> aggregate output oids *)
  lock : Mutex.t;
  closure_memo : Record.t list Oid.Tbl.t;
  descendants_memo : Oid.t list Oid.Tbl.t;
  depth_memo : int Oid.Tbl.t;
}

let build store =
  let children = Oid.Tbl.create 256 in
  List.iter
    (fun (r : Record.t) ->
      if r.Record.kind = Record.Aggregate then
        List.iter
          (fun input ->
            let prev =
              Option.value (Oid.Tbl.find_opt children input) ~default:[]
            in
            if not (List.exists (Oid.equal r.Record.output_oid) prev) then
              Oid.Tbl.replace children input (r.Record.output_oid :: prev))
          r.Record.input_oids)
    (Provstore.all store);
  {
    store;
    generation = Provstore.record_count store;
    children;
    lock = Mutex.create ();
    closure_memo = Oid.Tbl.create 64;
    descendants_memo = Oid.Tbl.create 64;
    depth_memo = Oid.Tbl.create 64;
  }

(* One-slot cache: lineage sessions hammer the same store, so a single
   slot keyed on physical identity + record count is enough to make
   repeated [of_store] calls free between writes. *)
let cache : t option ref = ref None
let cache_lock = Mutex.create ()

let of_store store =
  Mutex.lock cache_lock;
  let idx =
    match !cache with
    | Some idx
      when idx.store == store
           && idx.generation = Provstore.record_count store ->
        idx
    | _ ->
        let idx = build store in
        cache := Some idx;
        idx
  in
  Mutex.unlock cache_lock;
  idx

let store t = t.store

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let closure t oid =
  with_lock t (fun () ->
      match Oid.Tbl.find_opt t.closure_memo oid with
      | Some rs -> rs
      | None ->
          let rs = Provstore.provenance_object t.store oid in
          Oid.Tbl.replace t.closure_memo oid rs;
          rs)

let ancestors t oid =
  List.filter_map
    (fun (r : Record.t) ->
      if Oid.equal r.Record.output_oid oid then None
      else Some r.Record.output_oid)
    (closure t oid)
  |> List.sort_uniq Oid.compare

let descendants t oid =
  with_lock t (fun () ->
      match Oid.Tbl.find_opt t.descendants_memo oid with
      | Some os -> os
      | None ->
          let seen = Oid.Tbl.create 16 in
          let rec go = function
            | [] -> ()
            | o :: rest ->
                if Oid.Tbl.mem seen o then go rest
                else begin
                  Oid.Tbl.replace seen o ();
                  let next =
                    Option.value (Oid.Tbl.find_opt t.children o) ~default:[]
                  in
                  go (next @ rest)
                end
          in
          go (Option.value (Oid.Tbl.find_opt t.children oid) ~default:[]);
          Oid.Tbl.remove seen oid;
          let os =
            Oid.Tbl.fold (fun o () acc -> o :: acc) seen []
            |> List.sort Oid.compare
          in
          Oid.Tbl.replace t.descendants_memo oid os;
          os)

(* Aggregate inputs of an object, across all of its aggregate records. *)
let agg_inputs t oid =
  List.concat_map
    (fun (r : Record.t) ->
      if r.Record.kind = Record.Aggregate then r.Record.input_oids else [])
    (Provstore.records_for t.store oid)
  |> List.sort_uniq Oid.compare

let depth t oid =
  with_lock t (fun () ->
      (* iterative post-order: push an oid, revisit it once its inputs
         are resolved.  The DAG is acyclic by construction (seq ids
         grow along edges); a repeat on the in-progress path would mean
         a corrupt store, so break the tie at depth 0 rather than
         looping. *)
      let in_progress = Oid.Tbl.create 16 in
      let rec run stack =
        match stack with
        | [] -> ()
        | o :: rest ->
            if Oid.Tbl.mem t.depth_memo o then run rest
            else
              let inputs = agg_inputs t o in
              if inputs = [] then begin
                Oid.Tbl.replace t.depth_memo o 0;
                run rest
              end
              else
                let pending =
                  List.filter
                    (fun i ->
                      (not (Oid.Tbl.mem t.depth_memo i))
                      && not (Oid.Tbl.mem in_progress i))
                    inputs
                in
                if pending = [] then begin
                  let d =
                    List.fold_left
                      (fun acc i ->
                        max acc
                          (Option.value (Oid.Tbl.find_opt t.depth_memo i)
                             ~default:(-1)))
                      (-1) inputs
                  in
                  Oid.Tbl.replace t.depth_memo o (d + 1);
                  Oid.Tbl.remove in_progress o;
                  run rest
                end
                else begin
                  Oid.Tbl.replace in_progress o ();
                  run (pending @ stack)
                end
      in
      run [ oid ];
      Option.value (Oid.Tbl.find_opt t.depth_memo oid) ~default:0)
