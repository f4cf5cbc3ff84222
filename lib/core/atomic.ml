open Tep_store
open Tep_tree

type version_info = { v_value : Value.t; v_hash : string; v_record : Record.t }

type obj = {
  mutable versions : version_info list; (* newest first; index = seq *)
}

type t = {
  algo : Tep_crypto.Digest_algo.algo;
  dir : Participant.Directory.t;
  objects : obj Oid.Tbl.t;
  gen : Oid.gen;
  prov : Provstore.t;
}

let create ?(algo = Tep_crypto.Digest_algo.SHA1) dir =
  {
    algo;
    dir;
    objects = Oid.Tbl.create 64;
    gen = Oid.gen ();
    prov = Provstore.create ~algo ();
  }

let algo t = t.algo

let atom_hash t oid value = Merkle.hash_subtree t.algo (Subtree.atom oid value)

let emit t participant ~kind ~seq_id ~output_oid ~input_oids ~input_hashes
    ~output_hash ~output_value ~prev_checksums =
  let payload =
    Checksum.payload ~kind ~seq_id ~output_oid ~input_hashes ~output_hash
      ~prev_checksums
  in
  let checksum = Checksum.sign participant payload in
  let record =
    {
      Record.seq_id;
      participant = Participant.name participant;
      kind;
      inherited = false;
      input_oids;
      input_hashes;
      output_oid;
      output_hash;
      output_value = Some output_value;
      prev_checksums;
      checksum;
    }
  in
  Provstore.append t.prov record;
  record

let insert t p value =
  let oid = Oid.fresh t.gen in
  let h = atom_hash t oid value in
  let record =
    emit t p ~kind:Record.Insert ~seq_id:0 ~output_oid:oid ~input_oids:[]
      ~input_hashes:[] ~output_hash:h ~output_value:value ~prev_checksums:[]
  in
  Oid.Tbl.replace t.objects oid
    { versions = [ { v_value = value; v_hash = h; v_record = record } ] };
  (oid, record)

let find t oid = Oid.Tbl.find_opt t.objects oid

let update t p oid value =
  match find t oid with
  | None | Some { versions = [] } ->
      Error (Printf.sprintf "no object %s" (Oid.to_string oid))
  | Some obj ->
      let last = List.hd obj.versions in
      let h = atom_hash t oid value in
      let record =
        emit t p ~kind:Record.Update
          ~seq_id:(last.v_record.Record.seq_id + 1)
          ~output_oid:oid ~input_oids:[ oid ] ~input_hashes:[ last.v_hash ]
          ~output_hash:h ~output_value:value
          ~prev_checksums:[ last.v_record.Record.checksum ]
      in
      obj.versions <-
        { v_value = value; v_hash = h; v_record = record } :: obj.versions;
      Ok record

let delete t oid =
  if Oid.Tbl.mem t.objects oid then begin
    Oid.Tbl.remove t.objects oid;
    Ok ()
  end
  else Error (Printf.sprintf "no object %s" (Oid.to_string oid))

let version_info t oid seq_opt =
  match find t oid with
  | None | Some { versions = [] } ->
      Error (Printf.sprintf "no object %s" (Oid.to_string oid))
  | Some obj -> (
      match seq_opt with
      | None -> Ok (List.hd obj.versions)
      | Some seq -> (
          match
            List.find_opt
              (fun vi -> vi.v_record.Record.seq_id = seq)
              obj.versions
          with
          | Some vi -> Ok vi
          | None ->
              Error
                (Printf.sprintf "object %s has no version %d"
                   (Oid.to_string oid) seq)))

let aggregate t p ~value inputs =
  if inputs = [] then Error "aggregate: no inputs"
  else begin
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | (oid, seq_opt) :: rest -> (
          match version_info t oid seq_opt with
          | Error e -> Error e
          | Ok vi -> collect ((oid, vi) :: acc) rest)
    in
    match collect [] inputs with
    | Error e -> Error e
    | Ok infos ->
        let oid = Oid.fresh t.gen in
        let h = atom_hash t oid value in
        let seq_id =
          1
          + List.fold_left
              (fun acc (_, vi) -> max acc vi.v_record.Record.seq_id)
              (-1) infos
        in
        let record =
          emit t p ~kind:Record.Aggregate ~seq_id ~output_oid:oid
            ~input_oids:(List.map fst infos)
            ~input_hashes:(List.map (fun (_, vi) -> vi.v_hash) infos)
            ~output_hash:h ~output_value:value
            ~prev_checksums:
              (List.map (fun (_, vi) -> vi.v_record.Record.checksum) infos)
        in
        Oid.Tbl.replace t.objects oid
          { versions = [ { v_value = value; v_hash = h; v_record = record } ] };
        Ok (oid, record)
  end

let current t oid =
  match find t oid with
  | Some { versions = vi :: _ } -> Some vi.v_value
  | _ -> None

let version t oid seq =
  match version_info t oid (Some seq) with
  | Ok vi -> Some vi.v_value
  | Error _ -> None

let latest_seq t oid =
  match find t oid with
  | Some { versions = vi :: _ } -> Some vi.v_record.Record.seq_id
  | _ -> None


let deliver t oid =
  match find t oid with
  | None | Some { versions = [] } ->
      Error (Printf.sprintf "no object %s" (Oid.to_string oid))
  | Some { versions = vi :: _ } ->
      Ok (Subtree.atom oid vi.v_value, Provstore.provenance_object t.prov oid)

let verify t oid =
  match deliver t oid with
  | Error e -> Error e
  | Ok (data, records) ->
      Ok (Verifier.verify ~algo:t.algo ~directory:t.dir ~data records)
