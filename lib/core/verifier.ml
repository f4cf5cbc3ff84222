open Tep_tree

type violation =
  | No_provenance of Oid.t
  | Object_mismatch of { oid : Oid.t; expected : string; actual : string }
  | Bad_signature of { oid : Oid.t; seq : int; reason : string }
  | Duplicate_seq of { oid : Oid.t; seq : int }
  | Seq_gap of { oid : Oid.t; after_seq : int; found_seq : int }
  | First_record_invalid of { oid : Oid.t; reason : string }
  | Broken_link of { oid : Oid.t; seq : int; reason : string }
  | Dangling_prev of { oid : Oid.t; seq : int; missing : string }
  | Malformed of { oid : Oid.t; seq : int; reason : string }

type report = {
  violations : violation list;
  records_checked : int;
  objects_checked : int;
  signatures_checked : int;
}

let ok r = r.violations = []

let hex_prefix s =
  let h = Tep_crypto.Digest_algo.to_hex s in
  if String.length h > 12 then String.sub h 0 12 else h

(* Group records by output oid, each group sorted by seq. *)
let group_by_object records =
  let tbl = Oid.Tbl.create 64 in
  List.iter
    (fun (r : Record.t) ->
      let l =
        match Oid.Tbl.find_opt tbl r.Record.output_oid with
        | Some l -> l
        | None ->
            let l = ref [] in
            Oid.Tbl.replace tbl r.Record.output_oid l;
            l
      in
      l := r :: !l)
    records;
  Oid.Tbl.fold
    (fun oid l acc -> (oid, List.sort Record.compare_seq !l) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)

let check_chain ~lookup oid (chain : Record.t list) =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Duplicate seq / gaps. *)
  let rec seq_check = function
    | (a : Record.t) :: (b : Record.t) :: rest ->
        if b.Record.seq_id = a.Record.seq_id then
          add (Duplicate_seq { oid; seq = a.Record.seq_id })
        else if b.Record.seq_id <> a.Record.seq_id + 1 then
          add
            (Seq_gap
               { oid; after_seq = a.Record.seq_id; found_seq = b.Record.seq_id });
        seq_check (b :: rest)
    | _ -> ()
  in
  seq_check chain;
  (* First record. *)
  (match chain with
  | [] -> ()
  | (first : Record.t) :: _ -> (
      match first.Record.kind with
      | Record.Insert ->
          if first.Record.seq_id <> 0 then
            add (First_record_invalid { oid; reason = "insert must have seq 0" })
      | Record.Import ->
          if first.Record.seq_id <> 0 then
            add (First_record_invalid { oid; reason = "import must have seq 0" })
      | Record.Aggregate -> () (* seq checked against inputs below *)
      | Record.Update ->
          add
            (First_record_invalid
               { oid; reason = "chain starts with an update record" })));
  (* Per-record structural checks. *)
  let rec walk prev = function
    | [] -> ()
    | (r : Record.t) :: rest ->
        let seq = r.Record.seq_id in
        (match r.Record.kind with
        | Record.Insert ->
            if
              r.Record.input_hashes <> []
              || r.Record.prev_checksums <> []
              || r.Record.input_oids <> []
            then add (Malformed { oid; seq; reason = "insert with inputs" });
            if prev <> None then
              add
                (Malformed
                   { oid; seq; reason = "insert not first in chain" })
        | Record.Import ->
            if List.length r.Record.input_hashes <> 1 then
              add (Malformed { oid; seq; reason = "import needs one input" });
            if r.Record.prev_checksums <> [] then
              add (Malformed { oid; seq; reason = "import with prev" });
            if prev <> None then
              add (Malformed { oid; seq; reason = "import not first in chain" })
        | Record.Update -> (
            match (r.Record.input_hashes, r.Record.prev_checksums, prev) with
            | [ ih ], [ pc ], Some (p : Record.t) ->
                if not (String.equal pc p.Record.checksum) then
                  add
                    (Broken_link
                       {
                         oid;
                         seq;
                         reason =
                           Printf.sprintf
                             "prev checksum %s does not match preceding record \
                              (%s)"
                             (hex_prefix pc)
                             (hex_prefix p.Record.checksum);
                       })
                else if not (String.equal ih p.Record.output_hash) then
                  add
                    (Broken_link
                       {
                         oid;
                         seq;
                         reason =
                           "input hash does not match preceding record's \
                            output hash";
                       })
            | [ _ ], [ _ ], None ->
                add
                  (Broken_link
                     { oid; seq; reason = "update with no preceding record" })
            | _ ->
                add
                  (Malformed
                     { oid; seq; reason = "update needs one input and one prev" })
            )
        | Record.Aggregate ->
            if prev <> None then
              add (Malformed { oid; seq; reason = "aggregate not first in chain" });
            let n = List.length r.Record.input_hashes in
            if
              n = 0
              || List.length r.Record.prev_checksums <> n
              || List.length r.Record.input_oids <> n
            then
              add
                (Malformed
                   { oid; seq; reason = "aggregate input/prev arity mismatch" })
            else begin
              let max_prev_seq = ref (-1) in
              List.iteri
                (fun i pc ->
                  let in_oid = List.nth r.Record.input_oids i in
                  let in_hash = List.nth r.Record.input_hashes i in
                  match lookup pc with
                  | None ->
                      add (Dangling_prev { oid; seq; missing = hex_prefix pc })
                  | Some (pr : Record.t) ->
                      if !max_prev_seq < pr.Record.seq_id then
                        max_prev_seq := pr.Record.seq_id;
                      if not (Oid.equal pr.Record.output_oid in_oid) then
                        add
                          (Broken_link
                             {
                               oid;
                               seq;
                               reason =
                                 Printf.sprintf
                                   "aggregate input %d cites a record of %s, \
                                    expected %s"
                                   i
                                   (Oid.to_string pr.Record.output_oid)
                                   (Oid.to_string in_oid);
                             })
                      else if not (String.equal pr.Record.output_hash in_hash)
                      then
                        add
                          (Broken_link
                             {
                               oid;
                               seq;
                               reason =
                                 Printf.sprintf
                                   "aggregate input %d hash does not match \
                                    cited record"
                                   i;
                             }))
                r.Record.prev_checksums;
              if !max_prev_seq >= 0 && seq <> !max_prev_seq + 1 then
                add
                  (Broken_link
                     {
                       oid;
                       seq;
                       reason =
                         Printf.sprintf
                           "aggregate seq %d should be max input seq + 1 = %d"
                           seq (!max_prev_seq + 1);
                     })
            end);
        walk (Some r) rest
  in
  walk None chain;
  List.rev !violations

let concat reports =
  let sum f = List.fold_left (fun n r -> n + f r) 0 reports in
  {
    violations = List.concat_map (fun r -> r.violations) reports;
    records_checked = sum (fun r -> r.records_checked);
    objects_checked = sum (fun r -> r.objects_checked);
    signatures_checked = sum (fun r -> r.signatures_checked);
  }

(* Below this many records the signature checks stay on the caller.
   An object's closure is mostly one to three records, and a handoff
   to other domains costs more than it saves; the closure of the root
   or of a table, every record below it, still spreads over the pool. *)
let verify_serial_below = 4

let verify_records ?pool ~algo:_ ~directory records =
  let by_checksum = Hashtbl.create (List.length records) in
  List.iter
    (fun (r : Record.t) ->
      Hashtbl.replace by_checksum r.Record.checksum r)
    records;
  (* 1. Signatures (R1, R8) — the dominant cost (one RSA verify per
     record), and embarrassingly parallel: each check is pure apart
     from the directory's mutex-guarded certificate cache.  Results
     are folded back in record order, so the report is byte-identical
     to the sequential pass regardless of domain scheduling. *)
  let signature_results =
    match pool with
    | Some p when Tep_parallel.Pool.size p > 1 ->
        Tep_parallel.Pool.map_list ~serial_below:verify_serial_below p
          (fun (r : Record.t) -> Checksum.verify_record directory r)
          records
    | _ ->
        List.map (fun (r : Record.t) -> Checksum.verify_record directory r)
          records
  in
  let bad_signatures =
    List.concat
      (List.map2
         (fun (r : Record.t) -> function
           | Ok () -> []
           | Error reason ->
               [
                 Bad_signature
                   { oid = r.Record.output_oid; seq = r.Record.seq_id; reason };
               ])
         records signature_results)
  in
  (* 2. Per-object chain structure (R2, R3, R6, R7). *)
  let groups = group_by_object records in
  let lookup = Hashtbl.find_opt by_checksum in
  {
    violations =
      bad_signatures
      @ List.concat_map (fun (oid, chain) -> check_chain ~lookup oid chain)
          groups;
    records_checked = List.length records;
    objects_checked = List.length groups;
    signatures_checked = List.length records;
  }

let verify ?pool ~algo ~directory ~data records =
  let base = verify_records ?pool ~algo ~directory records in
  let oid = data.Subtree.oid in
  (* 3. Delivered object vs latest record (R4, R5). *)
  let latest =
    List.fold_left
      (fun acc (r : Record.t) ->
        if not (Oid.equal r.Record.output_oid oid) then acc
        else
          match acc with
          | Some (best : Record.t) when best.Record.seq_id >= r.Record.seq_id ->
              acc
          | _ -> Some r)
      None records
  in
  let extra =
    match latest with
    | None -> [ No_provenance oid ]
    | Some r ->
        let actual = Merkle.hash_subtree algo data in
        if String.equal actual r.Record.output_hash then []
        else
          [
            Object_mismatch
              { oid; expected = hex_prefix r.Record.output_hash;
                actual = hex_prefix actual };
          ]
  in
  { base with violations = base.violations @ extra }

let violation_to_string = function
  | No_provenance oid ->
      Printf.sprintf "no provenance records for delivered object %s"
        (Oid.to_string oid)
  | Object_mismatch { oid; expected; actual } ->
      Printf.sprintf
        "delivered object %s hashes to %s but latest record says %s (R4/R5)"
        (Oid.to_string oid) actual expected
  | Bad_signature { oid; seq; reason } ->
      Printf.sprintf "bad signature on (%s, seq %d): %s (R1/R8)"
        (Oid.to_string oid) seq reason
  | Duplicate_seq { oid; seq } ->
      Printf.sprintf "duplicate seq %d for %s (R3)" seq (Oid.to_string oid)
  | Seq_gap { oid; after_seq; found_seq } ->
      Printf.sprintf "seq gap on %s: %d follows %d (R2/R7)"
        (Oid.to_string oid) found_seq after_seq
  | First_record_invalid { oid; reason } ->
      Printf.sprintf "invalid chain start for %s: %s" (Oid.to_string oid) reason
  | Broken_link { oid; seq; reason } ->
      Printf.sprintf "broken link at (%s, seq %d): %s" (Oid.to_string oid) seq
        reason
  | Dangling_prev { oid; seq; missing } ->
      Printf.sprintf
        "record (%s, seq %d) cites missing predecessor %s (R2/R7)"
        (Oid.to_string oid) seq missing
  | Malformed { oid; seq; reason } ->
      Printf.sprintf "malformed record (%s, seq %d): %s" (Oid.to_string oid)
        seq reason

let render ~records ~objects ~signatures = function
  | [] ->
      Printf.sprintf "VERIFIED: %d records, %d objects, %d signatures checked"
        records objects signatures
  | violations ->
      String.concat ""
        (Printf.sprintf "TAMPERING DETECTED (%d violations):\n"
           (List.length violations)
        :: List.map (fun v -> "  - " ^ v ^ "\n") violations)

let pp_report fmt r =
  Format.pp_print_string fmt
    (render ~records:r.records_checked ~objects:r.objects_checked
       ~signatures:r.signatures_checked
       (List.map violation_to_string r.violations))
