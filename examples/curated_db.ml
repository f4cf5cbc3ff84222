(* A curated-database workflow (the setting of Buneman et al. that the
   paper cites): a gene-annotation table maintained across multiple
   curation sessions by different curators, with a standing auditor
   and a downstream consumer.

   Demonstrates: session persistence (Engine.of_parts), incremental
   auditing, provenance queries, and bundle delivery.

     dune exec examples/curated_db.exe *)

open Tep_store
open Tep_tree
open Tep_core

let ok = function Ok v -> v | Error e -> failwith e

(* simulate "sessions" by serialising everything and reloading *)
let persist eng =
  let snap = Snapshot.to_string (Engine.backend eng) in
  let prov = Provstore.to_string (Engine.provstore eng) in
  let fbuf = Buffer.create 1024 in
  Forest.encode fbuf (Engine.forest eng);
  let vbuf = Buffer.create 1024 in
  Tree_view.encode vbuf (Engine.mapping eng);
  (snap, prov, Buffer.contents fbuf, Buffer.contents vbuf)

let resume dir (snap, prov, fs, vs) =
  let db = ok (Snapshot.of_string snap) in
  let prov = ok (Provstore.of_string prov) in
  let forest, _ = Forest.decode fs 0 in
  let view, _ = Tree_view.decode vs 0 in
  Engine.of_parts ~provstore:prov ~directory:dir ~forest ~view db

let () =
  let drbg = Tep_crypto.Drbg.create ~seed:"curated-db" in
  let ca = Tep_crypto.Pki.create_ca ~name:"Consortium CA" drbg in
  let dir = Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca) in
  let mk name =
    let p = Participant.create ~ca ~name drbg in
    Participant.Directory.register dir p;
    p
  in
  let maria = mk "curator-maria" in
  let wei = mk "curator-wei" in
  let pipeline = mk "annotation-pipeline" in

  (* --- session 1: Maria seeds the table --- *)
  let db = Database.create ~name:"genedb" in
  let schema =
    Schema.make
      [
        { Schema.name = "gene"; ty = Value.TText; nullable = false };
        { Schema.name = "function"; ty = Value.TText; nullable = false };
        { Schema.name = "confidence"; ty = Value.TInt; nullable = false };
      ]
  in
  ignore (ok (Database.create_table db ~name:"annotations" schema));
  let eng = Engine.create ~directory:dir db in
  let genes = [ "BRCA1"; "TP53"; "EGFR"; "MYC" ] in
  let rows =
    List.map
      (fun g ->
        ok
          (Engine.insert_row eng maria ~table:"annotations"
             [| Value.Text g; Value.Text "unknown"; Value.Int 0 |]))
      genes
  in
  Printf.printf "session 1 (maria): seeded %d genes, %d provenance records\n"
    (List.length rows)
    (Provstore.record_count (Engine.provstore eng));
  (* the auditor takes a checkpoint at end of session *)
  let audit_report, ckpt =
    Audit.full_audit ~directory:dir (Engine.provstore eng)
  in
  assert (Verifier.ok audit_report);
  let ckpt_bytes = Audit.to_string ckpt in
  let state1 = persist eng in

  (* --- session 2: the pipeline proposes functions, Wei curates --- *)
  let eng = resume dir state1 in
  ignore
    (ok
       (Engine.complex_op eng pipeline (fun () ->
            List.fold_left
              (fun acc row ->
                match acc with
                | Error _ -> acc
                | Ok () ->
                    Engine.update_cell_named eng pipeline ~table:"annotations"
                      ~row ~column:"function"
                      (Value.Text "predicted: kinase activity"))
              (Ok ()) rows)));
  (* Wei reviews BRCA1 by hand and raises confidence *)
  let brca1 = List.nth rows 0 in
  ok
    (Engine.update_cell_named eng wei ~table:"annotations" ~row:brca1
       ~column:"function" (Value.Text "DNA repair"));
  ok
    (Engine.update_cell_named eng wei ~table:"annotations" ~row:brca1
       ~column:"confidence" (Value.Int 3));
  Printf.printf "session 2 (pipeline + wei): %d records total\n"
    (Provstore.record_count (Engine.provstore eng));

  (* --- the auditor wakes up: incremental audit --- *)
  let ckpt = ok (Audit.of_string ckpt_bytes) in
  let report, ckpt, examined =
    Audit.incremental_audit ~directory:dir ckpt
      (Engine.provstore eng)
  in
  Printf.printf "auditor: %s — examined %d new records (of %d total)\n"
    (if Verifier.ok report then "clean" else "TAMPERING")
    examined
    (Provstore.record_count (Engine.provstore eng));
  assert (Verifier.ok report);
  ignore ckpt;

  (* --- provenance queries on the curated cell --- *)
  let fcell =
    Option.get (Tree_view.cell_oid (Engine.mapping eng) "annotations" brca1 1)
  in
  print_endline "\nBRCA1.function timeline:";
  List.iter
    (fun (seq, who, v) ->
      Printf.printf "  v%d  %-20s %s\n" seq who (Value.to_string v))
    (Prov_query.value_history (Engine.provstore eng) fcell);
  Printf.printf "last writer: %s\n"
    (Option.value ~default:"?" (Prov_query.last_writer (Engine.provstore eng) fcell));

  (* --- deliver the curated row to a consumer as a bundle --- *)
  let row_oid =
    Option.get (Tree_view.row_oid (Engine.mapping eng) "annotations" brca1)
  in
  let bundle = ok (Bundle.create eng row_oid) in
  let bytes = Bundle.to_string bundle in
  Printf.printf "\nbundle for BRCA1 row: %d bytes, %d records, signed by: %s\n"
    (String.length bytes)
    (List.length bundle.Bundle.records)
    (String.concat ", " (Bundle.participants bundle));
  let received = ok (Bundle.of_string bytes) in
  let report = Bundle.verify ~trusted_ca:(Tep_crypto.Pki.ca_public_key ca) received in
  Format.printf "consumer verification: %a@." Verifier.pp_report report;
  assert (Verifier.ok report);

  (* the consumer can see that the pipeline's prediction was
     overridden by a human curator — the point of curated provenance *)
  let dag = Dag.build received.Bundle.records in
  let human_records = Dag.records_of_participant dag "curator-wei" in
  Printf.printf "human curation visible in delivered provenance: %d record(s)\n"
    (List.length human_records);
  assert (human_records <> []);
  print_endline "curated_db done."
