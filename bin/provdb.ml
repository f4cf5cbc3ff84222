(* provdb — a command-line front end for the tamper-evident provenance
   engine.

   A workspace directory holds a backend database snapshot, the forest
   / oid mapping, the provenance store, the CA, and participant
   credentials.  Operations are performed as a named participant and
   persist everything back.

     provdb init ws --table 'stock:sku,qty@int'
     provdb participant ws alice
     provdb insert ws --as alice --table stock --values 'WIDGET-1,100'
     provdb update ws --as alice --table stock --row 0 --column qty --value 90
     provdb verify ws
     provdb show ws --table stock --row 0 --col 1
     provdb tamper ws --attack data
     provdb stats ws

   Lineage queries answer *why* a result exists as semiring provenance
   polynomials over base-object variables, and annotated queries can
   save a signed annotation that `provdb verify` checks (and `provdb
   tamper --attack annotation` corrupts):

     provdb lineage why ws --table stock --row 0
     provdb lineage select ws --table stock --where 'qty > 50' \
         --agg 'sum(qty)' --save audit1 --as alice

   Against a running provdbd daemon (see bin/provdbd.ml), the same
   operations run over the wire:

     provdbd ws &
     provdb remote insert ws --as alice --table stock --values 'WIDGET-2,7'
     provdb remote verify ws --as alice

   Exit codes: 0 success; 1 operational error; 2 malformed argument;
   3 verification or audit detected tampering. *)

open Tep_store
open Tep_tree
open Tep_core
open Cmdliner
open Workspace
module Polynomial = Tep_prov.Polynomial
module Annotate = Tep_prov.Annotate
module Annot = Tep_prov.Annot
module Lineage = Tep_prov.Lineage

(* ------------------------------------------------------------------ *)
(* Value / schema parsing                                              *)
(* ------------------------------------------------------------------ *)

let parse_value ty s =
  match ty with
  | Value.TInt -> (
      match int_of_string_opt s with
      | Some i -> Ok (Value.Int i)
      | None ->
          if s = "NULL" then Ok Value.Null else fail_usage "not an int: %s" s)
  | Value.TFloat -> (
      match float_of_string_opt s with
      | Some f -> Ok (Value.Float f)
      | None ->
          if s = "NULL" then Ok Value.Null else fail_usage "not a float: %s" s)
  | Value.TBool -> (
      match bool_of_string_opt s with
      | Some b -> Ok (Value.Bool b)
      | None ->
          if s = "NULL" then Ok Value.Null else fail_usage "not a bool: %s" s)
  | Value.TText -> Ok (if s = "NULL" then Value.Null else Value.Text s)
  | Value.TBlob -> Ok (Value.Blob s)

(* "name:col1,col2@int,col3@text" -> table name + schema *)
let parse_table_spec spec =
  match String.index_opt spec ':' with
  | None -> fail_usage "table spec must be name:col[,col...]: %s" spec
  | Some i ->
      let name = String.sub spec 0 i in
      let cols =
        String.split_on_char ','
          (String.sub spec (i + 1) (String.length spec - i - 1))
      in
      if cols = [] || List.exists (fun c -> c = "") cols then
        fail_usage "empty column in %s" spec
      else begin
        let parse_col c =
          match String.split_on_char '@' c with
          | [ n ] -> { Schema.name = n; ty = Value.TText; nullable = true }
          | [ n; "int" ] -> { Schema.name = n; ty = Value.TInt; nullable = true }
          | [ n; "float" ] ->
              { Schema.name = n; ty = Value.TFloat; nullable = true }
          | [ n; "bool" ] -> { Schema.name = n; ty = Value.TBool; nullable = true }
          | [ n; "text" ] -> { Schema.name = n; ty = Value.TText; nullable = true }
          | _ -> failwith ("bad column spec " ^ c)
        in
        match List.map parse_col cols with
        | cols -> Ok (name, Schema.make cols)
        | exception Failure e -> fail_usage "%s" e
      end

(* Resolve a CLI target to the engine owning it (tables route to
   shards by the stable hash) plus the oid inside that engine. *)
let locate_oid ws ~table ~row ~col =
  match (table, row, col) with
  | None, None, None ->
      if nshards ws = 1 then
        let e = ws.shards.(0).s_engine in
        Ok (e, Engine.root_oid e)
      else
        fail_usage
          "a sharded workspace has one root per shard; pass --table to pick one"
  | Some t, row, col -> (
      let e = engine_for_table ws t in
      let m = Engine.mapping e in
      let found missing = function
        | Some o -> Ok (e, o)
        | None -> Error (Usage missing)
      in
      match (row, col) with
      | None, None -> found ("no table " ^ t) (Tree_view.table_oid m t)
      | Some r, None ->
          found (Printf.sprintf "no row %d in %s" r t) (Tree_view.row_oid m t r)
      | Some r, Some c ->
          found
            (Printf.sprintf "no cell (%s, %d, %d)" t r c)
            (Tree_view.cell_oid m t r c)
      | None, Some _ -> fail_usage "--col requires --row")
  | _ -> fail_usage "--row/--col require --table"

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let cmd_init dir tables seed shards =
  if Sys.file_exists (dir // "ca") then begin
    prerr_endline "error: workspace already initialised";
    exit_fail
  end
  else if shards < 1 || shards > 64 then begin
    prerr_endline "error: --shards must be between 1 and 64";
    exit_usage
  end
  else begin
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Unix.mkdir (dir // "participants") 0o755;
    let drbg =
      match seed with
      | Some s -> Tep_crypto.Drbg.create ~seed:s
      | None -> Tep_crypto.Drbg.create_system ()
    in
    let ca = Tep_crypto.Pki.create_ca ~name:"provdb CA" drbg in
    let directory =
      Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
    in
    (* one backend per shard; table specs route by the stable hash, so
       every later session places each table on the same shard *)
    let dbs =
      Array.init shards (fun _ -> Database.create ~name:(Filename.basename dir))
    in
    let rec add_tables = function
      | [] -> Ok ()
      | spec :: rest ->
          let* name, schema = parse_table_spec spec in
          let k = Shards.shard_of_table ~shards name in
          let* _ = lift (Database.create_table dbs.(k) ~name schema) in
          add_tables rest
    in
    match add_tables tables with
    | Error f ->
        report_failure f;
        code_of_failure f
    | Ok () ->
        if shards > 1 then write_shards_meta dir shards;
        let shard_arr =
          Array.mapi
            (fun k db ->
              let sdir = shard_dir dir ~shards k in
              if shards > 1 then (
                try Unix.mkdir sdir 0o755
                with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
              let wal = Wal.open_file (wal_path sdir) in
              let engine = Engine.create ~wal ~pool:(pool ()) ~directory db in
              { s_dir = sdir; s_engine = engine; s_wal = wal })
            dbs
        in
        let coord =
          if shards > 1 then Some (Wal.open_file (coord_path dir)) else None
        in
        match
          save { dir; ca; directory; participants = []; shards = shard_arr; coord }
        with
        | Error e ->
            report_failure (Fail e);
            exit_fail
        | Ok () ->
            Printf.printf "initialised %s with %d table(s)%s\n" dir
              (List.length tables)
              (if shards > 1 then Printf.sprintf " across %d shards" shards
               else "");
            exit_ok
  end

let cmd_participant dir name seed =
  with_workspace dir (fun ws ->
      if List.mem_assoc name ws.participants then
        fail "participant %s already exists" name
      else begin
        let drbg =
          match seed with
          | Some s -> Tep_crypto.Drbg.create ~seed:s
          | None -> Tep_crypto.Drbg.create_system ()
        in
        let p = Participant.create ~ca:ws.ca ~name drbg in
        write_file (ws.dir // "participants" // name) (Participant.to_string p);
        Ok
          (Printf.sprintf "added participant %s (key %s)" name
             (Participant.key_fingerprint p))
      end)

let parse_cells tbl values =
  let cols = Schema.columns (Table.schema tbl) in
  let raw = String.split_on_char ',' values in
  if List.length raw <> List.length cols then
    fail_usage "expected %d values, got %d" (List.length cols) (List.length raw)
  else begin
    let rec build acc cols raw =
      match (cols, raw) with
      | [], [] -> Ok (Array.of_list (List.rev acc))
      | c :: cs, v :: vs ->
          let* v = parse_value c.Schema.ty v in
          build (v :: acc) cs vs
      | _ -> fail_usage "arity"
    in
    build [] cols raw
  end

(* The engine owning [table] and the table itself. *)
let find_table ws table =
  let e = engine_for_table ws table in
  match Database.get_table (Engine.backend e) table with
  | None -> fail_usage "no table %s" table
  | Some tbl -> Ok (e, tbl)

let cmd_insert dir as_ table values =
  with_workspace dir (fun ws ->
      let* p = get_participant ws as_ in
      let* e, tbl = find_table ws table in
      let* cells = parse_cells tbl values in
      let* row = lift (Engine.insert_row e p ~table cells) in
      Ok
        (Printf.sprintf "inserted row %d (%d records)" row
           (Engine.last_metrics e).Engine.records_emitted))

let cmd_update dir as_ table row column value =
  with_workspace dir (fun ws ->
      let* p = get_participant ws as_ in
      let* e, tbl = find_table ws table in
      let schema = Table.schema tbl in
      let* col =
        match Schema.column_index schema column with
        | None -> fail_usage "no column %s in %s" column table
        | Some col -> Ok col
      in
      let* v = parse_value (Schema.column_at schema col).Schema.ty value in
      let* () = lift (Engine.update_cell e p ~table ~row ~col v) in
      Ok
        (Printf.sprintf "updated %s[%d].%s (%d records)" table row column
           (Engine.last_metrics e).Engine.records_emitted))

let cmd_delete dir as_ table row =
  with_workspace dir (fun ws ->
      let* p = get_participant ws as_ in
      let e = engine_for_table ws table in
      let* () = lift (Engine.delete_row e p ~table row) in
      Ok
        (Printf.sprintf "deleted %s[%d] (%d inherited records)" table row
           (Engine.last_metrics e).Engine.records_emitted))

let cmd_verify dir table row col =
  with_workspace ~save_after:false dir (fun ws ->
      match table with
      | None when row <> None || col <> None ->
          fail_usage "--row/--col require --table"
      | Some _ ->
          let* e, oid = locate_oid ws ~table ~row ~col in
          let* report = lift (Engine.verify_object e oid) in
          Format.printf "%a@." Verifier.pp_report report;
          if Verifier.ok report then Ok "" else fail_verify "verification failed"
      | None ->
          (* Whole database: verify every shard's root object and
             additionally audit every stored record (catches corruption
             in chains that are not part of any root's provenance
             object). *)
          let n = nshards ws in
          let rec verify_shards k ok =
            if k = n then Ok ok
            else
              let label = shard_label ~shards:n k in
              match
                Shards.verify_shard ~pool:(pool ()) ~shards:n
                  ws.shards.(k).s_engine
              with
              | Error e -> fail "%s%s" label e
              | Ok None ->
                  Format.printf "%sVERIFIED: empty shard@." label;
                  verify_shards (k + 1) ok
              | Ok (Some (report, audit)) ->
                  Format.printf "%s%a@." label Verifier.pp_report report;
                  if not (Verifier.ok audit) then
                    Format.printf "%sstore audit: %a@." label
                      Verifier.pp_report audit;
                  verify_shards (k + 1)
                    (ok && Verifier.ok report && Verifier.ok audit)
          in
          let* shards_ok = verify_shards 0 true in
          (* Saved annotations, when present: every entry must parse
             and verify against the participant directory — a flipped
             byte in annot.dat fails here, same exit 3 class as record
             tampering. *)
          let apath = annot_path dir in
          let annots_ok =
            (not (Sys.file_exists apath))
            ||
            match Annot.list_of_string (read_file apath) with
            | Error e ->
                Format.printf "annotations: FAILED: %s@." e;
                false
            | Ok annots ->
                let failed a =
                  match Annot.verify ws.directory a with
                  | Ok () -> false
                  | Error e ->
                      Format.printf "annotation %S: FAILED: %s@." a.Annot.a_id
                        e;
                      true
                in
                let bad = List.filter failed annots in
                if bad = [] then
                  Format.printf "annotations: VERIFIED: %d signed annotation(s)@."
                    (List.length annots);
                bad = []
          in
          if shards_ok && annots_ok then Ok ""
          else fail_verify "verification failed")

let cmd_show dir table row col dot =
  with_workspace ~save_after:false dir (fun ws ->
      let* e, oid = locate_oid ws ~table ~row ~col in
      let* _, records = lift (Engine.deliver e oid) in
      if dot then print_string (Dag.to_dot (Dag.build records))
      else List.iter (fun r -> Format.printf "%a@." Record.pp r) records;
      Ok "")

let cmd_stats dir =
  with_workspace ~save_after:false dir (fun ws ->
      let sum f = Array.fold_left (fun acc s -> acc + f s) 0 ws.shards in
      let tables =
        List.concat_map
          (fun s -> Database.table_names (Engine.backend s.s_engine))
          (Array.to_list ws.shards)
      in
      if nshards ws > 1 then
        Printf.printf "shards:              %d\n" (nshards ws);
      Printf.printf "tables:              %s\n" (String.concat ", " tables);
      Printf.printf "rows:                %d\n"
        (sum (fun s -> Database.total_rows (Engine.backend s.s_engine)));
      Printf.printf "tree nodes:          %d\n"
        (sum (fun s -> Forest.node_count (Engine.forest s.s_engine)));
      Printf.printf "participants:        %s\n"
        (String.concat ", " (List.map fst ws.participants));
      Printf.printf "provenance records:  %d\n"
        (sum (fun s -> Provstore.record_count (Engine.provstore s.s_engine)));
      Printf.printf "objects tracked:     %d\n"
        (sum (fun s -> Provstore.object_count (Engine.provstore s.s_engine)));
      Printf.printf "checksum bytes:      %d (paper schema)\n"
        (sum (fun s -> Provstore.paper_space_bytes (Engine.provstore s.s_engine)));
      Printf.printf "root hash:           %s\n"
        (Tep_crypto.Digest_algo.to_hex (published_root ws));
      Ok "")

let cmd_tamper dir attack =
  with_workspace ~save_after:(attack = "data") dir (fun ws ->
      match attack with
      | "data" -> (
          (* mutate a cell behind the engine's back, in whichever
             shard holds one *)
          let find_victim s =
            let forest = Engine.forest s.s_engine in
            List.concat_map
              (fun r -> Forest.children forest r)
              (Forest.roots forest)
            |> List.concat_map (fun t -> Forest.children forest t)
            |> List.concat_map (fun r -> Forest.children forest r)
            |> function
            | cell :: _ -> Some (forest, cell)
            | [] -> None
          in
          match List.find_map find_victim (Array.to_list ws.shards) with
          | Some (forest, cell) ->
              ignore (Forest.update forest cell (Value.Text "TAMPERED"));
              Ok "silently modified one cell; run `provdb verify` to see detection"
          | None -> fail "no cells to tamper with")
      | "provenance" ->
          (* corrupt the fattest shard's store, so there is something
             to flip even when other shards are empty *)
          let path =
            Array.to_list ws.shards
            |> List.map (fun s -> s.s_dir // "prov.dat")
            |> List.sort (fun a b ->
                   compare (Unix.stat b).Unix.st_size (Unix.stat a).Unix.st_size)
            |> List.hd
          in
          let s = Bytes.of_string (read_file path) in
          let mid = Bytes.length s - 20 in
          Bytes.set s mid
            (Char.chr (Char.code (Bytes.get s mid) lxor 1));
          write_file path (Bytes.to_string s);
          Ok "flipped one byte of prov.dat; the next load will reject it"
      | "annotation" ->
          (* corrupt the newest saved annotation: the file ends with
             its signature bytes, so the last byte is inside them *)
          let path = annot_path ws.dir in
          if not (Sys.file_exists path) then
            fail
              "no annot.dat (save one with `provdb lineage select --save`)"
          else begin
            let s = Bytes.of_string (read_file path) in
            let last = Bytes.length s - 1 in
            Bytes.set s last (Char.chr (Char.code (Bytes.get s last) lxor 1));
            write_file path (Bytes.to_string s);
            Ok "flipped one byte of annot.dat; `provdb verify` now exits 3"
          end
      | other ->
          fail_usage "unknown attack %s (known: data, provenance, annotation)"
            other)

let cmd_export dir table row col deep out =
  with_workspace ~save_after:false dir (fun ws ->
      let* e, oid = locate_oid ws ~table ~row ~col in
      let* b = lift (Bundle.create ~deep e oid) in
      let* () = lift (Bundle.save b out) in
      Ok
        (Printf.sprintf "wrote %s: %d records, %d certificates, participants: %s"
           out
           (List.length b.Bundle.records)
           (List.length b.Bundle.certificates)
           (String.concat ", " (Bundle.participants b))))

(* Standalone recipient check: needs no workspace. *)
let cmd_check path ca_key_file =
  match Bundle.load path with
  | Error e ->
      prerr_endline ("error: " ^ e);
      exit_fail
  | Ok b -> (
      let trusted_ca =
        match ca_key_file with
        | None ->
            prerr_endline
              "warning: trusting the CA key embedded in the bundle; pass \
               --ca-key for an out-of-band trust anchor";
            Ok None
        | Some f -> (
            match Tep_crypto.Rsa.public_of_string (String.trim (read_file f)) with
            | Some k -> Ok (Some k)
            | None -> fail_usage "unreadable CA key file %s" f)
      in
      match trusted_ca with
      | Error f ->
          report_failure f;
          code_of_failure f
      | Ok trusted_ca ->
          let report = Bundle.verify ?trusted_ca b in
          Format.printf "%a@." Verifier.pp_report report;
          if Verifier.ok report then exit_ok else exit_verify)

let cmd_ca_key dir =
  with_workspace ~save_after:false dir (fun ws ->
      Ok
        (Tep_crypto.Rsa.public_to_string
           (Participant.Directory.ca_key ws.directory)))

(* Each shard's audit checkpoint, living in the shard's own directory
   (the workspace root for a 1-shard layout).  A missing file means a
   first audit; a damaged one is refused, since replacing it would drop
   every anchor. *)
let audit_checkpoints ws =
  let load s =
    let path = s.s_dir // "audit.ckpt" in
    if not (Sys.file_exists path) then Ok (path, Audit.empty)
    else
      match Audit.of_string (read_file path) with
      | Ok cp -> Ok (path, cp)
      | Error e ->
          fail "%s is damaged (%s); deleting it forces a full re-audit" path e
  in
  let loaded = Array.map load ws.shards in
  match Array.find_map (function Error e -> Some e | Ok _ -> None) loaded with
  | Some e -> Error e
  | None -> Ok (Array.map Result.get_ok loaded)

let cmd_audit dir =
  with_workspace ~save_after:false dir (fun ws ->
      let* ckpts = audit_checkpoints ws in
      let all_ok = ref true in
      let examined_total = ref 0 in
      let objects_total = ref 0 in
      Array.iteri
        (fun k s ->
          let label = shard_label ~shards:(nshards ws) k in
          let ckpt_path, cp = ckpts.(k) in
          let report, cp', examined =
            Audit.incremental_audit ~pool:(pool ())
              ~algo:(Engine.algo s.s_engine) ~directory:ws.directory cp
              (Engine.provstore s.s_engine)
          in
          Format.printf "%s%a@." label Verifier.pp_report report;
          examined_total := !examined_total + examined;
          objects_total := !objects_total + Audit.objects cp';
          write_file ckpt_path (Audit.to_string cp');
          if not (Verifier.ok report) then all_ok := false)
        ws.shards;
      Printf.printf "examined %d new record(s); checkpoint covers %d object(s)\n"
        !examined_total !objects_total;
      if !all_ok then Ok "" else fail_verify "audit failed")

(* Drop the records of objects no longer in the forest, then rebuild
   each shard's engine over its pruned store so the save below writes
   the pruned store to the flat files and a new checkpoint generation
   alike — `provdb recover` must not bring the records back.  The audit
   checkpoint forgets the objects whose chains got shorter: their
   marks may point at records that are gone. *)
let cmd_prune dir =
  with_workspace dir (fun ws ->
      let* ckpts = audit_checkpoints ws in
      let before_total = ref 0 in
      let after_total = ref 0 in
      Array.iteri
        (fun k s ->
          let e = s.s_engine in
          let prov = Engine.provstore e and forest = Engine.forest e in
          let live = ref [] in
          List.iter
            (fun root ->
              Forest.iter_preorder forest root (fun o _ -> live := o :: !live))
            (Forest.roots forest);
          let pruned = Provstore.prune prov ~live:!live in
          before_total := !before_total + Provstore.record_count prov;
          after_total := !after_total + Provstore.record_count pruned;
          let tip st oid =
            Option.map (fun (r : Record.t) -> r.Record.checksum)
              (Provstore.latest st oid)
          in
          let shortened =
            List.filter
              (fun oid -> tip pruned oid <> tip prov oid)
              (Provstore.objects prov)
          in
          let ckpt_path, cp = ckpts.(k) in
          if Audit.objects cp > 0 then
            write_file ckpt_path (Audit.to_string (Audit.forget cp shortened));
          ws.shards.(k) <-
            {
              s with
              s_engine =
                Engine.of_parts ~algo:(Engine.algo e) ~wal:s.s_wal
                  ~pool:(pool ()) ~provstore:pruned ~directory:ws.directory
                  ~forest ~view:(Engine.mapping e) (Engine.backend e);
            })
        ws.shards;
      Ok
        (Printf.sprintf
           "pruned %d -> %d records (%d bytes reclaimed in paper schema)"
           !before_total !after_total
           ((!before_total - !after_total) * Provstore.paper_row_bytes)))

(* The --where grammar is {!Query.pred_of_string}: and/or/not with
   the usual precedence, parentheses, "col is [not] null", quoted
   text.  Parsed values are coerced to the live schema's column
   types so "qty > 50" compares as an int against an int column. *)
let parse_where schema where =
  match Query.pred_of_string (Option.value where ~default:"") with
  | Error e -> fail_usage "%s" e
  | Ok pred -> Ok (Query.coerce_pred schema pred)

let cells_text (r : Table.row) =
  String.concat " | " (Array.to_list (Array.map Value.to_string r.Table.cells))

let cmd_select dir table where blame =
  with_workspace ~save_after:false dir (fun ws ->
      let* e, tbl = find_table ws table in
      let schema = Table.schema tbl in
      let* pred = parse_where schema where in
      let* rows = lift (Query.select tbl pred) in
      let row_blame r =
        if not blame then ""
        else
          let writer =
            match Tree_view.row_oid (Engine.mapping e) table r.Table.id with
            | None -> None
            | Some oid -> Prov_query.last_writer (Engine.provstore e) oid
          in
          " | " ^ Option.value ~default:"-" writer
      in
      Printf.printf "row | %s%s\n"
        (String.concat " | "
           (List.map (fun c -> c.Schema.name) (Schema.columns schema)))
        (if blame then " | last_writer" else "");
      List.iter
        (fun r ->
          Printf.printf "%3d | %s%s\n" r.Table.id (cells_text r) (row_blame r))
        rows;
      Printf.printf "(%d rows)\n" (List.length rows);
      Ok "")

(* ------------------------------------------------------------------ *)
(* Lineage commands                                                    *)
(* ------------------------------------------------------------------ *)

let cmd_lineage_kind kind dir table row col =
  with_workspace ~save_after:false dir (fun ws ->
      let* e, oid = locate_oid ws ~table ~row ~col in
      let idx = Prov_index.of_store (Engine.provstore e) in
      (match kind with
      | `Why ->
          Printf.printf "why(%s) = %s\n" (Oid.to_string oid)
            (Lineage.poly_to_string (Lineage.why idx oid));
          Printf.printf "depth %d, min support %d\n" (Lineage.depth idx oid)
            (Lineage.min_support idx oid)
      | `Inputs ->
          List.iter
            (fun o -> print_endline (Oid.to_string o))
            (Lineage.which_inputs idx oid)
      | `Depth -> Printf.printf "%d\n" (Lineage.depth idx oid)
      | `Impact ->
          List.iter
            (fun o -> print_endline (Oid.to_string o))
            (Lineage.impact idx oid));
      Ok "")

(* Annotated select/aggregate over one table.  Row variables are
   forest oids, so the printed polynomials name the same objects
   `provdb lineage why` does.  With --save ID --as P the result is
   signed by P — binding query, rows, polynomials, aggregate and the
   published root — and appended to WORKSPACE/annot.dat, which
   `provdb verify` checks from then on. *)
let cmd_lineage_select dir table where agg save as_ =
  with_workspace ~save_after:false dir (fun ws ->
      let* e, tbl = find_table ws table in
      let* q =
        Annotate.query
          ~var:(Annotate.row_var (Engine.mapping e) table)
          tbl
          ~where:(Option.value where ~default:"")
          ~agg
        |> Result.map_error (function
             | Annotate.Parse e -> Usage e
             | Annotate.Eval e -> Fail e)
      in
      List.iter
        (fun (r, _, p) ->
          Printf.printf "%3d | %s | %s\n" r.Table.id (cells_text r)
            (Lineage.poly_to_string p))
        q.q_rows;
      (match q.q_value with
      | Some v ->
          Printf.printf "%s = %s\n" (Option.value agg ~default:"")
            (Value.to_string v)
      | None -> Printf.printf "(%d rows)\n" (List.length q.q_rows));
      match (save, as_) with
      | None, _ -> Ok ""
      | Some _, None -> fail_usage "--save requires --as PARTICIPANT"
      | Some id, Some name -> (
          match List.assoc_opt name ws.participants with
          | None -> fail_usage "unknown participant %s" name
          | Some p ->
              let annot =
                Annot.make ~id ~table
                  ~pred:(Query.pred_to_string q.q_pred)
                  ~agg:(Option.value agg ~default:"")
                  ~rows:(List.map (fun (_, v, poly) -> (v, poly)) q.q_rows)
                  ~value:q.q_value ~root:(published_root ws) p
              in
              let path = annot_path dir in
              let* l =
                if not (Sys.file_exists path) then Ok []
                else
                  Annot.list_of_string (read_file path)
                  |> Result.map_error (fun e -> Fail (path ^ ": " ^ e))
              in
              write_file path (Annot.list_to_string (l @ [ annot ]));
              Ok
                (Printf.sprintf "saved signed annotation %S (%d total)" id
                   (List.length l + 1))))

let cmd_checkpoint dir keep =
  with_workspace ~save_after:false dir (fun ws ->
      let* gens = lift (Shards.checkpoint_all ?keep ~coord:ws.coord (durable ws)) in
      let line k (gen, lsn) =
        Printf.sprintf
          "%swrote checkpoint generation %d (lsn %d); %d generation(s) retained"
          (shard_label ~shards:(nshards ws) k)
          gen lsn
          (List.length (Recovery.generations ~dir:(ckpt_dir ws.shards.(k).s_dir)))
      in
      Ok (String.concat "\n" (List.mapi line gens)))

(* Rebuild the workspace from the newest valid checkpoint generation
   plus the WAL tail — the path to take after a crash, or after
   `tamper --attack provenance` wrecks prov.dat. *)
let cmd_recover dir =
  match load_identity dir with
  | Error f ->
      report_failure f;
      code_of_failure f
  | Ok (ca, directory, participants) -> (
      let n = shard_count dir in
      (* the coordinator log resolves prepared-but-unmarked cross-shard
         transactions: decided ⇒ commit, undecided ⇒ roll back *)
      let is_decided =
        if n > 1 then Some (Shards.is_decided_from (coord_path dir)) else None
      in
      let rec go k acc =
        if k = n then Ok (List.rev acc)
        else
          let sdir = shard_dir dir ~shards:n k in
          let* engine, wal, report =
            (* save below writes the post-recovery checkpoint, so
               recover itself need not *)
            Recovery.recover ~final_checkpoint:false ~pool:(pool ())
              ?is_decided ~dir:(ckpt_dir sdir) ~wal_path:(wal_path sdir)
              ~directory ()
            |> Result.map_error (fun e -> shard_label ~shards:n k ^ e)
          in
          if n > 1 then Format.printf "shard %d:@." k;
          Format.printf "%a@." Recovery.pp_report report;
          go (k + 1)
            (({ s_dir = sdir; s_engine = engine; s_wal = wal }, report) :: acc)
      in
      match
        let* pairs = go 0 [] in
        let shards = Array.of_list (List.map fst pairs) in
        let coord = if n > 1 then Some (Wal.open_file (coord_path dir)) else None in
        let* () = save { dir; ca; directory; participants; shards; coord } in
        Ok pairs
      with
      | Error e ->
          prerr_endline ("error: " ^ e);
          exit_fail
      | Ok pairs ->
          print_endline "workspace files rewritten from recovered state";
          if List.for_all (fun (_, r) -> r.Recovery.hash_verified) pairs then
            exit_ok
          else begin
            prerr_endline
              "error: recovered root hash does not match committed \
               provenance — run `provdb verify` to locate the tampering";
            exit_verify
          end)

(* ------------------------------------------------------------------ *)
(* Remote commands (against a running provdbd)                         *)
(* ------------------------------------------------------------------ *)

module Client = Tep_client.Client
module Message = Tep_wire.Message

(* The daemon types values against the live schema, so the remote CLI
   only guesses from syntax: int, then float, then bool, else text. *)
let guess_value s =
  if s = "NULL" then Value.Null
  else
    match int_of_string_opt s with
    | Some i -> Value.Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Value.Float f
        | None -> (
            match bool_of_string_opt s with
            | Some b -> Value.Bool b
            | None -> Value.Text s))

let parse_oid s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> Ok (Oid.of_int n)
  | _ -> fail_usage "not an oid: %s" s

let print_report r =
  let s = Message.render_report r in
  if String.length s > 0 && s.[String.length s - 1] = '\n' then print_string s
  else print_endline s

(* Load the named participant's credential (the same file `provdb
   participant` wrote), connect, authenticate, run, close. *)
let with_remote dir socket host port as_ key f =
  let key_file =
    match key with Some f -> f | None -> dir // "participants" // as_
  in
  let outcome =
    if not (Sys.file_exists key_file) then
      fail_usage "no credential file %s (pass --key, or add the participant)"
        key_file
    else
      match Participant.of_string (read_file key_file) with
      | None -> fail "unreadable participant credential %s" key_file
      | Some p -> (
          let conn =
            match port with
            | Some port -> Client.connect_tcp ~host ~port ()
            | None ->
                Client.connect_unix
                  (Option.value socket ~default:(socket_path dir))
          in
          match conn with
          | Error e -> fail "%s" e
          | Ok c ->
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  match Client.authenticate c p with
                  | Error e -> fail "authentication failed: %s" e
                  | Ok () -> f c))
  in
  match outcome with
  | Ok msg ->
      if msg <> "" then print_endline msg;
      exit_ok
  | Error f ->
      report_failure f;
      code_of_failure f

let cmd_remote_insert remote table values =
  remote (fun c ->
      let cells =
        Array.of_list (List.map guess_value (String.split_on_char ',' values))
      in
      let* row, records = lift (Client.insert c ~table cells) in
      Ok (Printf.sprintf "inserted row %d (%d records)" row records))

let cmd_remote_update remote table row col value =
  remote (fun c ->
      let* records = lift (Client.update c ~table ~row ~col (guess_value value)) in
      Ok (Printf.sprintf "updated %s[%d].%d (%d records)" table row col records))

let cmd_remote_delete remote table row =
  remote (fun c ->
      let* records = lift (Client.delete c ~table ~row) in
      Ok (Printf.sprintf "deleted %s[%d] (%d inherited records)" table row records))

let cmd_remote_aggregate remote oids value =
  remote (fun c ->
      let rec parse acc = function
        | [] -> Ok (List.rev acc)
        | s :: rest ->
            let* o = parse_oid s in
            parse (o :: acc) rest
      in
      let* inputs = parse [] (String.split_on_char ',' oids) in
      let value = Option.map guess_value value in
      let* oid, records = lift (Client.aggregate c ?value inputs) in
      Ok
        (Printf.sprintf "aggregate object %s (%d records)" (Oid.to_string oid)
           records))

let cmd_remote_query remote oid =
  remote (fun c ->
      let* records = lift (Client.query c ?oid:(Option.map Oid.of_int oid) ()) in
      List.iter (fun r -> Format.printf "%a@." Record.pp r) records;
      Ok "")

let cmd_remote_verify remote oid =
  remote (fun c ->
      let* report, store_audit =
        lift (Client.verify c ?oid:(Option.map Oid.of_int oid) ())
      in
      print_report report;
      let audit_ok =
        match store_audit with
        | None -> true
        | Some a ->
            if not (Message.report_ok a) then begin
              print_string "store audit: ";
              print_report a
            end;
            Message.report_ok a
      in
      if Message.report_ok report && audit_ok then Ok ""
      else fail_verify "verification failed")

let cmd_remote_audit remote sample seed =
  remote (fun c ->
      match sample with
      | None ->
          let* report, examined, objects = lift (Client.audit c) in
          print_report report;
          Printf.printf
            "examined %d new record(s); checkpoint covers %d object(s)\n"
            examined objects;
          if Message.report_ok report then Ok "" else fail_verify "audit failed"
      | Some alpha ->
          if not (alpha > 0. && alpha <= 1.) then
            fail_usage "--sample must be in (0, 1]"
          else
            (* ppm granularity: the fraction the server actually
               applies, so the bound below is computed from it, not
               from the possibly-rounded request *)
            let alpha_ppm = max 1 (int_of_float (alpha *. 1e6)) in
            let seed = Option.value seed ~default:"provdb-audit" in
            let* report, sampled, population =
              lift (Client.audit_sample c ~seed ~alpha_ppm)
            in
            print_report report;
            let a = float_of_int alpha_ppm /. 1e6 in
            Printf.printf
              "sampled %d of %d live object(s) (alpha = %g, seed %S)\n" sampled
              population a seed;
            Printf.printf
              "detection bound: P(miss k tampered) <= (1 - alpha)^k = %.4f^k  \
               (k=1: %.4f, k=5: %.4f, k=20: %.4f)\n"
              (1. -. a) (1. -. a)
              ((1. -. a) ** 5.)
              ((1. -. a) ** 20.);
            if Message.report_ok report then Ok ""
            else fail_verify "sampled audit failed")

let cmd_remote_checkpoint remote =
  remote (fun c ->
      let* generation, lsn = lift (Client.checkpoint c) in
      Ok (Printf.sprintf "wrote checkpoint generation %d (lsn %d)" generation lsn))

let cmd_remote_root_hash remote =
  remote (fun c ->
      let* hash = lift (Client.root_hash c) in
      Ok (Tep_crypto.Digest_algo.to_hex hash))

(* Daemon counters, one line per shard: batching, signing, queue
   depth and proofs served. *)
let cmd_remote_stats remote =
  remote (fun c ->
      let* stats = lift (Client.shard_stats c) in
      List.iteri
        (fun k s ->
          Printf.printf
            "shard %d: batches=%d ops=%d sign_wall_us=%d sign_cpu_us=%d \
             queued=%d proofs_served=%d proof_bytes=%d\n"
            k s.Message.ss_batches s.Message.ss_ops s.Message.ss_sign_wall_us
            s.Message.ss_sign_cpu_us s.Message.ss_queued
            s.Message.ss_proofs_served s.Message.ss_proof_bytes)
        stats;
      Ok "")

(* The workspace's participant directory, for checks made here. *)
let with_directory dir f =
  match load_identity dir with
  | Error e ->
      report_failure e;
      code_of_failure e
  | Ok (_ca, directory, _participants) -> f directory

(* Remote Merkle-proof verification, the read-side dual of Economical
   hashing: fetch the root hash once (the only thing taken from the
   server that the session's HMAC already authenticates), then have
   every claim in the proof answer rechecked locally — O(depth ×
   fanout) wire bytes and client work instead of a full report. *)
let cmd_remote_prove dir remote table row col =
  with_directory dir (fun directory ->
      remote (fun c ->
          let* trusted = lift (Client.root_hash c) in
          let* proofs = lift (Client.prove c ~table ~row ?col ()) in
          (* workspaces hash with the engine default *)
          let algo = Tep_crypto.Digest_algo.SHA1 in
          let bytes =
            List.fold_left
              (fun a (it : Client.proof_item) ->
                a + String.length it.Client.pf_encoded)
              0 proofs.Client.pf_items
          in
          match
            Client.check_proofs ~algo ~directory ~trusted_root:trusted proofs
          with
          | Error e -> fail_verify "proof: %s" e
          | Ok r when Verifier.ok r ->
              Printf.printf
                "VERIFIED: %d leaf(s), %d records, %d signatures checked \
                 against root %s (%d proof bytes)\n"
                (List.length proofs.Client.pf_items)
                r.Verifier.records_checked r.Verifier.signatures_checked
                (Tep_crypto.Digest_algo.to_hex trusted)
                bytes;
              Ok ""
          | Ok r ->
              Format.printf "%a@." Verifier.pp_report r;
              fail_verify "proof verification failed"))

let cmd_remote_lineage remote kind oid =
  remote (fun c ->
      match Message.lineage_kind_of_name kind with
      | None ->
          fail_usage "unknown lineage kind %s (why|inputs|depth|impact)" kind
      | Some k ->
          let* l = lift (Client.lineage c ~kind:k ~oid:(Oid.of_int oid)) in
          (match l.Client.l_poly with
          | Some p ->
              Printf.printf "why(%s) = %s\n" (Lineage.oid_name oid)
                (Lineage.poly_to_string p)
          | None -> ());
          (match k with
          | Message.L_why | Message.L_depth ->
              Printf.printf "depth %d\n" l.Client.l_depth
          | Message.L_inputs | Message.L_impact ->
              List.iter (fun o -> print_endline (Oid.to_string o)) l.Client.l_oids);
          Ok "")

(* Annotated remote select: rows come back with their provenance
   polynomials plus an annotation signed by the server as the
   authenticated session participant.  The annotation is verified
   here against the local participant directory, so a result whose
   rows or polynomials were altered in flight or at rest exits 3. *)
let cmd_remote_select dir remote table where agg =
  with_directory dir (fun directory ->
      remote (fun c ->
          let* rows, value, annot =
            lift
              (Client.annotated_query c ~table
                 ~where:(Option.value where ~default:"")
                 ~agg:(Option.value agg ~default:"")
                 ())
          in
          List.iter
            (fun (r : Client.annotated_row) ->
              Printf.printf "%s | %s | %s\n"
                (Lineage.oid_name r.Client.ar_var)
                (String.concat " | "
                   (Array.to_list (Array.map Value.to_string r.Client.ar_cells)))
                (Lineage.poly_to_string r.Client.ar_poly))
            rows;
          (match value with
          | Some v ->
              Printf.printf "%s = %s\n" (Option.value agg ~default:"")
                (Value.to_string v)
          | None -> Printf.printf "(%d rows)\n" (List.length rows));
          match Annot.verify directory annot with
          | Ok () ->
              Ok
                (Printf.sprintf "annotation signed by %s: VERIFIED"
                   annot.Annot.a_participant)
          | Error e -> fail_verify "annotation: %s" e))

(* ------------------------------------------------------------------ *)
(* Cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let exits =
  Cmd.Exit.info exit_fail
    ~doc:"on operational errors (I/O failures, corrupt state, rejected \
          engine operations)."
  :: Cmd.Exit.info exit_usage
       ~doc:"on malformed arguments: unparseable values, bad table/column \
             specs, unknown tables, rows, participants or attacks."
  :: Cmd.Exit.info exit_verify
       ~doc:"when verification, audit or recovery cross-checks detect \
             tampering."
  :: Cmd.Exit.defaults

let dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKSPACE")

let as_arg =
  Arg.(required & opt (some string) None & info [ "as" ] ~docv:"PARTICIPANT")

let table_opt = Arg.(value & opt (some string) None & info [ "table" ])
let table_req = Arg.(required & opt (some string) None & info [ "table" ])
let row_opt = Arg.(value & opt (some int) None & info [ "row" ])
let row_req = Arg.(required & opt (some int) None & info [ "row" ])
let col_opt = Arg.(value & opt (some int) None & info [ "col" ])

let init_cmd =
  let tables =
    Arg.(value & opt_all string [] & info [ "table" ] ~docv:"NAME:COL[@TYPE],...")
  in
  let seed = Arg.(value & opt (some string) None & info [ "seed" ]) in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:
               "Partition the provenance forest into N shards (fixed at \
                init; tables route to shards by a stable hash)")
  in
  Cmd.v (Cmd.info "init" ~doc:"Create a workspace" ~exits)
    Term.(const cmd_init $ dir_arg $ tables $ seed $ shards)

let participant_cmd =
  let pname = Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME") in
  let seed = Arg.(value & opt (some string) None & info [ "seed" ]) in
  Cmd.v
    (Cmd.info "participant" ~doc:"Register a participant (generates a keypair)"
       ~exits)
    Term.(const cmd_participant $ dir_arg $ pname $ seed)

let insert_cmd =
  let values =
    Arg.(required & opt (some string) None & info [ "values" ] ~docv:"V1,V2,...")
  in
  Cmd.v (Cmd.info "insert" ~doc:"Insert a row" ~exits)
    Term.(const cmd_insert $ dir_arg $ as_arg $ table_req $ values)

let update_cmd =
  let column =
    Arg.(required & opt (some string) None & info [ "column" ] ~docv:"NAME")
  in
  let value = Arg.(required & opt (some string) None & info [ "value" ]) in
  Cmd.v (Cmd.info "update" ~doc:"Update one cell" ~exits)
    Term.(const cmd_update $ dir_arg $ as_arg $ table_req $ row_req $ column $ value)

let delete_cmd =
  Cmd.v (Cmd.info "delete" ~doc:"Delete a row" ~exits)
    Term.(const cmd_delete $ dir_arg $ as_arg $ table_req $ row_req)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Verify provenance (whole database, or --table/--row/--col).  \
          Exits 3 when tampering is detected."
       ~exits)
    Term.(const cmd_verify $ dir_arg $ table_opt $ row_opt $ col_opt)

let show_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Graphviz output") in
  Cmd.v (Cmd.info "show" ~doc:"Print an object's provenance records" ~exits)
    Term.(const cmd_show $ dir_arg $ table_opt $ row_opt $ col_opt $ dot)

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~doc:"Workspace statistics" ~exits)
    Term.(const cmd_stats $ dir_arg)

let export_cmd =
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let deep =
    Arg.(value & flag & info [ "deep" ] ~doc:"Include descendants' provenance")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export an object + provenance as a portable bundle"
       ~exits)
    Term.(const cmd_export $ dir_arg $ table_opt $ row_opt $ col_opt $ deep $ out)

let check_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"BUNDLE") in
  let ca_key = Arg.(value & opt (some string) None & info [ "ca-key" ] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify a bundle as a data recipient (no workspace needed).  \
          Exits 3 when the bundle fails verification."
       ~exits)
    Term.(const cmd_check $ path $ ca_key)

let ca_key_cmd =
  Cmd.v (Cmd.info "ca-key" ~doc:"Print the workspace CA public key" ~exits)
    Term.(const cmd_ca_key $ dir_arg)

let audit_cmd =
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Incremental audit: check signatures only on records added since \
          the last audit, and every chain's links and audited records.  \
          Exits 3 when tampering is detected, 1 on a damaged audit.ckpt."
       ~exits)
    Term.(const cmd_audit $ dir_arg)

let prune_cmd =
  Cmd.v
    (Cmd.info "prune"
       ~doc:"Drop provenance of deleted objects (keeps cited prefixes)" ~exits)
    Term.(const cmd_prune $ dir_arg)

let select_cmd =
  let where =
    Arg.(value & opt (some string) None & info [ "where" ] ~docv:"PRED"
           ~doc:"e.g. 'qty > 50 and sku = WIDGET-1'")
  in
  let blame =
    Arg.(value & flag & info [ "blame" ] ~doc:"Append a last-writer column")
  in
  Cmd.v (Cmd.info "select" ~doc:"Query a table" ~exits)
    Term.(const cmd_select $ dir_arg $ table_req $ where $ blame)

let where_arg =
  Arg.(value & opt (some string) None
       & info [ "where" ] ~docv:"PRED"
           ~doc:
             "Predicate: and/or/not, parentheses, comparisons, 'col is \
              [not] null', quoted text — e.g. $(b,\"qty > 50 and (sku = \
              'WIDGET-1' or sku is null)\")")

let agg_arg =
  Arg.(value & opt (some string) None
       & info [ "agg" ] ~docv:"FN"
           ~doc:"count, sum(col), avg(col), min(col) or max(col)")

let lineage_cmd =
  let kind_cmd name kind doc =
    Cmd.v (Cmd.info name ~doc ~exits)
      Term.(
        const (cmd_lineage_kind kind) $ dir_arg $ table_opt $ row_opt $ col_opt)
  in
  let select =
    let save =
      Arg.(value & opt (some string) None
           & info [ "save" ] ~docv:"ID"
               ~doc:
                 "Append the result as a signed annotation to \
                  WORKSPACE/annot.dat (requires --as); `provdb verify` \
                  checks it from then on")
    in
    let as_opt =
      Arg.(value & opt (some string) None
           & info [ "as" ] ~docv:"PARTICIPANT")
    in
    Cmd.v
      (Cmd.info "select"
         ~doc:"Annotated query: result rows with provenance polynomials"
         ~exits)
      Term.(
        const cmd_lineage_select $ dir_arg $ table_req $ where_arg $ agg_arg
        $ save $ as_opt)
  in
  Cmd.group
    (Cmd.info "lineage"
       ~doc:
         "Lineage queries over the provenance DAG, answered as semiring \
          provenance polynomials"
       ~exits)
    [
      kind_cmd "why" `Why
        "Provenance polynomial of an object, with depth and min support";
      kind_cmd "inputs" `Inputs "Base objects the derivation depends on";
      kind_cmd "depth" `Depth "Aggregation hops from the deepest base object";
      kind_cmd "impact" `Impact
        "Every object transitively derived from this one";
      select;
    ]

let checkpoint_cmd =
  let keep =
    Arg.(value & opt (some int) None & info [ "keep" ] ~docv:"N"
           ~doc:"Checkpoint generations to retain (default 2)")
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Write a checkpoint generation and truncate the WAL" ~exits)
    Term.(const cmd_checkpoint $ dir_arg $ keep)

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild the workspace from the newest valid checkpoint plus the \
          WAL tail (crash recovery).  Exits 3 when the recovered root hash \
          fails its cross-checks."
       ~exits)
    Term.(const cmd_recover $ dir_arg)

let tamper_cmd =
  let attack =
    Arg.(required & opt (some string) None & info [ "attack" ] ~docv:"data|provenance")
  in
  Cmd.v (Cmd.info "tamper" ~doc:"Inject tampering (for demonstrations)" ~exits)
    Term.(const cmd_tamper $ dir_arg $ attack)

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket (default: WORKSPACE/provdbd.sock)")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT" ~doc:"Connect over TCP instead")

let key_arg =
  Arg.(value & opt (some string) None
       & info [ "key" ] ~docv:"FILE"
           ~doc:
             "Participant credential file (default: \
              WORKSPACE/participants/PARTICIPANT)")

(* [with_remote] over the connection flags every remote command
   shares; each command takes it as its [remote] argument. *)
let remote_arg =
  Term.(
    const with_remote $ dir_arg $ socket_arg $ host_arg $ port_arg $ as_arg
    $ key_arg)

let remote_cmd =
  let values =
    Arg.(required & opt (some string) None & info [ "values" ] ~docv:"V1,V2,...")
  in
  let value_req = Arg.(required & opt (some string) None & info [ "value" ]) in
  let value_opt = Arg.(value & opt (some string) None & info [ "value" ]) in
  let oids =
    Arg.(required & opt (some string) None & info [ "oids" ] ~docv:"OID,OID,...")
  in
  let oid_opt = Arg.(value & opt (some int) None & info [ "oid" ] ~docv:"OID") in
  Cmd.group
    (Cmd.info "remote"
       ~doc:
         "Operate on a running provdbd daemon over its authenticated wire \
          protocol"
       ~exits)
    [
      Cmd.v (Cmd.info "insert" ~doc:"Insert a row over the wire" ~exits)
        Term.(const cmd_remote_insert $ remote_arg $ table_req $ values);
      Cmd.v (Cmd.info "update" ~doc:"Update one cell over the wire" ~exits)
        Term.(
          const cmd_remote_update $ remote_arg $ table_req $ row_req
          $ Arg.(required & opt (some int) None & info [ "col" ] ~docv:"INDEX")
          $ value_req);
      Cmd.v (Cmd.info "delete" ~doc:"Delete a row over the wire" ~exits)
        Term.(const cmd_remote_delete $ remote_arg $ table_req $ row_req);
      Cmd.v
        (Cmd.info "aggregate" ~doc:"Aggregate objects over the wire" ~exits)
        Term.(const cmd_remote_aggregate $ remote_arg $ oids $ value_opt);
      Cmd.v
        (Cmd.info "query" ~doc:"Fetch an object's provenance records" ~exits)
        Term.(const cmd_remote_query $ remote_arg $ oid_opt);
      Cmd.v
        (Cmd.info "verify"
           ~doc:
             "Run server-side verification and print the report.  Exits 3 \
              when tampering is detected."
           ~exits)
        Term.(const cmd_remote_verify $ remote_arg $ oid_opt);
      Cmd.v
        (Cmd.info "audit"
           ~doc:
             "Run a server-side incremental audit, or with --sample a \
              seed-reproducible sampled sweep with its detection bound.  \
              Exits 3 when tampering is detected."
           ~exits)
        Term.(
          const cmd_remote_audit $ remote_arg
          $ Arg.(
              value
              & opt (some float) None
              & info [ "sample" ] ~docv:"ALPHA"
                  ~doc:
                    "Verify a DRBG-sampled ALPHA-fraction of live objects \
                     (0 < ALPHA <= 1) instead of the incremental sweep")
          $ Arg.(
              value
              & opt (some string) None
              & info [ "seed" ] ~docv:"SEED"
                  ~doc:
                    "DRBG seed for --sample; the same seed replays the \
                     same sample"));
      Cmd.v
        (Cmd.info "prove"
           ~doc:
             "Fetch a Merkle membership proof for one cell (or a whole row \
              with no --col) and verify it locally against the published \
              root — O(log n) bytes instead of a full report.  Exits 3 on \
              any chain mismatch."
           ~exits)
        Term.(
          const cmd_remote_prove $ dir_arg $ remote_arg $ table_req $ row_req
          $ col_opt);
      Cmd.v
        (Cmd.info "stats"
           ~doc:
             "Print the daemon's counters, one line per shard: batching, \
              signing, queue depth and proofs served"
           ~exits)
        Term.(const cmd_remote_stats $ remote_arg);
      Cmd.v
        (Cmd.info "checkpoint" ~doc:"Ask the daemon to checkpoint" ~exits)
        Term.(const cmd_remote_checkpoint $ remote_arg);
      Cmd.v
        (Cmd.info "root-hash" ~doc:"Print the daemon's current root hash"
           ~exits)
        Term.(const cmd_remote_root_hash $ remote_arg);
      Cmd.v
        (Cmd.info "lineage"
           ~doc:"Lineage query over the wire (why|inputs|depth|impact)"
           ~exits)
        Term.(
          const cmd_remote_lineage $ remote_arg
          $ Arg.(value & opt string "why" & info [ "kind" ] ~docv:"KIND")
          $ Arg.(
              required & opt (some int) None & info [ "oid" ] ~docv:"OID"));
      Cmd.v
        (Cmd.info "select"
           ~doc:
             "Annotated query over the wire; verifies the server-signed \
              annotation against the local directory (exit 3 on failure)"
           ~exits)
        Term.(
          const cmd_remote_select $ dir_arg $ remote_arg $ table_req
          $ where_arg $ agg_arg);
    ]

let () =
  let info =
    Cmd.info "provdb" ~version:"1.0.0"
      ~doc:"Tamper-evident database provenance (Zhang/Chapman/LeFevre 2009)"
      ~exits
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            init_cmd;
            participant_cmd;
            insert_cmd;
            update_cmd;
            delete_cmd;
            verify_cmd;
            show_cmd;
            stats_cmd;
            export_cmd;
            check_cmd;
            ca_key_cmd;
            audit_cmd;
            prune_cmd;
            select_cmd;
            lineage_cmd;
            tamper_cmd;
            checkpoint_cmd;
            recover_cmd;
            remote_cmd;
          ]))
