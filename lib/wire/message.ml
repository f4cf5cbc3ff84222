(* Request/response codecs for the provenance service.

   Same codec discipline as the rest of the tree: a tag byte, then
   varint/length-prefixed fields via {!Tep_store.Value}; decoders
   raise [Failure]/[Invalid_argument] on malformed input and are
   fuzzed alongside every other decoder (test/test_fuzz.ml,
   test/test_wire.ml). *)

open Tep_store
open Tep_tree
open Tep_core

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type op =
  | Op_insert of { table : string; cells : Value.t array }
  | Op_update of { table : string; row : int; col : int; value : Value.t }
  | Op_delete of { table : string; row : int }
  | Op_aggregate of { inputs : Oid.t list; value : Value.t }

type request =
  | Hello of { name : string; nonce : string }
  | Auth of { signature : string; key_share : string }
      (* key_share: the session-key secret, RSA-encrypted to the
         participant's certificate key; covered by [signature] *)
  | Query of Oid.t option (* None: the database root *)
  | Verify of Oid.t option (* None: root object + whole-store audit *)
  | Audit
  | Root_hash
  | Stats (* group-commit batcher counters *)
  (* -- v3 additions.  Every write carries [rid], a client-generated
     request id: the server keeps a bounded dedup table of completed
     writes, so a retried submit or checkpoint (same rid, e.g. after a
     dropped connection) returns the original cached result instead of
     executing twice.  The rid-less v1 write tags (0x03 Submit, 0x07
     Checkpoint) are retired and decode as malformed. *)
  | Submit_idem of { rid : string; op : op }
  | Checkpoint_idem of { rid : string }
  | Ping (* readiness/health probe; never shed, never queued *)
  (* -- v4 addition, same new-tags-only discipline as v3: per-shard
     observability for sharded deployments.  A single-shard server
     answers with one entry, so v3 clients simply never ask. *)
  | Shard_stats
  (* -- v5 additions: the lineage engine.  Polynomials and annotations
     travel as opaque canonical byte strings (Tep_prov encodes and
     decodes them), so the wire layer stays independent of the
     provenance-polynomial library. *)
  | Lineage of { kind : lineage_kind; oid : Oid.t }
  | Annotated_query of { table : string; where : string; agg : string }
      (* [where]: predicate text (Query.pred_of_string syntax; "" =
         all rows).  [agg]: aggregate text (Query.agg_of_string; "" =
         plain select). *)
  (* -- v6 additions: sub-linear remote verification.  [Prove] asks
     for Merkle membership proofs of one cell (or, with [col = None],
     every cell of a row) under the published root; the proofs
     themselves travel as opaque encoded byte strings (Tep_tree.Proof
     encodes and decodes them) so this layer stays independent of
     proof verification.  [Audit_sample] runs a seed-reproducible
     DRBG-sampled α-fraction audit server-side; α travels in parts
     per million so the wire needs no floats. *)
  | Prove of { table : string; row : int; col : int option }
  | Audit_sample of { seed : string; alpha_ppm : int }

and lineage_kind = L_why | L_inputs | L_depth | L_impact

(* One shard's counters: its group-commit batcher plus the server-side
   root-cache behaviour (a write to shard k must invalidate only shard
   k's cached root — recomputes/hits make that observable). *)
type shard_stat = {
  ss_batches : int;
  ss_ops : int;
  ss_queued : int; (* submit ops sitting in this shard's batcher queue *)
  ss_root_recomputes : int; (* root-cache misses: engine root rehashed *)
  ss_root_hits : int; (* root served from the per-shard cache *)
  (* -- v6: proof-path observability.  A write to shard k must
     invalidate only shard k's hot leaf→root proof cache — the
     hit/miss split makes that observable remotely. *)
  ss_proofs_served : int; (* membership proofs built or replayed *)
  ss_proof_cache_hits : int; (* proofs answered from the LRU path cache *)
  ss_proof_cache_misses : int; (* proofs rebuilt off the Merkle cache *)
  ss_proof_bytes : int; (* cumulative encoded proof bytes served *)
}

(* A verifier report flattened for the wire: violations travel as
   their rendered strings, so the client can reproduce the server's
   report rendering byte-for-byte (see {!render_report}). *)
type report = {
  rp_records : int;
  rp_objects : int;
  rp_signatures : int;
  rp_violations : string list;
}

type error_code =
  | Auth_required
  | Auth_failed
  | Bad_request
  | Not_found
  | Too_large
  | Failed
  | Wal_failed
      (* the group-commit batcher could not make the batch durable
         (WAL append/flush error); nothing was committed — retrying
         the same rid re-executes *)
  | Shutting_down
      (* the server is draining: it will not accept new writes, and
         unlike Overloaded there is no point retrying this endpoint *)

type response =
  | Challenge of { nonce : string }
  | Auth_ok of { server : string }
  | Submitted of { row : int option; oid : Oid.t option; records : int }
  | Records of Record.t list
  | Verified of { report : report; store_audit : report option }
  | Audited of { report : report; examined : int; objects : int }
  | Checkpointed of { generation : int; lsn : int }
  | Root of { hash : string }
  | Stats_resp of {
      batches : int;
      ops : int;
      sign_wall_us : int; (* wall-clock µs inside commit signing stages *)
      sign_cpu_us : int; (* cumulative per-signature µs across domains *)
    }
  | Pong of {
      ready : bool; (* accepting writes (false once draining) *)
      draining : bool;
      active : int; (* concurrent socket connections *)
      queued_ops : int; (* submit ops sitting in the batcher queue *)
      batches : int;
      ops : int;
      dedup_hits : int; (* retried writes answered from the dedup table *)
      wal_failures : int; (* batches voided by WAL append/flush errors *)
      shed : int; (* ops refused by admission control *)
      reaped : int; (* v7: connections closed by the idle reaper *)
    }
  | Overloaded_resp of { retry_after_ms : int; message : string }
      (* typed overload shed: admission control refused the request
         before any execution; the client should back off at least
         [retry_after_ms] before retrying (same rid is safe) *)
  | Shard_stats_resp of shard_stat list (* one entry per shard, in shard order *)
  (* -- v5: lineage answers.  [poly] is a canonically-encoded
     provenance polynomial; [annot] a canonically-encoded signed
     annotation (both opaque here). *)
  | Lineage_resp of { poly : string; depth : int; oids : Oid.t list }
  | Annotated_resp of {
      arows : (int * Value.t array * string) list;
          (* (row variable, cells, encoded polynomial) per result row *)
      avalue : Value.t option; (* aggregate value, when one was asked *)
      annot : string; (* the server-signed annotation over the result *)
    }
  (* -- v6: proof answers.  [shard] is the owning shard's index and
     [shard_roots] every shard's engine root in shard order, so the
     client can chain each membership proof through the shard layer
     (engine root → root-of-roots) to the one hash it already trusts.
     Each item is (opaque encoded Proof.t, that leaf's provenance
     records) — the client recomputes everything locally and believes
     none of it a priori. *)
  | Proof_resp of {
      shard : int;
      shard_roots : string list;
      items : (string * Record.t list) list;
    }
  | Audit_sample_resp of { report : report; sampled : int; population : int }
  | Error_resp of { code : error_code; message : string }

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let report_of_verifier (r : Verifier.report) =
  {
    rp_records = r.Verifier.records_checked;
    rp_objects = r.Verifier.objects_checked;
    rp_signatures = r.Verifier.signatures_checked;
    rp_violations = List.map Verifier.violation_to_string r.Verifier.violations;
  }

let report_ok r = r.rp_violations = []

(* Byte-identical to [Format.asprintf "%a" Verifier.pp_report] on the
   report this was built from — the acceptance bar for remote
   verification. *)
let render_report r =
  if report_ok r then
    Printf.sprintf "VERIFIED: %d records, %d objects, %d signatures checked"
      r.rp_records r.rp_objects r.rp_signatures
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "TAMPERING DETECTED (%d violations):\n"
         (List.length r.rp_violations));
    List.iter
      (fun v -> Buffer.add_string buf ("  - " ^ v ^ "\n"))
      r.rp_violations;
    Buffer.contents buf
  end

let error_code_name = function
  | Auth_required -> "auth-required"
  | Auth_failed -> "auth-failed"
  | Bad_request -> "bad-request"
  | Not_found -> "not-found"
  | Too_large -> "too-large"
  | Failed -> "failed"
  | Wal_failed -> "wal-failed"
  | Shutting_down -> "shutting-down"

(* ------------------------------------------------------------------ *)
(* Codec helpers                                                       *)
(* ------------------------------------------------------------------ *)

let add_oid buf oid = Value.add_varint buf (Oid.to_int oid)

let read_oid s off =
  let n, off = Value.read_varint s off in
  (Oid.of_int n, off)

(* An element count: every element takes at least one byte, so a count
   beyond the bytes left is malformed.  Rejecting it here keeps a
   hostile count from reaching List.init / Array.init, where it would
   allocate (Out_of_memory) before any element fails to decode. *)
let read_count s off =
  let n, off = Value.read_varint s off in
  if n < 0 || n > String.length s - off then failwith "Message: bad count";
  (n, off)

let add_oid_opt buf = function
  | None -> Buffer.add_char buf '\x00'
  | Some oid ->
      Buffer.add_char buf '\x01';
      add_oid buf oid

let read_oid_opt s off =
  if off >= String.length s then failwith "Message: truncated option"
  else
    match s.[off] with
    | '\x00' -> (None, off + 1)
    | '\x01' ->
        let oid, off = read_oid s (off + 1) in
        (Some oid, off)
    | _ -> failwith "Message: bad option tag"

let add_report buf r =
  Value.add_varint buf r.rp_records;
  Value.add_varint buf r.rp_objects;
  Value.add_varint buf r.rp_signatures;
  Value.add_varint buf (List.length r.rp_violations);
  List.iter (Value.add_string buf) r.rp_violations

let read_report s off =
  let rp_records, off = Value.read_varint s off in
  let rp_objects, off = Value.read_varint s off in
  let rp_signatures, off = Value.read_varint s off in
  let n, off = read_count s off in
  let off = ref off in
  let rp_violations =
    List.init n (fun _ ->
        let v, o = Value.read_string s !off in
        off := o;
        v)
  in
  ({ rp_records; rp_objects; rp_signatures; rp_violations }, !off)

let add_cells buf cells =
  Value.add_varint buf (Array.length cells);
  Array.iter (Value.encode buf) cells

let read_cells s off =
  let n, off = read_count s off in
  let off = ref off in
  let cells =
    Array.init n (fun _ ->
        let v, o = Value.decode s !off in
        off := o;
        v)
  in
  (cells, !off)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let lineage_kind_tag = function
  | L_why -> '\x01'
  | L_inputs -> '\x02'
  | L_depth -> '\x03'
  | L_impact -> '\x04'

let lineage_kind_of_tag = function
  | '\x01' -> L_why
  | '\x02' -> L_inputs
  | '\x03' -> L_depth
  | '\x04' -> L_impact
  | c -> failwith (Printf.sprintf "Message: bad lineage kind %#x" (Char.code c))

let lineage_kind_name = function
  | L_why -> "why"
  | L_inputs -> "inputs"
  | L_depth -> "depth"
  | L_impact -> "impact"

let lineage_kind_of_name s =
  match String.lowercase_ascii s with
  | "why" -> Some L_why
  | "inputs" | "which-inputs" -> Some L_inputs
  | "depth" -> Some L_depth
  | "impact" -> Some L_impact
  | _ -> None

let encode_op buf = function
  | Op_insert { table; cells } ->
      Buffer.add_char buf '\x01';
      Value.add_string buf table;
      add_cells buf cells
  | Op_update { table; row; col; value } ->
      Buffer.add_char buf '\x02';
      Value.add_string buf table;
      Value.add_varint buf row;
      Value.add_varint buf col;
      Value.encode buf value
  | Op_delete { table; row } ->
      Buffer.add_char buf '\x03';
      Value.add_string buf table;
      Value.add_varint buf row
  | Op_aggregate { inputs; value } ->
      Buffer.add_char buf '\x04';
      Value.add_varint buf (List.length inputs);
      List.iter (add_oid buf) inputs;
      Value.encode buf value

let decode_op s off =
  if off >= String.length s then failwith "Message: truncated op";
  match s.[off] with
  | '\x01' ->
      let table, off = Value.read_string s (off + 1) in
      let cells, off = read_cells s off in
      (Op_insert { table; cells }, off)
  | '\x02' ->
      let table, off = Value.read_string s (off + 1) in
      let row, off = Value.read_varint s off in
      let col, off = Value.read_varint s off in
      let value, off = Value.decode s off in
      (Op_update { table; row; col; value }, off)
  | '\x03' ->
      let table, off = Value.read_string s (off + 1) in
      let row, off = Value.read_varint s off in
      (Op_delete { table; row }, off)
  | '\x04' ->
      let n, off = read_count s (off + 1) in
      let off = ref off in
      let inputs =
        List.init n (fun _ ->
            let oid, o = read_oid s !off in
            off := o;
            oid)
      in
      let value, o = Value.decode s !off in
      (Op_aggregate { inputs; value }, o)
  | c -> failwith (Printf.sprintf "Message: bad op tag %#x" (Char.code c))

let encode_request buf = function
  | Hello { name; nonce } ->
      Buffer.add_char buf '\x01';
      Value.add_string buf name;
      Value.add_string buf nonce
  | Auth { signature; key_share } ->
      Buffer.add_char buf '\x02';
      Value.add_string buf signature;
      Value.add_string buf key_share
  | Query oid ->
      Buffer.add_char buf '\x04';
      add_oid_opt buf oid
  | Verify oid ->
      Buffer.add_char buf '\x05';
      add_oid_opt buf oid
  | Audit -> Buffer.add_char buf '\x06'
  | Root_hash -> Buffer.add_char buf '\x08'
  | Stats -> Buffer.add_char buf '\x09'
  | Submit_idem { rid; op } ->
      Buffer.add_char buf '\x0a';
      Value.add_string buf rid;
      encode_op buf op
  | Checkpoint_idem { rid } ->
      Buffer.add_char buf '\x0b';
      Value.add_string buf rid
  | Ping -> Buffer.add_char buf '\x0c'
  | Shard_stats -> Buffer.add_char buf '\x0d'
  | Lineage { kind; oid } ->
      Buffer.add_char buf '\x0e';
      Buffer.add_char buf (lineage_kind_tag kind);
      add_oid buf oid
  | Annotated_query { table; where; agg } ->
      Buffer.add_char buf '\x0f';
      Value.add_string buf table;
      Value.add_string buf where;
      Value.add_string buf agg
  | Prove { table; row; col } ->
      Buffer.add_char buf '\x10';
      Value.add_string buf table;
      Value.add_varint buf row;
      (match col with
      | None -> Buffer.add_char buf '\x00'
      | Some c ->
          Buffer.add_char buf '\x01';
          Value.add_varint buf c)
  | Audit_sample { seed; alpha_ppm } ->
      Buffer.add_char buf '\x11';
      Value.add_string buf seed;
      Value.add_varint buf alpha_ppm

let decode_request s off =
  if off >= String.length s then failwith "Message: empty request";
  match s.[off] with
  | '\x01' ->
      let name, off = Value.read_string s (off + 1) in
      let nonce, off = Value.read_string s off in
      (Hello { name; nonce }, off)
  | '\x02' ->
      let signature, off = Value.read_string s (off + 1) in
      let key_share, off = Value.read_string s off in
      (Auth { signature; key_share }, off)
  | '\x04' ->
      let oid, off = read_oid_opt s (off + 1) in
      (Query oid, off)
  | '\x05' ->
      let oid, off = read_oid_opt s (off + 1) in
      (Verify oid, off)
  | '\x06' -> (Audit, off + 1)
  | '\x08' -> (Root_hash, off + 1)
  | '\x09' -> (Stats, off + 1)
  | '\x0a' ->
      let rid, off = Value.read_string s (off + 1) in
      let op, off = decode_op s off in
      (Submit_idem { rid; op }, off)
  | '\x0b' ->
      let rid, off = Value.read_string s (off + 1) in
      (Checkpoint_idem { rid }, off)
  | '\x0c' -> (Ping, off + 1)
  | '\x0d' -> (Shard_stats, off + 1)
  | '\x0e' ->
      if off + 1 >= String.length s then failwith "Message: truncated lineage";
      let kind = lineage_kind_of_tag s.[off + 1] in
      let oid, off = read_oid s (off + 2) in
      (Lineage { kind; oid }, off)
  | '\x0f' ->
      let table, off = Value.read_string s (off + 1) in
      let where, off = Value.read_string s off in
      let agg, off = Value.read_string s off in
      (Annotated_query { table; where; agg }, off)
  | '\x10' ->
      let table, off = Value.read_string s (off + 1) in
      let row, off = Value.read_varint s off in
      if off >= String.length s then failwith "Message: truncated option";
      let col, off =
        match s.[off] with
        | '\x00' -> (None, off + 1)
        | '\x01' ->
            let c, o = Value.read_varint s (off + 1) in
            (Some c, o)
        | _ -> failwith "Message: bad option tag"
      in
      (Prove { table; row; col }, off)
  | '\x11' ->
      let seed, off = Value.read_string s (off + 1) in
      let alpha_ppm, off = Value.read_varint s off in
      (Audit_sample { seed; alpha_ppm }, off)
  | c -> failwith (Printf.sprintf "Message: bad request tag %#x" (Char.code c))

let request_to_string r =
  let buf = Buffer.create 64 in
  encode_request buf r;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let error_code_tag = function
  | Auth_required -> 0
  | Auth_failed -> 1
  | Bad_request -> 2
  | Not_found -> 3
  | Too_large -> 4
  | Failed -> 5
  | Wal_failed -> 6
  | Shutting_down -> 7

let error_code_of_tag = function
  | 0 -> Auth_required
  | 1 -> Auth_failed
  | 2 -> Bad_request
  | 3 -> Not_found
  | 4 -> Too_large
  | 5 -> Failed
  | 6 -> Wal_failed
  | 7 -> Shutting_down
  | n -> failwith (Printf.sprintf "Message: bad error code %d" n)

let encode_response buf = function
  | Challenge { nonce } ->
      Buffer.add_char buf '\x81';
      Value.add_string buf nonce
  | Auth_ok { server } ->
      Buffer.add_char buf '\x82';
      Value.add_string buf server
  | Submitted { row; oid; records } ->
      Buffer.add_char buf '\x83';
      (match row with
      | None -> Buffer.add_char buf '\x00'
      | Some r ->
          Buffer.add_char buf '\x01';
          Value.add_varint buf r);
      add_oid_opt buf oid;
      Value.add_varint buf records
  | Records records ->
      Buffer.add_char buf '\x84';
      Value.add_varint buf (List.length records);
      List.iter (Record.encode buf) records
  | Verified { report; store_audit } ->
      Buffer.add_char buf '\x85';
      add_report buf report;
      (match store_audit with
      | None -> Buffer.add_char buf '\x00'
      | Some a ->
          Buffer.add_char buf '\x01';
          add_report buf a)
  | Audited { report; examined; objects } ->
      Buffer.add_char buf '\x86';
      add_report buf report;
      Value.add_varint buf examined;
      Value.add_varint buf objects
  | Checkpointed { generation; lsn } ->
      Buffer.add_char buf '\x87';
      Value.add_varint buf generation;
      Value.add_varint buf (lsn + 1) (* lsn >= -1 *)
  | Root { hash } ->
      Buffer.add_char buf '\x88';
      Value.add_string buf hash
  | Stats_resp { batches; ops; sign_wall_us; sign_cpu_us } ->
      Buffer.add_char buf '\x89';
      Value.add_varint buf batches;
      Value.add_varint buf ops;
      Value.add_varint buf sign_wall_us;
      Value.add_varint buf sign_cpu_us
  | Pong
      {
        ready;
        draining;
        active;
        queued_ops;
        batches;
        ops;
        dedup_hits;
        wal_failures;
        shed;
        reaped;
      } ->
      Buffer.add_char buf '\x8a';
      Buffer.add_char buf (if ready then '\x01' else '\x00');
      Buffer.add_char buf (if draining then '\x01' else '\x00');
      Value.add_varint buf active;
      Value.add_varint buf queued_ops;
      Value.add_varint buf batches;
      Value.add_varint buf ops;
      Value.add_varint buf dedup_hits;
      Value.add_varint buf wal_failures;
      Value.add_varint buf shed;
      Value.add_varint buf reaped
  | Overloaded_resp { retry_after_ms; message } ->
      Buffer.add_char buf '\x8b';
      Value.add_varint buf retry_after_ms;
      Value.add_string buf message
  | Shard_stats_resp shards ->
      Buffer.add_char buf '\x8c';
      Value.add_varint buf (List.length shards);
      List.iter
        (fun s ->
          Value.add_varint buf s.ss_batches;
          Value.add_varint buf s.ss_ops;
          Value.add_varint buf s.ss_queued;
          Value.add_varint buf s.ss_root_recomputes;
          Value.add_varint buf s.ss_root_hits;
          Value.add_varint buf s.ss_proofs_served;
          Value.add_varint buf s.ss_proof_cache_hits;
          Value.add_varint buf s.ss_proof_cache_misses;
          Value.add_varint buf s.ss_proof_bytes)
        shards
  | Lineage_resp { poly; depth; oids } ->
      Buffer.add_char buf '\x8d';
      Value.add_string buf poly;
      Value.add_varint buf depth;
      Value.add_varint buf (List.length oids);
      List.iter (add_oid buf) oids
  | Annotated_resp { arows; avalue; annot } ->
      Buffer.add_char buf '\x8e';
      Value.add_varint buf (List.length arows);
      List.iter
        (fun (v, cells, poly) ->
          Value.add_varint buf v;
          add_cells buf cells;
          Value.add_string buf poly)
        arows;
      (match avalue with
      | None -> Buffer.add_char buf '\x00'
      | Some v ->
          Buffer.add_char buf '\x01';
          Value.encode buf v);
      Value.add_string buf annot
  | Proof_resp { shard; shard_roots; items } ->
      Buffer.add_char buf '\x8f';
      Value.add_varint buf shard;
      Value.add_varint buf (List.length shard_roots);
      List.iter (Value.add_string buf) shard_roots;
      Value.add_varint buf (List.length items);
      List.iter
        (fun (proof, records) ->
          Value.add_string buf proof;
          Value.add_varint buf (List.length records);
          List.iter (Record.encode buf) records)
        items
  | Audit_sample_resp { report; sampled; population } ->
      Buffer.add_char buf '\x90';
      add_report buf report;
      Value.add_varint buf sampled;
      Value.add_varint buf population
  | Error_resp { code; message } ->
      Buffer.add_char buf '\xff';
      Value.add_varint buf (error_code_tag code);
      Value.add_string buf message

let decode_response s off =
  if off >= String.length s then failwith "Message: empty response";
  match s.[off] with
  | '\x81' ->
      let nonce, off = Value.read_string s (off + 1) in
      (Challenge { nonce }, off)
  | '\x82' ->
      let server, off = Value.read_string s (off + 1) in
      (Auth_ok { server }, off)
  | '\x83' ->
      let row, off =
        if off + 1 >= String.length s then failwith "Message: truncated"
        else
          match s.[off + 1] with
          | '\x00' -> (None, off + 2)
          | '\x01' ->
              let r, o = Value.read_varint s (off + 2) in
              (Some r, o)
          | _ -> failwith "Message: bad option tag"
      in
      let oid, off = read_oid_opt s off in
      let records, off = Value.read_varint s off in
      (Submitted { row; oid; records }, off)
  | '\x84' ->
      let n, off = read_count s (off + 1) in
      let off = ref off in
      let records =
        List.init n (fun _ ->
            let r, o = Record.decode s !off in
            off := o;
            r)
      in
      (Records records, !off)
  | '\x85' ->
      let report, off = read_report s (off + 1) in
      if off >= String.length s then failwith "Message: truncated"
      else
        let store_audit, off =
          match s.[off] with
          | '\x00' -> (None, off + 1)
          | '\x01' ->
              let a, o = read_report s (off + 1) in
              (Some a, o)
          | _ -> failwith "Message: bad option tag"
        in
        (Verified { report; store_audit }, off)
  | '\x86' ->
      let report, off = read_report s (off + 1) in
      let examined, off = Value.read_varint s off in
      let objects, off = Value.read_varint s off in
      (Audited { report; examined; objects }, off)
  | '\x87' ->
      let generation, off = Value.read_varint s (off + 1) in
      let lsn1, off = Value.read_varint s off in
      (Checkpointed { generation; lsn = lsn1 - 1 }, off)
  | '\x88' ->
      let hash, off = Value.read_string s (off + 1) in
      (Root { hash }, off)
  | '\x89' ->
      let batches, off = Value.read_varint s (off + 1) in
      let ops, off = Value.read_varint s off in
      let sign_wall_us, off = Value.read_varint s off in
      let sign_cpu_us, off = Value.read_varint s off in
      (Stats_resp { batches; ops; sign_wall_us; sign_cpu_us }, off)
  | '\x8a' ->
      let flag off =
        if off >= String.length s then failwith "Message: truncated flag"
        else
          match s.[off] with
          | '\x00' -> false
          | '\x01' -> true
          | _ -> failwith "Message: bad flag byte"
      in
      let ready = flag (off + 1) in
      let draining = flag (off + 2) in
      let active, off = Value.read_varint s (off + 3) in
      let queued_ops, off = Value.read_varint s off in
      let batches, off = Value.read_varint s off in
      let ops, off = Value.read_varint s off in
      let dedup_hits, off = Value.read_varint s off in
      let wal_failures, off = Value.read_varint s off in
      let shed, off = Value.read_varint s off in
      (* [reaped] was appended in v7 with no version negotiation in
         Hello; a v6 server's Pong ends here.  Decode it as optional
         (default 0 on an exhausted payload) so a v7 client keeps
         interoperating with a v6 server instead of failing the whole
         Ping on a truncated varint. *)
      let reaped, off =
        if off >= String.length s then (0, off) else Value.read_varint s off
      in
      ( Pong
          {
            ready;
            draining;
            active;
            queued_ops;
            batches;
            ops;
            dedup_hits;
            wal_failures;
            shed;
            reaped;
          },
        off )
  | '\x8b' ->
      let retry_after_ms, off = Value.read_varint s (off + 1) in
      let message, off = Value.read_string s off in
      (Overloaded_resp { retry_after_ms; message }, off)
  | '\x8c' ->
      let n, off = read_count s (off + 1) in
      let off = ref off in
      let shards =
        List.init n (fun _ ->
            let ss_batches, o = Value.read_varint s !off in
            let ss_ops, o = Value.read_varint s o in
            let ss_queued, o = Value.read_varint s o in
            let ss_root_recomputes, o = Value.read_varint s o in
            let ss_root_hits, o = Value.read_varint s o in
            let ss_proofs_served, o = Value.read_varint s o in
            let ss_proof_cache_hits, o = Value.read_varint s o in
            let ss_proof_cache_misses, o = Value.read_varint s o in
            let ss_proof_bytes, o = Value.read_varint s o in
            off := o;
            {
              ss_batches;
              ss_ops;
              ss_queued;
              ss_root_recomputes;
              ss_root_hits;
              ss_proofs_served;
              ss_proof_cache_hits;
              ss_proof_cache_misses;
              ss_proof_bytes;
            })
      in
      (Shard_stats_resp shards, !off)
  | '\x8d' ->
      let poly, off = Value.read_string s (off + 1) in
      let depth, off = Value.read_varint s off in
      let n, off = read_count s off in
      let off = ref off in
      let oids =
        List.init n (fun _ ->
            let oid, o = read_oid s !off in
            off := o;
            oid)
      in
      (Lineage_resp { poly; depth; oids }, !off)
  | '\x8e' ->
      let n, off = read_count s (off + 1) in
      let off = ref off in
      let arows =
        List.init n (fun _ ->
            let v, o = Value.read_varint s !off in
            let cells, o = read_cells s o in
            let poly, o = Value.read_string s o in
            off := o;
            (v, cells, poly))
      in
      let avalue =
        if !off >= String.length s then failwith "Message: truncated"
        else
          match s.[!off] with
          | '\x00' ->
              incr off;
              None
          | '\x01' ->
              let v, o = Value.decode s (!off + 1) in
              off := o;
              Some v
          | _ -> failwith "Message: bad option tag"
      in
      let annot, o = Value.read_string s !off in
      (Annotated_resp { arows; avalue; annot }, o)
  | '\x8f' ->
      let shard, off = Value.read_varint s (off + 1) in
      let nroots, off = read_count s off in
      let off = ref off in
      let shard_roots =
        List.init nroots (fun _ ->
            let r, o = Value.read_string s !off in
            off := o;
            r)
      in
      let nitems, o = read_count s !off in
      let off = ref o in
      let items =
        List.init nitems (fun _ ->
            let proof, o = Value.read_string s !off in
            let nrec, o = read_count s o in
            let o = ref o in
            let records =
              List.init nrec (fun _ ->
                  let r, o' = Record.decode s !o in
                  o := o';
                  r)
            in
            off := !o;
            (proof, records))
      in
      (Proof_resp { shard; shard_roots; items }, !off)
  | '\x90' ->
      let report, off = read_report s (off + 1) in
      let sampled, off = Value.read_varint s off in
      let population, off = Value.read_varint s off in
      (Audit_sample_resp { report; sampled; population }, off)
  | '\xff' ->
      let tag, off = Value.read_varint s (off + 1) in
      let message, off = Value.read_string s off in
      (Error_resp { code = error_code_of_tag tag; message }, off)
  | c -> failwith (Printf.sprintf "Message: bad response tag %#x" (Char.code c))

let response_to_string r =
  let buf = Buffer.create 256 in
  encode_response buf r;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Correlation ids (sealed-channel framing v2)                         *)
(* ------------------------------------------------------------------ *)

(* Once a session is established, every sealed message in either
   direction is [varint cid · encoded message]: the server echoes a
   request's cid in its response, so a connection may keep several
   requests in flight and still match responses robustly.  The cid
   travels inside the sealed payload — the MAC covers it — and the
   clear handshake frames are unchanged.  Cid 0 is reserved for
   connection-level failures the server emits outside any particular
   request (e.g. a MAC rejection that kills the session); clients
   allocate cids from 1. *)

let conn_cid = 0

let with_cid cid s =
  if cid < 0 then invalid_arg "Message.with_cid: negative cid";
  let buf = Buffer.create (String.length s + 5) in
  Value.add_varint buf cid;
  Buffer.add_string buf s;
  Buffer.contents buf

let read_cid s =
  match Value.read_varint s 0 with
  | cid, off when cid >= 0 -> Some (cid, off)
  | _ -> None
  | exception (Failure _ | Invalid_argument _) -> None
