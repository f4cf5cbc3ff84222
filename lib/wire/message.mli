(** Request/response codecs for the provenance service.  Every
    decoder raises [Failure]/[Invalid_argument] on malformed input;
    the [_exact] forms turn that, and trailing bytes, into [Error]. *)

open Tep_store
open Tep_tree
open Tep_core

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
  (* -- v3 additions.  Every write carries [rid], a client-generated
     request id: the server keeps a bounded dedup table of completed
     writes, so a retried submit or checkpoint (same rid, e.g. after a
     dropped connection) returns the original cached result instead of
     executing twice.  The rid-less v1 write tags (0x03 Submit, 0x07
     Checkpoint) are retired and decode as malformed, as is 0x09, the
     Stats request, whose counters Shard_stats now carries. *)
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

(* One shard's counters: its group-commit batcher and its proof path.
   The four cache fields are retired and always 0: the server keeps no
   root cache and no proof cache.  They stay on the wire only until a
   name→value Metrics RPC replaces Shard_stats. *)
type shard_stat = {
  ss_batches : int;
  ss_ops : int;
  ss_sign_wall_us : int; (* wall-clock µs inside this shard's commit signing *)
  ss_sign_cpu_us : int; (* cumulative per-signature µs across domains *)
  ss_queued : int; (* submit ops sitting in this shard's batcher queue *)
  ss_root_recomputes : int; (* retired: 0 *)
  ss_root_hits : int; (* retired: 0 *)
  ss_proofs_served : int; (* membership proofs built *)
  ss_proof_cache_hits : int; (* retired: 0 *)
  ss_proof_cache_misses : int; (* retired: 0 *)
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
      reaped : int; (* connections closed by the idle reaper *)
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

(** {1 Reports} *)

val report_of_verifier : Verifier.report -> report
val report_ok : report -> bool

val render_report : report -> string
(** {!Verifier.render} on the flattened report, so byte-identical to
    [Format.asprintf "%a" Verifier.pp_report] on the report this was
    built from. *)

val error_code_name : error_code -> string
val lineage_kind_of_name : string -> lineage_kind option

(** {1 Codecs} *)

val encode_op : Buffer.t -> op -> unit
val decode_op : string -> int -> op * int
val request_to_string : request -> string

val decode_request : string -> int -> request * int
(** The request at the offset, and the offset just past it. *)

val response_to_string : response -> string
val decode_response : string -> int -> response * int

val decode_request_exact : string -> int -> (request, string) result
(** The request filling the payload from the offset to its end. *)

val decode_response_exact : string -> int -> (response, string) result

(** {1 Correlation ids}

    On an established session every sealed message is
    [varint cid · encoded message]; the server echoes a request's cid
    in its response.  Cid {!conn_cid} carries connection-level
    failures; clients allocate cids from 1. *)

val conn_cid : int
val with_cid : int -> string -> string

val read_cid : string -> (int * int) option
(** The cid and the offset of the message after it. *)
