(** Data-recipient verification (Section 3, "Consider the data
    recipient who obtains object D and the provenance object P...").

    Given a delivered data object (a {!Tep_tree.Subtree.t} snapshot),
    its claimed provenance object (a record list), and the participant
    directory, [verify] re-runs the paper's two checks — latest-record
    output match, and bottom-up checksum recomputation — plus the
    structural chain/DAG validation that realises guarantees R1–R8.
    Every problem found is reported as a typed violation. *)

open Tep_tree

type violation =
  | No_provenance of Oid.t
      (** no record in P outputs the delivered object *)
  | Object_mismatch of { oid : Oid.t; expected : string; actual : string }
      (** delivered object hash ≠ latest record's output hash (R4/R5) *)
  | Bad_signature of { oid : Oid.t; seq : int; reason : string }
      (** stored checksum does not verify for the named participant
          (R1/R8) *)
  | Duplicate_seq of { oid : Oid.t; seq : int }
      (** two records claim the same position (R3) *)
  | Seq_gap of { oid : Oid.t; after_seq : int; found_seq : int }
      (** a hole in an object's chain (R2/R7) *)
  | First_record_invalid of { oid : Oid.t; reason : string }
      (** chains must start with insert / import / aggregate *)
  | Broken_link of { oid : Oid.t; seq : int; reason : string }
      (** prev-checksum or input-hash linkage failure (R1/R2/R3/R6) *)
  | Dangling_prev of { oid : Oid.t; seq : int; missing : string }
      (** a referenced predecessor record is absent from P (R2/R7) *)
  | Malformed of { oid : Oid.t; seq : int; reason : string }

type report = {
  violations : violation list;
  records_checked : int;
  objects_checked : int;
  signatures_checked : int;
}

val ok : report -> bool

val verify :
  ?pool:Tep_parallel.Pool.t ->
  algo:Tep_crypto.Digest_algo.algo ->
  directory:Participant.Directory.t ->
  data:Subtree.t ->
  Record.t list ->
  report
(** Full verification of delivered object [data] against provenance
    object [records].  [?pool] as in {!verify_records}. *)

val verify_records :
  ?pool:Tep_parallel.Pool.t ->
  algo:Tep_crypto.Digest_algo.algo ->
  directory:Participant.Directory.t ->
  Record.t list ->
  report
(** Structure + signature checks only (no delivered object) — e.g. for
    auditing a provenance store in place.

    With [?pool] the per-record RSA signature checks fan out across
    the pool's domains, from {!verify_serial_below} records up; the
    returned report (violations, order, counters) is byte-identical to
    the sequential run. *)

val verify_serial_below : int
(** Fewer records than this are checked on the caller even with a
    pool: an object's closure of one to three records costs less than
    a handoff to other domains. *)

val check_chain :
  lookup:(string -> Record.t option) -> Oid.t -> Record.t list -> violation list
(** The chain rules (R2, R3, R6, R7) over one object's records, sorted
    by seq: sequence numbers, the first record's kind, every
    prev-checksum and input-hash link, and each aggregate citation,
    resolved through [lookup] (checksum -> record).  Comparisons only,
    no signature checks.  {!verify_records} runs it on every object;
    {!Audit} runs it on each stored chain. *)

val concat : report list -> report
(** Counters summed, violations concatenated in order, in one pass. *)

val render :
  records:int -> objects:int -> signatures:int -> string list -> string
(** The report text, given the rendered violations: the one renderer
    behind {!pp_report} and the wire's [Message.render_report]. *)

val pp_report : Format.formatter -> report -> unit
val violation_to_string : violation -> string
