(** Client for the provenance service, over a Unix-domain socket, TCP
    or an in-process loopback into a {!Tep_server.Server}.  Framing,
    the handshake, session sealing and the codecs are the same on
    every transport.

    Two calling styles share one connection: the blocking wrappers
    ([insert], [verify], ...) and the pipelined {!request_async} /
    {!collect} pair, several requests in flight under distinct
    correlation ids.  A client that dialed its endpoint redials,
    re-authenticates and replays its in-flight requests when the
    connection dies; writes carry request ids, so a replay is never
    applied twice.  Failures come back as [Error msg], never
    exceptions. *)

type t

(** {1 Connecting} *)

val loopback :
  ?max_payload:int ->
  ?drbg:Tep_crypto.Drbg.t ->
  ?max_replays:int ->
  Tep_server.Server.t ->
  t
(** Feeds the server's connection state machine directly; reconnecting
    opens a fresh server-side connection. *)

val connect_unix :
  ?max_payload:int ->
  ?drbg:Tep_crypto.Drbg.t ->
  ?retries:int ->
  ?backoff:float ->
  ?max_replays:int ->
  string ->
  (t, string) result
(** Dial a socket path, retrying with jittered exponential backoff
    ({!retry_delays}). *)

val connect_tcp :
  ?max_payload:int ->
  ?drbg:Tep_crypto.Drbg.t ->
  ?retries:int ->
  ?backoff:float ->
  ?max_replays:int ->
  host:string ->
  port:int ->
  unit ->
  (t, string) result

val retry_delays :
  ?drbg:Tep_crypto.Drbg.t ->
  ?retries:int ->
  ?backoff:float ->
  unit ->
  float list
(** The connect backoff schedule: attempt [i] sleeps
    [backoff * 2^i * (0.5 + u)], [u] drawn from the DRBG (0.5 without
    one). *)

val authenticate : t -> Tep_core.Participant.t -> (unit, string) result
val authenticated : t -> bool
val close : t -> unit

(** {1 Circuit breaker}

    Consecutive failed or shed writes open the breaker; while open,
    writes fail fast locally.  After the cooldown one probe write is
    let through. *)

val set_breaker :
  ?threshold:int -> ?cooldown:float -> ?now:(unit -> float) -> t -> unit

val breaker_state : t -> [ `Closed | `Open | `Half_open ]

(** {1 Pipelining} *)

val request_async : t -> Tep_wire.Message.request -> (int, string) result
(** Seal and send; the result is the request's correlation id. *)

val collect : t -> int -> (Tep_wire.Message.response, string) result
(** Block for that correlation id's response. *)

val submit_async : t -> Tep_wire.Message.op -> (int, string) result
(** Send one write under a fresh request id. *)

val insert_async :
  t -> table:string -> Tep_store.Value.t array -> (int, string) result

val collect_submitted :
  t -> int -> (int option * Tep_tree.Oid.t option * int, string) result
(** {!collect} a write: (row, oid, records emitted). *)

(** {1 Writes} *)

val insert :
  t -> table:string -> Tep_store.Value.t array -> (int * int, string) result
(** (fresh row id, records emitted). *)

val update :
  t ->
  table:string ->
  row:int ->
  col:int ->
  Tep_store.Value.t ->
  (int, string) result

val delete : t -> table:string -> row:int -> (int, string) result

val aggregate :
  t ->
  ?value:Tep_store.Value.t ->
  Tep_tree.Oid.t list ->
  (Tep_tree.Oid.t * int, string) result

val submit_idem :
  t ->
  rid:string ->
  Tep_wire.Message.op ->
  (int option * Tep_tree.Oid.t option * int, string) result
(** A write under a caller-owned request id: re-issuing it with the
    same rid returns the original outcome. *)

val checkpoint : t -> (int * int, string) result
(** (generation, lsn). *)

(** {1 Reads} *)

val query :
  t -> ?oid:Tep_tree.Oid.t -> unit -> (Tep_core.Record.t list, string) result

val verify :
  t ->
  ?oid:Tep_tree.Oid.t ->
  unit ->
  (Tep_wire.Message.report * Tep_wire.Message.report option, string) result
(** The object's (default: the root's) report, and for the root the
    whole-store audit. *)

val audit : t -> (Tep_wire.Message.report * int * int, string) result
(** (report, records examined, objects). *)

val root_hash : t -> (string, string) result

val shard_stats : t -> (Tep_wire.Message.shard_stat list, string) result
(** Per-shard counters, in shard order. *)

type health = {
  ready : bool;  (** accepting writes (not draining) *)
  draining : bool;
  active : int;  (** concurrent socket connections *)
  queued_ops : int;  (** ops waiting in the group-commit queues *)
  h_batches : int;
  h_ops : int;
  dedup_hits : int;  (** retried writes answered without re-executing *)
  wal_failures : int;  (** group commits voided by WAL errors *)
  shed : int;  (** ops refused by admission control *)
  h_reaped : int;  (** connections closed by the idle reaper *)
}

val ping : t -> (health, string) result
(** Answers even while a slow commit is in flight. *)

type lineage = {
  l_poly : Tep_prov.Polynomial.t option;
  l_depth : int;
  l_oids : Tep_tree.Oid.t list;
}

val lineage :
  t ->
  kind:Tep_wire.Message.lineage_kind ->
  oid:Tep_tree.Oid.t ->
  (lineage, string) result

type annotated_row = {
  ar_var : int;  (** the row variable *)
  ar_cells : Tep_store.Value.t array;
  ar_poly : Tep_prov.Polynomial.t;
}

val annotated_query :
  t ->
  table:string ->
  ?where:string ->
  ?agg:string ->
  unit ->
  ( annotated_row list * Tep_store.Value.t option * Tep_prov.Annot.t,
    string )
  result
(** The annotation is decoded, not verified ({!Tep_prov.Annot.verify}). *)

(** {1 Membership proofs and sampled audit} *)

type proof_item = {
  pf_proof : Tep_tree.Proof.t;
  pf_encoded : string;  (** the exact bytes it arrived as *)
  pf_records : Tep_core.Record.t list;  (** the leaf's provenance *)
}

type proofs = {
  pf_shard : int;  (** owning shard, as claimed by the server *)
  pf_shard_roots : string list;  (** per-shard roots, shard order *)
  pf_items : proof_item list;
}

val prove :
  t -> table:string -> row:int -> ?col:int -> unit -> (proofs, string) result
(** Proofs for one cell, or every cell of a row; decoded, not
    verified. *)

val check_proofs :
  algo:Tep_crypto.Digest_algo.algo ->
  directory:Tep_core.Participant.Directory.t ->
  trusted_root:string ->
  proofs ->
  (Tep_core.Verifier.report, string) result
(** Recheck a proof answer against the one root the caller trusts: the
    shard roots must recombine into it, each proof must chain its leaf
    to the owning shard's root, and each leaf's records must pass
    recipient-side verification.  [Error] is a broken or forged proof;
    an [Ok] report may still carry violations. *)

val audit_sample :
  t ->
  seed:string ->
  alpha_ppm:int ->
  (Tep_wire.Message.report * int * int, string) result
(** A seed-reproducible server-side audit of an α-fraction (parts per
    million) of live objects: (report, sampled, population). *)
