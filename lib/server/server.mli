(** provdbd, the networked provenance service: shards, connections and
    the serve loops.  The protocol itself is {!Conn}; reads are
    {!Read}, writes {!Write}.

    Fault sites: ["wire.server.read"] (every byte a connection reads),
    ["server.dispatch.verify"] (every Verify dispatch) and
    ["server.cross.committed"] (right after a cross-shard commit
    releases its write locks). *)

type t

type conn
(** One connection's protocol state machine. *)

val create :
  ?max_payload:int ->
  ?request_timeout:float ->
  ?max_connections:int ->
  ?max_queue_ops:int ->
  ?retry_after_ms:int ->
  ?drbg:Tep_crypto.Drbg.t ->
  ?pool:Tep_parallel.Pool.t ->
  ?coord:Tep_store.Wal.t ->
  ?io_workers:int ->
  ?idle_timeout:float ->
  participants:(string * Tep_core.Participant.t) list ->
  (Tep_core.Engine.t * (string * Tep_store.Wal.t) option) list ->
  t
(** A service over the given shards, in shard order: each an engine
    and, when the service owns its durability, its checkpoint
    directory and WAL.  [coord] is the two-phase-commit decision log,
    required for writes that span shards.
    @raise Invalid_argument on an empty shard list. *)

val conn : t -> conn
(** A fresh connection, expecting the client's Hello. *)

val feed : conn -> string -> string
(** Bytes in, response bytes out; [""] once the connection is dead. *)

val submit_ops :
  t ->
  Tep_core.Participant.t ->
  Tep_wire.Message.op array ->
  Tep_wire.Message.response array
(** Commit ops as the participant, bypassing the wire: one response
    per op. *)

val fenced : t -> string list
(** One message per fenced shard (it names [provdb recover]): a commit
    failed there after changing the engine, which must then not be
    saved. *)

val set_admission :
  ?max_queue_ops:int ->
  ?retry_after_ms:int ->
  t ->
  unit
(** Reconfigure admission control on a live server. *)

val begin_drain : t -> unit
(** Refuse all new writes from now on. *)

val quiesce : ?timeout:float -> t -> bool
(** Wait (default 10 s) until no batch and no cross-shard commit is in
    flight; [false] on timeout. *)

val wake : t -> unit
(** Nudge every running serve loop to re-check its stop flag. *)

val serve_unix : t -> path:string -> stop:bool Atomic.t -> unit
val serve_tcp : t -> port:int -> stop:bool Atomic.t -> unit
(** Bind and serve until [stop] is set (then {!wake}). *)

val active_connections : t -> int
val reaped_connections : t -> int
(** Connections reaped past their request or idle deadline. *)
