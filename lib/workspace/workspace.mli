(** A provdb workspace on disk: loading it, saving it, and the write
    steps of the verbs that change it.  The provdb CLI, the provdbd
    daemon and the crash-state tests all run this code, and every file
    it writes goes through {!Tep_store.Durable}.  DESIGN.md §6 lists
    the layout and which files each step writes. *)

open Tep_store
open Tep_core

type shard_ws = { s_dir : string; s_engine : Engine.t; s_wal : Wal.t }

type t = {
  dir : string;
  ca : Tep_crypto.Pki.ca;
  directory : Participant.Directory.t;
  participants : (string * Participant.t) list;
  shards : shard_ws array;
  coord : Wal.t option;  (** [Some] iff there is more than one shard *)
}

val ( // ) : string -> string -> string

val write : string -> string -> (unit, string) result
(** {!Tep_store.Durable.replace} through the [workspace.save]
    failpoints. *)

val ckpt_dir : string -> string
val socket_path : string -> string
val annot_path : string -> string
val pool : unit -> Tep_parallel.Pool.t
val shard_label : shards:int -> int -> string
val published_root : t -> string

val load_identity :
  string ->
  (Tep_crypto.Pki.ca * Participant.Directory.t * (string * Participant.t) list,
   string)
  result

val load : string -> (t, string) result
(** Refuses a shard whose WAL holds frames or whose newest checkpoint
    generation records another root than its flat files: those need
    {!recover}. *)

val durable : t -> (string * Wal.t * Engine.t) list
(** The {!Tep_core.Shards.checkpoint_all} view. *)

val save : t -> (unit, string) result
(** Sync the WALs, rewrite the flat files, checkpoint every shard.
    Writes neither the CA nor the participants. *)

val init : string -> ca:Tep_crypto.Pki.ca -> Database.t array -> (t, string) result
(** The write steps of [provdb init], one database per shard.  The CA
    is written last; a directory without it, whatever a crashed init
    left there, is initialised afresh. *)

val add_participant : t -> Participant.t -> (unit, string) result
(** The write steps of [provdb participant]: the CA (whose serial the
    participant's certificate used), then the credential. *)

val recover : string -> (Recovery.report list, string) result
(** Rebuild every shard from its newest valid generation plus its WAL
    tail, then {!save}; one report per shard. *)

val audit : t -> ((Verifier.report * int * int) list, string) result
(** An incremental audit of every shard, moving its [audit.ckpt]
    forward: per shard, the report, the records examined and the
    objects the checkpoint now covers. *)

val prune : t -> (int * int, string) result
(** Drop the records of objects no longer in any tree, then {!save};
    the record counts before and after. *)

val save_annotation : t -> Tep_prov.Annot.t -> (int, string) result
(** Append a signed annotation to [annot.dat]; how many it now holds. *)
