(** MD5 (RFC 1321), 16-byte digests.  Included because the paper lists
    MD5 as an alternative hash; retained for compatibility use only —
    prefer {!Sha256} for new deployments. *)

type ctx

val digest_size : int
(** 16 bytes. *)

val init : unit -> ctx

val reset : ctx -> unit
(** Return a context to its initial state for reuse. *)

val copy : ctx -> ctx
(** An independent context in the same state: the midstate of a
    common prefix, hashed once and then extended many times. *)

val update : ctx -> string -> unit
val update_sub : ctx -> string -> int -> int -> unit
val final : ctx -> string
val digest : string -> string
val hex : string -> string
