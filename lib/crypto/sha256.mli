(** SHA-256 (FIPS 180-2), 32-byte digests.  Offered alongside
    SHA-1 so deployments can choose a collision-resistant hash; the
    provenance layer is parametric in the digest algorithm. *)

type ctx

val digest_size : int
(** 32 bytes. *)

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
