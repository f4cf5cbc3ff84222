(** SHA-1 (FIPS 180-1), the paper's hash function ("SHA", 20-byte
    digests).  Incremental and one-shot interfaces. *)

type ctx

val digest_size : int
(** 20 bytes. *)

val init : unit -> ctx

val reset : ctx -> unit
(** Return a context to its initial state so it can be reused for a
    fresh digest without reallocating its buffers. *)

val copy : ctx -> ctx
(** An independent context in the same state: the midstate of a
    common prefix, hashed once and then extended many times. *)

val update : ctx -> string -> unit
val update_sub : ctx -> string -> int -> int -> unit
(** [update_sub ctx s off len] feeds [len] bytes of [s] from [off]. *)

val final : ctx -> string
(** Finalise and return the 20-byte digest.  The context must not be
    used afterwards. *)

val digest : string -> string
(** One-shot hash. *)

val hex : string -> string
(** One-shot hash, lowercase hexadecimal. *)
