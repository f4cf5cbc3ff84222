(** The Merkle–Damgård construction under {!Sha1}, {!Sha256} and
    {!Md5}: buffering, padding and finalisation, shared by the three
    algorithms, over one C block compression each ([compress.c], see
    DESIGN.md §9.6).  All three use 64-byte blocks and an 8-byte
    message length in the last block. *)

type spec
(** One algorithm: its compression, initial state, word order and
    digest size. *)

val sha1 : spec
val sha256 : spec
val md5 : spec

type ctx

val init : spec -> ctx

val reset : ctx -> unit
(** Return a context to its initial state for reuse. *)

val copy : ctx -> ctx
(** An independent context in the same state: it shares no buffer with
    its source. *)

val update : ctx -> string -> unit

val update_sub : ctx -> string -> int -> int -> unit
(** [update_sub ctx s off len] feeds [len] bytes of [s] from [off].
    @raise Invalid_argument if the window is not inside [s]. *)

val final : ctx -> string
(** Pad, finalise and return the digest.  The context must not be
    updated afterwards. *)

val digest : spec -> string -> string
(** One-shot digest, on a fresh context. *)

val to_hex : string -> string
(** Lowercase hexadecimal of an arbitrary byte string. *)
