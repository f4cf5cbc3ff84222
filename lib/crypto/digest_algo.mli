(** Uniform interface over the hash algorithms, so the provenance
    layer can be parameterised by digest (SHA-1 is the paper's
    default; SHA-256 is the recommended modern choice; MD5 is the
    paper's alternative, kept for the digest ablation). *)

type algo = MD5 | SHA1 | SHA256

val all : algo list
val name : algo -> string
val of_name : string -> algo option
(** Case-insensitive; accepts ["md5"], ["sha1"]/["sha"], ["sha256"]. *)

val size : algo -> int
(** Digest size in bytes: 16 / 20 / 32. *)

val digest : algo -> string -> string
val hex : algo -> string -> string

val to_hex : string -> string
(** Lowercase hex of an arbitrary byte string. *)

val of_hex : string -> string
(** Inverse of {!to_hex}. @raise Invalid_argument on bad input. *)

(** Incremental hashing, dispatching on the algorithm. *)
type ctx

val init : algo -> ctx

val reset : ctx -> unit
(** Return a context to its initial state for reuse. *)

val copy : ctx -> ctx
(** An independent context in the same state. *)

val update : ctx -> string -> unit
val update_sub : ctx -> string -> int -> int -> unit
val final : ctx -> string
