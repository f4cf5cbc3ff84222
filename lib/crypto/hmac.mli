(** HMAC (RFC 2104) over any {!Digest_algo.algo}.  Used by the
    seeding of {!Drbg} (its draws run on their own C step) and by the
    sealed sessions. *)

val mac : algo:Digest_algo.algo -> key:string -> string -> string
(** [mac ~algo ~key msg] is the HMAC tag (same width as the digest). *)

type ctx
(** The digest midstates after the ipad and opad key blocks of one
    [(algo, key)] pair.  Immutable after {!context}: {!mac_with}
    copies them into its own state, so a single value may be shared
    by concurrent taggers. *)

val context : algo:Digest_algo.algo -> key:string -> ctx

val mac_with : ctx -> string -> string
(** Same tag as {!mac} with the context's algo and key, without
    re-hashing the padded key blocks — the per-frame path for sealed
    sessions. *)

val hex : algo:Digest_algo.algo -> key:string -> string -> string

val verify : algo:Digest_algo.algo -> key:string -> msg:string -> tag:string -> bool
(** Constant-time tag comparison. *)

val equal_constant_time : string -> string -> bool
(** Timing-safe string equality (length leak only). *)
