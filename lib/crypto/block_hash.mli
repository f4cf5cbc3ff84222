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
(** On the SHA-extension kernel when {!sha_ni}, else on the portable
    one: chosen once, when the module is initialised. *)

val md5 : spec

val sha_ni : bool
(** Whether this CPU has the x86 SHA extensions (and SSSE3 and
    SSE4.1), so that {!sha256} runs on them.  Always [false] off x86. *)

val compress : spec -> Bytes.t -> Bytes.t -> int -> unit
(** [compress spec state src off] compresses the 64 bytes of [src]
    from [off] into [state], the spec's chaining words in native byte
    order.  The caller guarantees [off + 64 <= Bytes.length src] and a
    [state] of the spec's digest size: the kernel does not check. *)

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

val update_bytes : ctx -> Bytes.t -> int -> int -> unit
(** {!update_sub} on a [Bytes.t]; the context keeps no reference to it. *)

val blit : src:ctx -> dst:ctx -> unit
(** Put [dst] in the state of [src], without allocating: the
    allocation-free {!copy}, for a midstate extended over and over.
    @raise Invalid_argument if the two contexts are of different specs. *)

val final : ctx -> string
(** Pad, finalise and return the digest.  The context must not be
    updated afterwards (it may be {!reset} or {!blit} into). *)

val final_into : ctx -> Bytes.t -> int -> unit
(** [final_into ctx dst off] is {!final} writing the digest into [dst]
    from [off], without allocating. *)

val digest : spec -> string -> string
(** One-shot digest, on a fresh context. *)

val to_hex : string -> string
(** Lowercase hexadecimal of an arbitrary byte string. *)
