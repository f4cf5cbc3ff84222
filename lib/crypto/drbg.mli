(** HMAC-DRBG (NIST SP 800-90A style) deterministic random bit
    generator, over HMAC-SHA256.

    All randomness in this repository flows through a DRBG so that key
    generation, workload generation and experiments are reproducible
    from a seed.  Seed from [/dev/urandom] via {!create_system} when
    real entropy is wanted. *)

type t
(** A DRBG owns its state, one buffer (the key's HMAC midstates, the
    key, V), rewritten in place by every call so that {!uniform_int}
    allocates nothing.  It therefore has a single owner:
    two threads or domains must not call it at once.  A shared one is
    used under a lock, as the daemon's handshake DRBG is under
    [drbg_lock] in [State.gen_nonce]. *)

val create : seed:string -> t
(** Instantiate from arbitrary seed material. *)

val create_system : unit -> t
(** Seed from [/dev/urandom] (falls back to PID/time mixing if the
    device is unavailable). *)

val reseed : t -> string -> unit
(** Mix additional entropy into the state. *)

val generate : t -> int -> string
(** [generate t n] returns [n] pseudo-random bytes. *)

val byte_source : t -> Tep_bignum.Prime.byte_source
(** Adapter for the bignum layer. *)

val uniform_int : t -> int -> int
(** [uniform_int t bound] draws uniformly from [[0, bound)] without
    modulo bias, from the first 8 bytes of a [generate t 8] (rejection
    sampling may draw again).  Allocates nothing.
    @raise Invalid_argument if [bound <= 0]. *)

(** {1 The draw step}

    The one C function every HMAC of {!generate} and {!uniform_int}
    runs as, exposed so that a test can hold it against a reference
    HMAC on either SHA-256 kernel. *)

val state_bytes : int
(** 128: a DRBG's state is the key's inner midstate (bytes 0–31, the
    SHA-256 state after the key block xor ipad, eight native-endian
    32-bit words), its outer midstate (32–63, after xor opad), the key
    K (64–95) and V (96–127). *)

val step : Bytes.t -> int -> sha_ni:bool -> unit
(** [step state op ~sha_ni], on a [state] of {!state_bytes} bytes:
    - [op = -1]: V = HMAC-SHA256(K, V), two compressions;
    - [0 <= op <= 255]: K = HMAC-SHA256(K, V || the byte [op]), then
      the key schedule, four compressions;
    - [op = -2]: the key schedule alone, which rebuilds both midstates
      from K.
    The HMACs run from the midstates, not from K.  [sha_ni] picks the
    SHA-extension kernel, and must only be [true] where
    {!Block_hash.sha_ni} is; the DRBG passes [Block_hash.sha_ni].
    Allocates nothing; the caller guarantees the buffer's size. *)
