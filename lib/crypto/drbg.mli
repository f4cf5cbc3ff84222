(** HMAC-DRBG (NIST SP 800-90A style) deterministic random bit
    generator, over HMAC-SHA256.

    All randomness in this repository flows through a DRBG so that key
    generation, workload generation and experiments are reproducible
    from a seed.  Seed from [/dev/urandom] via {!create_system} when
    real entropy is wanted. *)

type t
(** A DRBG owns its state and its scratch buffers (the key's HMAC
    midstates, V, the pad blocks), reused by every call so that
    {!uniform_int} allocates nothing.  It therefore has a single owner:
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
