(** RSA key generation and PKCS#1 v1.5 signatures.

    The paper signs provenance checksums with 1024-bit RSA producing
    128-byte signatures; that is the default here.  Signing uses the
    Chinese-Remainder-Theorem optimisation with precomputed Montgomery
    contexts, and checks every result against the public exponent
    before {!raw_sign} returns it.  A public key carries its modulus's
    Montgomery context, built once by the constructor that made the
    key, so verification shares no state between calls or domains. *)

type public_key = private {
  n : Tep_bignum.Nat.t;  (** modulus *)
  e : Tep_bignum.Nat.t;  (** public exponent *)
  mont : Tep_bignum.Zmod.Montgomery.ctx option;
      (** the context of [n]; [None] for an even modulus or one [<= 1],
          which {!raw_public} reduces by division instead *)
}
(** Built only by {!generate}, {!public_of_private} and
    {!public_of_string}: being [private], no record update can pair a
    modulus with another modulus's context. *)

type private_key
(** Holds the CRT components (p, q, dP, dQ, qInv) plus (n, d). *)

type keypair = { public : public_key; private_ : private_key }

val default_bits : int
(** 1024, as in the paper. *)

val generate : ?bits:int -> ?e:int -> Drbg.t -> keypair
(** Generate a fresh keypair.  [bits] is the modulus size (default
    1024); [e] the public exponent (default 65537).
    @raise Invalid_argument if [bits < 128] or [e] is even. *)

val public_of_private : private_key -> public_key
(** Reuses the private key's context of its modulus. *)

val key_bytes : public_key -> int
(** Modulus length in bytes (the signature length): 128 for 1024-bit
    keys. *)

(** {1 Signatures (EMSA-PKCS1-v1_5)} *)

val sign : ?algo:Digest_algo.algo -> private_key -> string -> string
(** [sign key msg] hashes [msg] (default {!Digest_algo.SHA1}), wraps
    the digest in a DER [DigestInfo], applies PKCS#1 v1.5 padding and
    exponentiates.  Returns a signature of exactly [key_bytes] bytes.
    @raise Failure if the result fails the fault check of {!raw_sign}
    (a damaged private key). *)

val verify :
  ?algo:Digest_algo.algo -> public_key -> msg:string -> signature:string -> bool
(** Full encode-then-compare verification (immune to padding-laxity
    forgeries). *)

(** {1 Encryption (RSAES-PKCS1-v1_5)} *)

val encrypt : Drbg.t -> public_key -> string -> string
(** [encrypt drbg pk msg] pads [msg] with nonzero random bytes drawn
    from [drbg] (PKCS#1 v1.5 type 2) and exponentiates.  Returns a
    ciphertext of exactly [key_bytes pk] bytes.
    @raise Invalid_argument if [msg] exceeds [key_bytes pk - 11]. *)

val decrypt : private_key -> string -> string option
(** Inverse of {!encrypt}: [None] on wrong-length ciphertext, a value
    outside the modulus, or bad padding.  Callers that decrypt
    network input must authenticate the ciphertext first (see the
    wire handshake) — the [None]/[Some] distinction is a padding
    oracle otherwise.
    @raise Failure as {!sign} does, on a damaged private key. *)

(** {1 Raw primitives (exposed for tests)} *)

val raw_sign : private_key -> Tep_bignum.Nat.t -> Tep_bignum.Nat.t
(** [raw_sign key m] is [m^d mod n] by CRT, under {!sign} and
    {!decrypt}.  Before it returns s it checks [s^e = m (mod n)]: a
    result wrong modulo one prime would reveal that prime to anyone
    who reads s.
    @raise Failure if the check fails. *)

val raw_public : public_key -> Tep_bignum.Nat.t -> Tep_bignum.Nat.t

val emsa_pkcs1_v1_5 : Digest_algo.algo -> int -> string -> string
(** [emsa_pkcs1_v1_5 algo len msg] is the padded encoding of
    [hash(msg)] at [len] bytes. @raise Invalid_argument if [len] is
    too small for the digest. *)

(** {1 Serialisation} *)

val public_to_string : public_key -> string
(** Compact textual encoding ["rsa-pub:<hex n>:<hex e>"]. *)

val public_of_string : string -> public_key option
(** Builds the modulus's context (one long division). *)

val private_to_string : private_key -> string
val private_of_string : string -> private_key option
(** [None] on a malformed encoding, a factor below 2, factors that are
    not coprime, or an even modulus. *)

val fingerprint : public_key -> string
(** SHA-256 of the serialised public key, hex, truncated to 16 chars.
    Used as a stable participant key identifier. *)
