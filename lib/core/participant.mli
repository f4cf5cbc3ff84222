(** Participants — the users / processes / transactions that perform
    database operations and sign provenance checksums (Section 2).
    Each holds an RSA keypair and a CA-issued certificate. *)

type t

val create :
  ?bits:int -> ca:Tep_crypto.Pki.ca -> name:string -> Tep_crypto.Drbg.t -> t
(** Generate a keypair and obtain a certificate from [ca].
    @raise Invalid_argument on an empty name. *)

val name : t -> string
val public_key : t -> Tep_crypto.Rsa.public_key
val certificate : t -> Tep_crypto.Pki.certificate

val sign : t -> string -> string
(** Sign a checksum payload (PKCS#1 v1.5, SHA-256 over the payload). *)

val decrypt : t -> string -> string option
(** RSAES-PKCS1-v1_5 decryption with the participant's private key.
    Used by the service handshake: the client encrypts a session-key
    share to the certificate key, and only a holder of the matching
    private key (the daemon's workspace copy) can recover it. *)

val key_fingerprint : t -> string

val to_string : t -> string
(** Serialise a participant's credentials (name, private key,
    certificate).  Contains the private key — store securely. *)

val of_string : string -> t option

(** {1 Directory}

    A registry of certificates, shipped to data recipients alongside
    provenance objects so signatures can be checked offline. *)

module Directory : sig
  type participant = t
  type t

  val create : ca_key:Tep_crypto.Rsa.public_key -> t
  val ca_key : t -> Tep_crypto.Rsa.public_key

  val register : t -> participant -> unit
  val register_certificate : t -> Tep_crypto.Pki.certificate -> (unit, string) result
  (** Fails if the certificate does not verify against the CA key, or
      if the subject is already registered with a different key.  This
      is the only way into the directory, so every certificate in it
      has been checked against the CA exactly once, here. *)

  val lookup : t -> string -> Tep_crypto.Pki.certificate option
  (** The subject's certificate, already checked against the CA key.
      Reads only: safe from several domains at once, provided no
      registration runs concurrently. *)

  val names : t -> string list
end
