(** Minimal public-key infrastructure.

    The paper assumes "a suitable public-key infrastructure, and that
    each participant is authenticated by a certificate authority".
    This module provides exactly that: a CA that issues certificates
    binding participant names to RSA public keys, and recipient-side
    chain validation. *)

type certificate = {
  subject : string;  (** participant name *)
  subject_key : Rsa.public_key;
  issuer : string;  (** CA name *)
  serial : int;
  signature : string;  (** CA signature over the TBS encoding *)
}

type ca
(** A certificate authority (name + keypair + serial counter). *)

val create_ca : ?bits:int -> name:string -> Drbg.t -> ca
val ca_public_key : ca -> Rsa.public_key

val issue : ca -> subject:string -> Rsa.public_key -> certificate
(** Sign a certificate for [subject]'s key.  Serial numbers increase
    monotonically per CA. *)

val verify_certificate : ca_key:Rsa.public_key -> certificate -> bool
(** Check the CA signature over the to-be-signed encoding. *)

val certificate_to_string : certificate -> string
val certificate_of_string : string -> certificate option

val ca_to_string : ca -> string
(** Serialise a CA (including its private key and serial counter) for
    persistence.  Protect the result like any private key. *)

val ca_of_string : string -> ca option
