(** Per-connection authenticated sessions: a PKI challenge–response
    handshake with RSA key transport, then HMAC-SHA256 sealing of every
    frame under a per-direction sequence number (see session.ml for
    the protocol and its threat model). *)

val nonce_len : int

val key_share_len : int
(** Bytes of the transported session-key secret. *)

val tag_len : int
(** Bytes of the HMAC-SHA256 tag prefixed to every sealed message. *)

val transcript :
  name:string ->
  client_nonce:string ->
  server_nonce:string ->
  key_share:string ->
  string
(** The handshake transcript both sides sign and hash into the key. *)

val derive_key :
  transcript:string -> signature:string -> secret:string -> string

type direction = To_server | To_client

(** {1 Sealing with an explicit sequence number} *)

type keyed
(** A precomputed HMAC key schedule; one serves both directions. *)

val keyed : key:string -> keyed
val seal_keyed : keyed -> dir:direction -> seq:int -> string -> string

val open_keyed :
  keyed -> dir:direction -> seq:int -> string -> (string, string) result

val seal : key:string -> dir:direction -> seq:int -> string -> string
val open_ :
  key:string -> dir:direction -> seq:int -> string -> (string, string) result

(** {1 Sealed channel}

    One end of an established session, owning both sequence counters:
    the client's channel [~sends:To_server], the server's
    [~sends:To_client]. *)

type channel

val channel : key:string -> sends:direction -> channel

val seal_next : channel -> string -> string
(** Seal under the next send sequence number. *)

val open_next : channel -> string -> (string, string) result
(** Open under the next receive sequence number; only a successful
    open advances it. *)
