(** Versioned, length-prefixed binary framing for the provenance
    service:

    {v frame := magic "TW1" (3B) · kind (1B) · len (4B BE)
             · payload (len B) · crc32 (4B BE) v}

    The CRC covers header · payload.  A corrupt frame poisons the
    connection: there is no re-synchronisation scan. *)

val default_max_payload : int
(** 16 MiB: anything larger is a corrupt length or an abusive peer. *)

type kind =
  | Clear  (** handshake: hello / challenge / auth *)
  | Sealed  (** authenticated: HMAC tag · message *)

val to_string : kind:kind -> string -> string
(** One encoded frame. *)

type parse =
  | Need_more of int  (** at least this many further bytes *)
  | Frame of { kind : kind; payload : string; consumed : int }
  | Oversized of int  (** declared payload length *)
  | Corrupt of string

val parse : ?max_payload:int -> string -> int -> parse
(** Parse one frame starting at the offset.  Never raises. *)

(** {1 Incremental reader}

    Both ends of a connection read through one of these: [push] the
    bytes that arrived, then [pull] until [Need_more].  A maximum-size
    frame arriving in small chunks costs O(n) overall. *)

type reader

val reader : ?max_payload:int -> unit -> reader

val push : reader -> string -> unit

val pull : reader -> parse
(** The next complete frame ([consumed] bytes are dropped from the
    reader), or [Need_more] when the buffered input holds none yet.
    [Oversized] and [Corrupt] leave the input in place; the stream is
    unusable after them. *)

val buffered : reader -> int
(** Bytes pushed but not yet pulled as part of a frame. *)

val reset : reader -> unit
(** Drop all buffered input (a reconnect, or a killed connection). *)
