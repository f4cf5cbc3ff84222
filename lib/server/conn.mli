(** One connection's protocol state machine: the handshake, sealed
    request dispatch, and pipelined submits batched into one job per
    input chunk.  Fault site: ["wire.server.read"], every byte fed. *)

type t

val create : State.t -> t
(** A fresh connection, expecting the client's Hello. *)

val feed : t -> string -> string
(** Bytes in, response bytes out; [""] once the connection is dead. *)

val alive : t -> bool
(** False once the protocol killed the connection. *)

val pending : t -> bool
(** A partial frame or unflushed submits are buffered. *)
