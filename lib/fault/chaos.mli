(** Socket-level chaos proxy for soak-testing the service path.

    Forwards Unix-domain socket traffic between a client and a server
    while injecting network faults: chunk splits (partial reads at the
    peer), delays, single-bit corruption, and whole-connection drops.
    Fault decisions are drawn from per-connection, per-direction
    HMAC-DRBGs derived from one seed string, so a soak run's fault
    pattern is reproducible from the seed.

    The proxy never invents or reorders bytes within a direction:
    apart from a flipped bit (caught downstream by the frame CRC or
    session MAC), the forwarded stream is prefix-faithful or dead.
    Combined with client reconnect-and-replay and server request-id
    dedup, every injected fault must be survivable without duplicate
    or lost writes — which is exactly what the chaos soak asserts. *)

type profile = {
  p_split : int;  (** per-chunk odds (out of 1024) of a split write *)
  p_delay : int;  (** per-chunk odds of a forwarding delay *)
  p_corrupt : int;  (** per-chunk odds of flipping one bit *)
  p_drop : int;  (** per-chunk odds of killing the connection *)
  max_delay_s : float;  (** upper bound for injected delays *)
}

type t

val start :
  ?profile:profile -> seed:string -> listen:string -> upstream:string -> unit -> t
(** Start proxying: accept on the [listen] socket path, forward each
    connection to the [upstream] path.  Runs on background threads
    until {!stop}. *)

val stop : t -> unit
(** Stop accepting and join the accept loop.  Existing connections
    die with their sockets. *)

val connections : t -> int
(** Connections accepted so far. *)

val faults : t -> int
(** Total fault events injected so far (splits, delays, corruptions,
    drops). *)
