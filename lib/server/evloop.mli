(** Readiness-driven service reactor: one thread owns every client fd
    in non-blocking mode and a small worker pool runs the embedder's
    protocol handler, one worker per connection at a time.  Reads
    pause under backpressure, partial writes resume on POLLOUT, and a
    coarse timer wheel enforces the request and idle timeouts.

    Fault sites: ["evloop.conn.write"] (every write attempt) and
    ["evloop.conn.read"] (every chunk read). *)

type handler = {
  h_feed : string -> string;
      (** run protocol input, return response bytes (may block) *)
  h_alive : unit -> bool;  (** false once the protocol killed the conn *)
  h_pending : unit -> bool;
      (** true while a partial frame / unbatched ops are buffered *)
}

type accept_decision =
  | Accept of handler
  | Reject of string  (** advisory bytes, written best-effort, then close *)

type config = {
  workers : int;
  read_chunk : int;  (** bytes per read(2) attempt *)
  read_burst : int;  (** per-connection bytes per tick (fairness) *)
  in_cap : int;  (** pause reads above this much unfed input *)
  write_cap : int;  (** pause reads above this much unsent output *)
  accept_burst : int;  (** accepts per tick *)
  request_timeout : float;  (** midframe / undrained-output deadline *)
  idle_timeout : float;  (** quiet-connection deadline *)
  drain_grace : float;  (** max wait for in-flight work after stop *)
  on_accept : Unix.file_descr -> accept_decision;
  on_close : unit -> unit;  (** once per accepted connection *)
  on_reap : unit -> unit;  (** subset of closes: idle-timeout reaps *)
}

val default_config : on_accept:(Unix.file_descr -> accept_decision) -> config
(** Four workers, 30 s request timeout, 300 s idle timeout. *)

type t

val create : config -> t

val run : t -> listen:Unix.file_descr -> stop:bool Atomic.t -> unit
(** Listen on the bound socket and serve until [stop] is set, then
    drain in-flight work (bounded by [drain_grace]) and close every
    connection. *)

val wake : t -> unit
(** Nudge the reactor out of its poll wait; safe from any thread, also
    after {!run} returned. *)
