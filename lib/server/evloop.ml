(* Readiness-driven service reactor.

   One reactor thread owns every client fd in non-blocking mode and a
   small worker pool runs the protocol state machine ([h_feed], which
   may block on the engine, group commit, signing...).  The reactor
   itself never blocks on anything but the pollset:

     - accept: non-blocking listen fd, burst-accepts up to a per-tick
       cap; the embedder decides per connection whether to admit
       (handler closures) or reject (advisory bytes written
       best-effort, no slot held).
     - read: level-triggered; bytes append to a per-connection input
       queue and the connection is handed to a worker.  Reads pause
       while the input backlog or the write buffer exceed their caps
       (backpressure) and resume on drain — level-triggered polling
       makes re-arming free.
     - feed: a worker concatenates the queued chunks, calls [h_feed]
       outside the reactor lock, then queues the response bytes and
       wakes the reactor through the wakeup pipe.  A connection is
       owned by at most one worker at a time, so per-connection
       ordering is preserved while distinct connections proceed in
       parallel.
     - write: [Unix.single_write] until EAGAIN; partial writes keep
       their offset and the fd stays in the write interest set
       (POLLOUT re-arming).  The [evloop.conn.write] failpoint shapes
       attempts (partial write / EAGAIN storm) for tests.
     - deadlines: every tick (at most 1 s apart) the reactor sweeps
       all connections and reaps each one that is not busy and whose
       deadline has passed — request timeout while a frame is
       partially read or output is pending, idle timeout otherwise.

   Portability note: [Unix.select] rejects fds >= FD_SETSIZE (1024);
   such "overflow" fds are simply treated as ready every capped tick
   (<= 25 ms) and the non-blocking syscalls sort out the truth via
   EAGAIN.  That degrades high-fd connections from event-driven to
   fine polling without a cliff. *)

module Fault = Tep_fault.Fault

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
  request_timeout : float;  (** midframe / undrained-output deadline *)
  idle_timeout : float;  (** quiet-connection deadline *)
  on_accept : Unix.file_descr -> accept_decision;
  on_close : unit -> unit;  (** once per accepted connection *)
  on_reap : unit -> unit;  (** subset of closes: deadline reaps *)
}

let default_config ~on_accept =
  {
    workers = 4;
    request_timeout = 30.;
    idle_timeout = 300.;
    on_accept;
    on_close = (fun () -> ());
    on_reap = (fun () -> ());
  }

let read_chunk = 16384 (* bytes per read(2) attempt *)
let read_burst = 65536 (* per-connection bytes per tick (fairness) *)
let in_cap = 256 * 1024 (* pause reads above this much unfed input *)
let write_cap = 1024 * 1024 (* pause reads above this much unsent output *)
let accept_burst = 64 (* accepts per tick *)
let drain_grace = 5. (* max wait for in-flight work after stop *)

let write_site = "evloop.conn.write"
let read_site = "evloop.conn.read"

let () =
  Fault.register write_site;
  Fault.register read_site

(* On Unix a file_descr is the integer fd; this is the standard
   C-free way to index connections by fd number. *)
let fd_int : Unix.file_descr -> int = Obj.magic

(* select(2) refuses fds >= FD_SETSIZE; those poll at a capped tick. *)
let fd_setsize = 1024
let overflow_tick = 0.025

type cstate = {
  fd : Unix.file_descr;
  id : int;  (* fd number at accept time; key in the conn table *)
  handler : handler;
  mutable inq : string list;  (* unfed chunks, newest first *)
  mutable in_bytes : int;
  mutable busy : bool;  (* a worker currently owns this conn *)
  outq : string Queue.t;
  mutable out_off : int;  (* sent bytes of the queue head *)
  mutable out_bytes : int;
  mutable midframe : bool;  (* h_pending at last worker completion *)
  mutable rx_eof : bool;
  mutable want_close : bool;  (* close once output drains *)
  mutable killed : bool;  (* close asap, discard output *)
  mutable closed : bool;
  mutable last_progress : float;  (* last byte moved / feed finished *)
}

type t = {
  cfg : config;
  lock : Mutex.t;
  work_cond : Condition.t;
  conns : (int, cstate) Hashtbl.t;
  workq : cstate Queue.t;
  mutable workers_done : bool;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable wake_dead : bool;  (* wake pipe closed; no more nudges *)
}

let create cfg =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    cfg;
    lock = Mutex.create ();
    work_cond = Condition.create ();
    conns = Hashtbl.create 64;
    workq = Queue.create ();
    workers_done = false;
    wake_r;
    wake_w;
    wake_dead = false;
  }

(* Safe from any thread, any time between create and after run has
   returned: nudges the reactor out of its pollset wait.  A full pipe
   means a wakeup is already pending — exactly what we want.  The
   [wake_dead] flag is set under [t.lock] before [run] closes the
   pipe, so a late waker (e.g. a server-level waker not yet
   unregistered) can never write into a reused fd number. *)
let wake t =
  Mutex.lock t.lock;
  if not t.wake_dead then begin
    try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
    with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock t.lock

let now () = Unix.gettimeofday ()

(* ---- deadlines -------------------------------------------------- *)

let deadline_of cfg c =
  if c.busy then infinity (* the engine is working; no I/O clock runs *)
  else if c.midframe || c.out_bytes > 0 || c.inq <> [] then
    c.last_progress +. cfg.request_timeout
  else c.last_progress +. cfg.idle_timeout

(* ---- connection lifecycle (reactor lock held) -------------------

   Client fds are closed ONLY by the reactor thread.  The reactor
   snapshots its interest sets under the lock, releases it, and sits
   in the pollset wait; a worker closing an fd in that window would
   make select fail with EBADF (or, worse, have the snapshot alias a
   reused fd number).  Workers therefore only set [killed] /
   [want_close] and wake the reactor, which carries out the close
   between pollset rebuilds — the same thread that builds the sets. *)

let close_now t c =
  if not c.closed then begin
    c.closed <- true;
    Hashtbl.remove t.conns c.id;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.cfg.on_close ()
  end

(* A connection still owned by a worker must not have its fd closed
   (the number could be reused by a fresh accept and collide in the
   table): mark it killed and let worker completion finish the job. *)
let close_conn t c = if c.busy then c.killed <- true else close_now t c

let finished c =
  (not c.busy) && c.inq = [] && (c.out_bytes = 0 || c.killed)

let maybe_close t c =
  if c.killed then close_conn t c
  else if (c.want_close || c.rx_eof) && finished c then close_now t c

let enqueue_work t c =
  if (not c.busy) && (not c.killed) && c.inq <> [] then begin
    c.busy <- true;
    Queue.push c t.workq;
    Condition.signal t.work_cond
  end

(* ---- write path (lock held; worker or reactor) ------------------
   Never closes: a failed flush only marks [killed], and the reactor
   follows up with [maybe_close] on its own thread. *)

let flush_conn c =
  let more = ref true in
  while !more && not (Queue.is_empty c.outq) && not c.killed do
    let head = Queue.peek c.outq in
    let len = String.length head - c.out_off in
    let allowed = Fault.allow write_site len in
    if allowed = 0 then more := false (* injected EAGAIN: POLLOUT re-arms *)
    else begin
      let n =
        match Unix.single_write_substring c.fd head c.out_off allowed with
        | n -> n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            more := false;
            0
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
        | exception Unix.Unix_error _ ->
            (* peer gone (EPIPE, ECONNRESET...): discard and close *)
            c.killed <- true;
            more := false;
            0
      in
      if n > 0 then begin
        c.out_off <- c.out_off + n;
        c.out_bytes <- c.out_bytes - n;
        c.last_progress <- now ();
        if c.out_off = String.length head then begin
          ignore (Queue.pop c.outq);
          c.out_off <- 0
        end;
        (* short count = kernel buffer full or injected partial write:
           keep the rest queued, stay in the write interest set *)
        if n < len then more := false
      end
    end
  done

(* ---- worker pool ------------------------------------------------ *)

let worker_loop t =
  let rec next () =
    Mutex.lock t.lock;
    while Queue.is_empty t.workq && not t.workers_done do
      Condition.wait t.work_cond t.lock
    done;
    if Queue.is_empty t.workq then Mutex.unlock t.lock (* shutdown *)
    else begin
      let c = Queue.pop t.workq in
      let chunks = List.rev c.inq in
      c.inq <- [];
      c.in_bytes <- 0;
      Mutex.unlock t.lock;
      let data = String.concat "" chunks in
      (* Protocol exceptions (including injected Fault.Crash) kill the
         connection, never the worker. *)
      let out, crashed =
        match c.handler.h_feed data with
        | out -> (out, false)
        | exception _ -> ("", true)
      in
      let midframe = (try c.handler.h_pending () with _ -> false) in
      let alive = (try c.handler.h_alive () with _ -> false) in
      Mutex.lock t.lock;
      if out <> "" && not c.killed then begin
        Queue.push out c.outq;
        c.out_bytes <- c.out_bytes + String.length out
      end;
      c.midframe <- midframe;
      c.last_progress <- now ();
      if crashed || not alive then c.want_close <- true;
      (* opportunistic flush from the completing worker: the socket is
         almost always writable, so the common case sends the response
         here instead of paying a wake + poll round-trip for the
         reactor to do it.  Same lock, same flush_conn — the reactor
         can never be writing this fd concurrently. *)
      if c.out_bytes > 0 && not c.killed then flush_conn c;
      if c.inq <> [] && not c.killed then
        (* the reactor read more while we fed: keep ownership *)
        Queue.push c t.workq
      else c.busy <- false;
      (* the reactor only needs a nudge if there is still reactor work:
         leftover output to arm POLLOUT for, or a close to carry out
         (never closed here — see the lifecycle note above) *)
      let need_reactor =
        (not c.closed)
        && (c.out_bytes > 0 || c.killed || c.want_close || c.rx_eof)
      in
      Mutex.unlock t.lock;
      if need_reactor then wake t;
      next ()
    end
  in
  next ()

(* ---- pollset ---------------------------------------------------- *)

(* Level-triggered wait.  Overflow fds (>= FD_SETSIZE) cannot go in a
   select set: report them ready every tick and clamp the timeout so
   "every tick" is soon; their non-blocking syscalls return EAGAIN
   when there is nothing to do. *)
let poll_wait ~read ~write ~timeout =
  let fits fd = fd_int fd < fd_setsize in
  let sel_r, ovf_r = List.partition fits read in
  let sel_w, ovf_w = List.partition fits write in
  let timeout =
    if ovf_r = [] && ovf_w = [] then timeout else Float.min timeout overflow_tick
  in
  match Unix.select sel_r sel_w [] timeout with
  | r, w, _ -> (r @ ovf_r, w @ ovf_w)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> (ovf_r, ovf_w)
  | exception Unix.Unix_error (Unix.EBADF, _, _) ->
      (* Closes are confined to the reactor thread, so a stale fd in
         the sets should be impossible — but an embedder closing a fd
         behind our back must degrade to a skipped tick (the next
         rebuild drops the dead fd), not kill the service path. *)
      ([], [])

(* ---- reactor I/O (lock held; all fds non-blocking) -------------- *)

let drain_wake_pipe t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | n when n = 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let accept_one t lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED | Unix.EINTR), _, _)
    ->
      false
  | exception Unix.Unix_error _ -> false
  | cfd, _ -> (
      Unix.set_nonblock cfd;
      match t.cfg.on_accept cfd with
      | Reject advisory ->
          (* Advisory over-capacity frame: best effort into an empty
             socket buffer, never blocks, never holds a slot. *)
          (try
             ignore
               (Unix.single_write_substring cfd advisory 0
                  (String.length advisory))
           with Unix.Unix_error _ -> ());
          (try Unix.close cfd with Unix.Unix_error _ -> ());
          true
      | Accept handler ->
          let c =
            {
              fd = cfd;
              id = fd_int cfd;
              handler;
              inq = [];
              in_bytes = 0;
              busy = false;
              outq = Queue.create ();
              out_off = 0;
              out_bytes = 0;
              midframe = false;
              rx_eof = false;
              want_close = false;
              killed = false;
              closed = false;
              last_progress = now ();
            }
          in
          Hashtbl.replace t.conns c.id c;
          true)

let accept_burst t lfd =
  let rec go n = if n > 0 && accept_one t lfd then go (n - 1) in
  go accept_burst

let read_conn t c buf =
  let budget = ref read_burst in
  let more = ref true in
  while !more && !budget > 0 && not c.killed do
    let want = min (Bytes.length buf) !budget in
    let want = Fault.allow read_site want in
    if want = 0 then more := false
    else
      match Unix.read c.fd buf 0 want with
      | 0 ->
          c.rx_eof <- true;
          more := false
      | n ->
          c.inq <- Bytes.sub_string buf 0 n :: c.inq;
          c.in_bytes <- c.in_bytes + n;
          c.last_progress <- now ();
          budget := !budget - n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          more := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ ->
          c.rx_eof <- true;
          c.killed <- true;
          more := false
  done;
  enqueue_work t c;
  maybe_close t c

(* ---- main loop -------------------------------------------------- *)

let run t ~listen ~stop =
  Unix.set_nonblock listen;
  Unix.listen listen 128;
  let workers =
    List.init t.cfg.workers (fun _ -> Thread.create worker_loop t)
  in
  let buf = Bytes.create read_chunk in
  let stopping = ref false in
  let drain_deadline = ref infinity in
  let running = ref true in
  while !running do
    (* interest sets *)
    Mutex.lock t.lock;
    let rs = ref [ t.wake_r ] in
    if not !stopping then rs := listen :: !rs;
    let ws = ref [] in
    Hashtbl.iter
      (fun _ c ->
        if not c.closed then begin
          if
            (not c.rx_eof) && (not c.killed) && (not c.want_close)
            && c.in_bytes < in_cap && c.out_bytes <= write_cap
          then rs := c.fd :: !rs;
          if c.out_bytes > 0 && not c.killed then ws := c.fd :: !ws
        end)
      t.conns;
    Mutex.unlock t.lock;
    (* 1 s cap = the deadline sweep's tick; also bounds stop-flag
       latency when a caller forgets to wake *)
    let r, w = poll_wait ~read:!rs ~write:!ws ~timeout:1.0 in
    Mutex.lock t.lock;
    let t_now = now () in
    List.iter
      (fun fd ->
        if fd = t.wake_r then drain_wake_pipe t
        else if fd = listen then (if not !stopping then accept_burst t listen)
        else
          match Hashtbl.find_opt t.conns (fd_int fd) with
          | Some c when not c.closed -> read_conn t c buf
          | _ -> ())
      r;
    ignore w;
    (* eager flush + deferred closes + reaping — covers every fd the
       poll reported writable, plus output a worker queued right
       before this tick's wakeup, which would otherwise wait one more
       poll round for POLLOUT.  Sockets are almost always writable;
       EAGAIN just leaves the fd in the write interest set for the
       slow path.  This sweep is also where worker-requested closes
       ([killed] / [want_close] / EOF) are carried out and where a
       connection past its deadline is reaped (a busy one has none):
       only this thread ever closes a client fd, so the pollset can
       never see a stale one.  Collected first because a close
       mutates the table mid-iteration. *)
    let sweep = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    List.iter
      (fun c ->
        if not c.closed then begin
          if (not c.killed) && c.out_bytes > 0 then flush_conn c;
          maybe_close t c;
          if (not c.closed) && deadline_of t.cfg c <= t_now then begin
            t.cfg.on_reap ();
            close_conn t c
          end
        end)
      sweep;
    if (not !stopping) && Atomic.get stop then begin
      stopping := true;
      drain_deadline := t_now +. drain_grace
    end;
    if !stopping then begin
      let pending =
        Hashtbl.fold
          (fun _ c acc -> acc || c.busy || c.inq <> [] || c.out_bytes > 0)
          t.conns false
      in
      if (not pending) || t_now >= !drain_deadline then begin
        let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
        List.iter (close_conn t) remaining;
        running := false
      end
    end;
    Mutex.unlock t.lock
  done;
  Mutex.lock t.lock;
  t.workers_done <- true;
  Condition.broadcast t.work_cond;
  Mutex.unlock t.lock;
  List.iter Thread.join workers;
  Mutex.lock t.lock;
  let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter
    (fun c ->
      c.busy <- false;
      close_now t c)
    remaining;
  (* Retire the wake pipe under the lock: a concurrent [wake] either
     completed its write before we acquired the lock or will observe
     [wake_dead] — it can never hit a closed (or reused) fd. *)
  t.wake_dead <- true;
  Mutex.unlock t.lock;
  (try Unix.close listen with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
