(* Classic mutex + two-condition reader–writer lock, writer-preferring:
   a queued writer gates new readers, so group-commit batches cannot be
   starved by a continuous stream of verifies. *)

type t = {
  mutex : Mutex.t;
  can_read : Condition.t;
  can_write : Condition.t;
  mutable active_readers : int;
  mutable writer : bool;
  mutable waiting_writers : int;
}

let create () =
  {
    mutex = Mutex.create ();
    can_read = Condition.create ();
    can_write = Condition.create ();
    active_readers = 0;
    writer = false;
    waiting_writers = 0;
  }

let read_lock t =
  Mutex.lock t.mutex;
  while t.writer || t.waiting_writers > 0 do
    Condition.wait t.can_read t.mutex
  done;
  t.active_readers <- t.active_readers + 1;
  Mutex.unlock t.mutex

let read_unlock t =
  Mutex.lock t.mutex;
  t.active_readers <- t.active_readers - 1;
  if t.active_readers = 0 then Condition.signal t.can_write;
  Mutex.unlock t.mutex

let write_lock t =
  Mutex.lock t.mutex;
  t.waiting_writers <- t.waiting_writers + 1;
  while t.writer || t.active_readers > 0 do
    Condition.wait t.can_write t.mutex
  done;
  t.waiting_writers <- t.waiting_writers - 1;
  t.writer <- true;
  Mutex.unlock t.mutex

let write_unlock t =
  Mutex.lock t.mutex;
  t.writer <- false;
  (* Wake both sides: whichever class is waiting gets through under
     the preference rule re-checked in its wait loop. *)
  Condition.broadcast t.can_read;
  Condition.signal t.can_write;
  Mutex.unlock t.mutex

let with_read t f =
  read_lock t;
  Fun.protect ~finally:(fun () -> read_unlock t) f

let with_write t f =
  write_lock t;
  Fun.protect ~finally:(fun () -> write_unlock t) f

