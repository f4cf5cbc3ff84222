type task = unit -> unit

type t = {
  lock : Mutex.t;
  work_available : Condition.t;
  queue : task Queue.t;
  mutable workers : unit Domain.t list;
  mutable closed : bool;
  domains : int; (* total, including the submitting caller *)
}

let clamp_domains n = max 1 (min 64 n)

let default_domains () =
  match Sys.getenv_opt "TEP_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> clamp_domains n
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Workers drain the queue even when closing, so shutdown never strands
   submitted work.  Tasks are exception-proofed at submission time (the
   chunk runners below catch everything), but a stray raise must not
   kill a worker either. *)
let worker_loop pool () =
  let rec loop () =
    Mutex.lock pool.lock;
    let rec next () =
      if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
      else if pool.closed then None
      else begin
        Condition.wait pool.work_available pool.lock;
        next ()
      end
    in
    let task = next () in
    Mutex.unlock pool.lock;
    match task with
    | None -> ()
    | Some t ->
        (try t () with _ -> ());
        loop ()
  in
  loop ()

let create ?domains () =
  let domains =
    match domains with
    | None -> default_domains ()
    | Some n when n < 1 -> invalid_arg "Pool.create: domains < 1"
    | Some n -> clamp_domains n
  in
  let pool =
    {
      lock = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      workers = [];
      closed = false;
      domains;
    }
  in
  pool.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (worker_loop pool));
  pool

let sequential = create ~domains:1 ()

let default_pool = ref None
let default_lock = Mutex.create ()

let default () =
  Mutex.lock default_lock;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_lock;
  p

let size pool = pool.domains

let shutdown pool =
  Mutex.lock pool.lock;
  pool.closed <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.lock;
  let ws = pool.workers in
  pool.workers <- [];
  List.iter Domain.join ws

(* ------------------------------------------------------------------ *)
(* Chunked execution                                                   *)
(* ------------------------------------------------------------------ *)

let serial_below = 4

(* Run [run_range lo hi] (inclusive bounds) over [0..n-1] in chunks.
   The caller enqueues all chunks but the first, runs the first
   itself, then helps drain the queue until its own chunks are done.
   Determinism: errors are recorded per chunk and the lowest-indexed
   one is re-raised. *)
let chunked_exec pool ~n ~chunk (run_range : int -> int -> unit) =
  if n > 0 then begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None ->
          let parts = pool.domains * 4 in
          max 1 ((n + parts - 1) / parts)
    in
    let nchunks = (n + chunk - 1) / chunk in
    let sequential_only =
      pool.domains <= 1 || nchunks <= 1 || n < serial_below
    in
    if sequential_only then run_range 0 (n - 1)
    else begin
      let errors :
          (exn * Printexc.raw_backtrace) option array =
        Array.make nchunks None
      in
      let remaining = Atomic.make nchunks in
      let done_lock = Mutex.create () in
      let done_cond = Condition.create () in
      let run_chunk ci =
        let lo = ci * chunk in
        let hi = min (n - 1) (lo + chunk - 1) in
        (try run_range lo hi
         with e ->
           errors.(ci) <- Some (e, Printexc.get_raw_backtrace ()));
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock done_lock;
          Condition.broadcast done_cond;
          Mutex.unlock done_lock
        end
      in
      (* Enqueue chunks 1..nchunks-1 unless the pool is closed (then
         the caller runs everything). *)
      Mutex.lock pool.lock;
      let enqueued = not pool.closed in
      if enqueued then begin
        for ci = 1 to nchunks - 1 do
          Queue.push (fun () -> run_chunk ci) pool.queue
        done;
        Condition.broadcast pool.work_available
      end;
      Mutex.unlock pool.lock;
      run_chunk 0;
      if not enqueued then
        for ci = 1 to nchunks - 1 do
          run_chunk ci
        done;
      (* Help until every chunk of this call has completed.  Tasks we
         pop may belong to a concurrent call on the same pool; running
         them here is correct and keeps the pool busy. *)
      let rec help () =
        if Atomic.get remaining > 0 then begin
          Mutex.lock pool.lock;
          let task =
            if Queue.is_empty pool.queue then None
            else Some (Queue.pop pool.queue)
          in
          Mutex.unlock pool.lock;
          match task with
          | Some t ->
              t ();
              help ()
          | None ->
              (* Our outstanding chunks are running in workers; wait
                 for the completion signal. *)
              Mutex.lock done_lock;
              while Atomic.get remaining > 0 do
                Condition.wait done_cond done_lock
              done;
              Mutex.unlock done_lock
        end
      in
      help ();
      Array.iter
        (function
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ())
        errors
    end
  end

let map_chunked ?chunk pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    chunked_exec pool ~n ~chunk (fun lo hi ->
        for i = lo to hi do
          results.(i) <- Some (f arr.(i))
        done);
    Array.map
      (function Some v -> v | None -> assert false (* all chunks ran *))
      results
  end

let map_list ?chunk pool f l =
  Array.to_list (map_chunked ?chunk pool f (Array.of_list l))

let parallel_for ?chunk pool ~lo ~hi f =
  let n = hi - lo + 1 in
  if n > 0 then
    chunked_exec pool ~n ~chunk (fun clo chi ->
        for i = clo to chi do
          f (lo + i)
        done)
