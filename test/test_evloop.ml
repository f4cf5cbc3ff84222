(* Event-loop service path tests.

   Everything here runs over real Unix-domain sockets against the
   {!Evloop} reactor: protocol correctness, isolation of well-behaved
   neighbours from slow-loris tricklers and malformed peers, the
   deadline reaper (idle and request timeouts; a busy connection is
   never reaped), connection-slot accounting at three-digit
   connection counts, and the partial-write / EAGAIN-storm failpoints
   on the reactor's write path. *)
open Tep_store
open Tep_core
open Tep_wire
module Server = Tep_server.Server
module Evloop = Tep_server.Evloop
module Client = Tep_client.Client
module Fault = Tep_fault.Fault

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let make_env () =
  let drbg = Tep_crypto.Drbg.create ~seed:"evloop" in
  let ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"CA" drbg in
  let directory =
    Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
  in
  let alice = Participant.create ~bits:512 ~ca ~name:"alice" drbg in
  Participant.Directory.register directory alice;
  let db = Database.create ~name:"svc" in
  ignore
    (Database.create_table db ~name:"stock" (Schema.all_int [ "sku"; "qty" ]));
  let engine = Engine.create ~directory db in
  (engine, alice)

let local_report engine oid =
  Format.asprintf "%a" Verifier.pp_report (ok (Engine.verify_object engine oid))

let io_workers = 2

(* Serve a fresh single-shard server on a temp socket, hand the body
   the pieces, and tear the loop down through the wake path (no
   reliance on the 1 s housekeeping backstop). *)
let with_unix_server ?request_timeout ?idle_timeout ?max_connections body =
  let engine, alice = make_env () in
  let server =
    Server.create ~io_workers ?request_timeout ?idle_timeout ?max_connections
      ~drbg:(Tep_crypto.Drbg.create ~seed:"evloop-server")
      ~participants:[ ("alice", alice) ]
      [ (engine, None) ]
  in
  let path = Filename.temp_file "tep_evloop" ".sock" in
  Sys.remove path;
  let stop = Stdlib.Atomic.make false in
  let th = Thread.create (fun () -> Server.serve_unix server ~path ~stop) () in
  let rec await n =
    if not (Sys.file_exists path) then
      if n = 0 then Alcotest.fail "server socket never appeared"
      else begin
        Thread.delay 0.02;
        await (n - 1)
      end
  in
  await 250;
  Fun.protect
    ~finally:(fun () ->
      Stdlib.Atomic.set stop true;
      Server.wake server;
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> body ~engine ~alice ~server ~path)

let connect ?(seed = "ev-client") path =
  let rec go n =
    match Client.connect_unix ~drbg:(Tep_crypto.Drbg.create ~seed) path with
    | Ok c -> c
    | Error e ->
        if n = 0 then Alcotest.fail e
        else begin
          Thread.delay 0.05;
          go (n - 1)
        end
  in
  go 20

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let hello_frame =
  Frame.to_string ~kind:Frame.Clear
    (Message.request_to_string
       (Message.Hello { name = "alice"; nonce = String.make 16 'n' }))

(* ------------------------------------------------------------------ *)
(* End-to-end                                                          *)
(* ------------------------------------------------------------------ *)

(* The full authenticated workload over a socket: submits, queries,
   verify — every wire answer byte-identical to the in-process engine,
   exactly as test_service asserts over the loopback transport. *)
let test_event_end_to_end () =
  with_unix_server (fun ~engine ~alice ~server:_ ~path ->
      let c = connect path in
      ok (Client.authenticate c alice);
      let row, records =
        ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 10 |])
      in
      Alcotest.(check bool) "insert emits records" true (records > 0);
      for i = 2 to 10 do
        ignore
          (ok
             (Client.insert c ~table:"stock"
                [| Value.Int i; Value.Int (10 * i) |]))
      done;
      ignore (ok (Client.update c ~table:"stock" ~row ~col:1 (Value.Int 9)));
      Alcotest.(check string)
        "root hash" (Engine.root_hash engine)
        (ok (Client.root_hash c));
      let report, _ = ok (Client.verify c ()) in
      Alcotest.(check string) "verify report byte-identical"
        (local_report engine (Engine.root_oid engine))
        (Message.render_report report);
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Slow-loris isolation                                                *)
(* ------------------------------------------------------------------ *)

(* One peer trickling a handshake frame a byte every 50 ms must not
   add latency to a well-behaved client: the reactor treats the
   trickler as just another readable fd, never a blocked thread.  The
   p95 bound is loose (250 ms vs single-digit-ms typical) so it only
   fails on structural convoying, not on a noisy machine. *)
let test_slow_loris () =
  with_unix_server (fun ~engine:_ ~alice ~server:_ ~path ->
      let stop_trickle = Stdlib.Atomic.make false in
      let trickler =
        Thread.create
          (fun () ->
            let fd = raw_connect path in
            let i = ref 0 in
            (try
               while
                 (not (Stdlib.Atomic.get stop_trickle))
                 && !i < String.length hello_frame
               do
                 ignore (Unix.write_substring fd hello_frame !i 1);
                 incr i;
                 Thread.delay 0.05
               done
             with Unix.Unix_error _ -> ());
            try Unix.close fd with Unix.Unix_error _ -> ())
          ()
      in
      let c = connect path in
      ok (Client.authenticate c alice);
      let n = 40 in
      let lat =
        Array.init n (fun i ->
            let t0 = Unix.gettimeofday () in
            ignore
              (ok
                 (Client.insert c ~table:"stock"
                    [| Value.Int i; Value.Int i |]));
            Unix.gettimeofday () -. t0)
      in
      Stdlib.Atomic.set stop_trickle true;
      Thread.join trickler;
      Array.sort compare lat;
      let p95 = lat.(int_of_float (ceil (0.95 *. float_of_int n)) - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "insert p95 %.1f ms under slow-loris (bound 250 ms)"
           (p95 *. 1000.))
        true (p95 < 0.25);
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Malformed frame mid-stream                                          *)
(* ------------------------------------------------------------------ *)

(* A peer that completes a valid handshake exchange and then sends
   garbage gets an error frame and a disconnect — and its neighbour
   on the same reactor notices nothing. *)
let test_malformed_midstream () =
  with_unix_server (fun ~engine ~alice ~server:_ ~path ->
      let c = connect path in
      ok (Client.authenticate c alice);
      ignore (ok (Client.insert c ~table:"stock" [| Value.Int 1; Value.Int 1 |]));
      let fd = raw_connect path in
      ignore (Unix.write_substring fd hello_frame 0 (String.length hello_frame));
      let buf = Bytes.create 4096 in
      let read_with_timeout () =
        match Unix.select [ fd ] [] [] 5.0 with
        | [], _, _ -> Alcotest.fail "server never answered the malformed peer"
        | _ -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | n -> n
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
              ->
                0)
      in
      Alcotest.(check bool)
        "handshake answered" true
        (read_with_timeout () > 0);
      (* now a frame that cannot parse: wrong magic, full header size *)
      let garbage = String.make 64 'Z' in
      ignore (Unix.write_substring fd garbage 0 (String.length garbage));
      let rec drain_to_eof budget =
        if budget = 0 then
          Alcotest.fail "server did not disconnect the malformed peer"
        else if read_with_timeout () > 0 then drain_to_eof (budget - 1)
      in
      drain_to_eof 100;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* the authenticated neighbour is undisturbed *)
      ignore (ok (Client.insert c ~table:"stock" [| Value.Int 2; Value.Int 2 |]));
      Alcotest.(check string)
        "neighbour still served" (Engine.root_hash engine)
        (ok (Client.root_hash c));
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Idle reaper                                                         *)
(* ------------------------------------------------------------------ *)

let test_idle_reaper () =
  with_unix_server ~idle_timeout:0.4 (fun ~engine:_ ~alice ~server ~path ->
      let idle = connect ~seed:"ev-idle" path in
      ok (Client.authenticate idle alice);
      let active = connect ~seed:"ev-active" path in
      ok (Client.authenticate active alice);
      Alcotest.(check int)
        "both connections held" 2
        (Server.active_connections server);
      (* keep one connection busy well past the idle deadline (the
         reactor sweeps deadlines at most 1 s apart, so give it
         headroom) *)
      let deadline = Unix.gettimeofday () +. 6.0 in
      let rec churn () =
        ignore (ok (Client.root_hash active));
        if
          Server.active_connections server > 1
          && Unix.gettimeofday () < deadline
        then begin
          Thread.delay 0.1;
          churn ()
        end
      in
      churn ();
      Alcotest.(check int)
        "idle connection reaped, slot released" 1
        (Server.active_connections server);
      let h = ok (Client.ping active) in
      Alcotest.(check bool)
        "reap counted in Ping stats" true
        (h.Client.h_reaped >= 1);
      Alcotest.(check int)
        "server-side reap counter agrees" h.Client.h_reaped
        (Server.reaped_connections server);
      (* the active connection was never reaped *)
      ignore (ok (Client.root_hash active));
      Client.close active)

(* ------------------------------------------------------------------ *)
(* Request deadline                                                    *)
(* ------------------------------------------------------------------ *)

(* Block until [fd] reads EOF (or a reset); [false] after [secs]. *)
let await_eof fd secs =
  let buf = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. secs in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then false
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> false
      | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> true
          | _ -> go ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
            ->
              true)
  in
  go ()

(* A peer that sends half a frame and stalls is reaped about
   [request_timeout] after its last byte, long before the 300 s idle
   timeout: its slot is released and the reap is counted. *)
let test_midframe_reaped () =
  with_unix_server ~request_timeout:0.5 (fun ~engine:_ ~alice:_ ~server ~path ->
      let fd = raw_connect path in
      let half = String.length hello_frame / 2 in
      ignore (Unix.write_substring fd hello_frame 0 half);
      let t0 = Unix.gettimeofday () in
      let eof = await_eof fd 5.0 in
      let waited = Unix.gettimeofday () -. t0 in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Alcotest.(check bool) "stalled half-frame peer disconnected" true eof;
      Alcotest.(check bool)
        (Printf.sprintf "reaped after %.2f s (request timeout 0.5 s)" waited)
        true
        (waited >= 0.4 && waited < 3.0);
      Alcotest.(check int)
        "reap counted" 1
        (Server.reaped_connections server);
      (* the slot is released right after the fd is closed *)
      let rec settle n =
        if Server.active_connections server > 0 && n > 0 then begin
          Thread.delay 0.01;
          settle (n - 1)
        end
      in
      settle 100;
      Alcotest.(check int)
        "slot released" 0
        (Server.active_connections server))

(* A connection whose Verify holds a worker past both deadlines is
   busy, and a busy connection has no deadline: it is not reaped and
   receives its answer. *)
let test_busy_not_reaped () =
  with_unix_server ~request_timeout:0.5 ~idle_timeout:1.0
    (fun ~engine ~alice ~server ~path ->
      Fun.protect ~finally:Fault.reset (fun () ->
          let c = connect path in
          ok (Client.authenticate c alice);
          Fault.arm "server.dispatch.verify" (Fault.Delay 2.5);
          let report, _ = ok (Client.verify c ()) in
          Alcotest.(check int)
            "busy connection not reaped" 0
            (Server.reaped_connections server);
          Alcotest.(check string)
            "Verified after the held dispatch"
            (local_report engine (Engine.root_oid engine))
            (Message.render_report report);
          Client.close c))

(* ------------------------------------------------------------------ *)
(* Write-path failpoints                                               *)
(* ------------------------------------------------------------------ *)

(* Partial write: the reactor must keep the tail buffered and finish
   on the next POLLOUT; EAGAIN storm: five consecutive zero-byte
   write attempts must only delay, never corrupt or drop. *)
let test_write_failpoints () =
  with_unix_server (fun ~engine ~alice ~server:_ ~path ->
      Fun.protect ~finally:Fault.reset (fun () ->
          let c = connect path in
          ok (Client.authenticate c alice);
          ignore
            (ok (Client.insert c ~table:"stock" [| Value.Int 5; Value.Int 50 |]));
          Fault.arm "evloop.conn.write" (Fault.Torn_write 0.3);
          let report, _ = ok (Client.verify c ()) in
          Alcotest.(check string) "verify intact across a partial write"
            (local_report engine (Engine.root_oid engine))
            (Message.render_report report);
          Alcotest.(check int)
            "partial-write failpoint fired" 0
            (if Fault.enabled () then 1 else 0);
          Fault.arm "evloop.conn.write" (Fault.Transient 5);
          Alcotest.(check string)
            "root hash intact across an EAGAIN storm"
            (Engine.root_hash engine)
            (ok (Client.root_hash c));
          Client.close c))

(* ------------------------------------------------------------------ *)
(* Connection-slot accounting at scale                                 *)
(* ------------------------------------------------------------------ *)

(* This process's thread count from /proc/self/status, or None where
   there is no /proc. *)
let proc_threads () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match Scanf.sscanf_opt line "Threads: %d" Fun.id with
            | Some n -> Some n
            | None -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* 100 idle raw connections plus one active client: every one holds a
   slot, the active client is unaffected, the reactor holds them all
   without a thread per connection (at most its I/O workers plus a few
   more threads than before they connected), and closing the idles
   returns every slot. *)
let test_many_connections () =
  with_unix_server ~max_connections:200
    (fun ~engine:_ ~alice ~server ~path ->
      let threads_before = proc_threads () in
      let idles = List.init 100 (fun _ -> raw_connect path) in
      let c = connect path in
      ok (Client.authenticate c alice);
      ignore (ok (Client.insert c ~table:"stock" [| Value.Int 9; Value.Int 90 |]));
      let rec await n =
        if Server.active_connections server < 101 && n > 0 then begin
          Thread.delay 0.05;
          await (n - 1)
        end
      in
      await 100;
      Alcotest.(check int)
        "101 connections held" 101
        (Server.active_connections server);
      (match (threads_before, proc_threads ()) with
      | Some before, Some held ->
          Alcotest.(check bool)
            (Printf.sprintf "threads %d -> %d with 101 connections held"
               before held)
            true
            (held - before <= io_workers + 4)
      | _ -> ());
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        idles;
      let rec drain n =
        if Server.active_connections server > 1 && n > 0 then begin
          Thread.delay 0.05;
          drain (n - 1)
        end
      in
      drain 100;
      Alcotest.(check int)
        "all idle slots released on close" 1
        (Server.active_connections server);
      ignore (ok (Client.root_hash c));
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Wake after shutdown                                                 *)
(* ------------------------------------------------------------------ *)

(* A server-level waker can fire in the window after [Evloop.run] has
   torn down its wakeup pipe but before the embedder unregisters the
   waker (Server.serve_fd does exactly that ordering).  The late
   wake must be a guarded no-op: no exception and no stray byte
   written into an unrelated fd that reuses the pipe's number. *)
let test_wake_after_shutdown () =
  let loop =
    Evloop.create
      (Evloop.default_config ~on_accept:(fun _ -> Evloop.Reject "full"))
  in
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let path = Filename.temp_file "tep_evloop" ".sock" in
  Sys.remove path;
  Unix.bind listen (Unix.ADDR_UNIX path);
  let stop = Stdlib.Atomic.make false in
  let th = Thread.create (fun () -> Evloop.run loop ~listen ~stop) () in
  Thread.delay 0.05;
  Stdlib.Atomic.set stop true;
  Evloop.wake loop;
  Thread.join th;
  (try Sys.remove path with Sys_error _ -> ());
  (* fresh fds on a quiet fd table reuse the numbers the loop just
     released — exactly the aliasing scenario under test *)
  let r, w = Unix.pipe () in
  Evloop.wake loop;
  Evloop.wake loop;
  (match Unix.select [ r ] [] [] 0.05 with
  | [], _, _ -> ()
  | _ -> Alcotest.fail "late wake wrote into a reused fd");
  Unix.close r;
  Unix.close w

let () =
  Alcotest.run "evloop"
    [
      ( "reactor",
        [
          Alcotest.test_case "event loop end-to-end" `Quick
            test_event_end_to_end;
          Alcotest.test_case "slow-loris isolation" `Quick test_slow_loris;
          Alcotest.test_case "malformed frame mid-stream" `Quick
            test_malformed_midstream;
          Alcotest.test_case "idle reaper" `Quick test_idle_reaper;
          Alcotest.test_case "stalled half frame reaped" `Quick
            test_midframe_reaped;
          Alcotest.test_case "busy connection not reaped" `Quick
            test_busy_not_reaped;
          Alcotest.test_case "write failpoints" `Quick test_write_failpoints;
          Alcotest.test_case "100 idle connections" `Quick
            test_many_connections;
          Alcotest.test_case "wake after shutdown" `Quick
            test_wake_after_shutdown;
        ] );
    ]
