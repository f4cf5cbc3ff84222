(* provdbd — the provenance service daemon.

   Loads a provdb workspace, serves the authenticated wire protocol on
   a Unix-domain socket (default WORKSPACE/provdbd.sock) and
   optionally a loopback TCP port, and persists the workspace —
   snapshot, provenance store, checkpoint generation, WAL truncation —
   on clean shutdown (SIGINT / SIGTERM).

     provdbd ws
     provdbd ws --socket /tmp/prov.sock --port 7441

   Shutdown is a graceful drain: the first SIGINT/SIGTERM stops the
   accept loops and flips the server into draining mode (new writes
   are refused with Shutting_down), waits for in-flight batches to
   commit, then checkpoints the workspace and exits 0.  A second
   signal during the drain aborts immediately with exit code 4
   ([Workspace.exit_forced]); the WAL tail is replayed by `provdb
   recover` on the next start.  A shard fenced by a failed commit
   skips the checkpoint too, with exit code 1: its memory holds writes
   its WAL does not, and `provdb recover` restores the durable
   state.

   Clients authenticate as PKI-registered participants (`provdb
   remote --as NAME ...`); the daemon signs the operations they submit
   with the workspace copy of that participant's key. *)

open Cmdliner
open Workspace
module Server = Tep_server.Server

let run dir socket port io_threads idle_timeout =
  match load dir with
  | Error e ->
      report_failure (Fail e);
      exit_fail
  | Ok ws ->
      let nshards = Array.length ws.shards in
      let server =
        Server.create ~pool:(pool ()) ?coord:ws.coord ~io_workers:io_threads
          ~idle_timeout ~participants:ws.participants
          (Array.to_list ws.shards
          |> List.map (fun s -> (s.s_engine, Some (ckpt_dir s.s_dir, s.s_wal))))
      in
      let stop = Atomic.make false in
      let signals = Atomic.make 0 in
      List.iter
        (fun s ->
          Sys.set_signal s
            (Sys.Signal_handle
               (fun _ ->
                 if Atomic.fetch_and_add signals 1 = 0 then begin
                   (* first signal: stop accepting, refuse new writes,
                      let in-flight batches commit *)
                   Server.begin_drain server;
                   Atomic.set stop true;
                   (* the serve loops block in their pollsets; nudge
                      them so the drain starts now, not at the next
                      housekeeping tick *)
                   Server.wake server
                 end
                 else begin
                   (* second signal: the operator wants out now; skip
                      the drain and checkpoint, leave the WAL tail for
                      `provdb recover` *)
                   prerr_endline "provdbd: forced shutdown (drain aborted)";
                   Stdlib.exit exit_forced
                 end)))
        [ Sys.sigint; Sys.sigterm ];
      let sock = Option.value socket ~default:(socket_path dir) in
      let threads =
        Thread.create (fun () -> Server.serve_unix server ~path:sock ~stop) ()
        ::
        (match port with
        | None -> []
        | Some port ->
            [ Thread.create (fun () -> Server.serve_tcp server ~port ~stop) () ])
      in
      Printf.printf "provdbd: listening on %s%s%s\n%!" sock
        (match port with
        | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
        | None -> "")
        (if nshards > 1 then Printf.sprintf " (%d shards)" nshards else "");
      List.iter Thread.join threads;
      (* the accept loops are gone; finish whatever the batcher still
         holds before checkpointing, so the saved generation contains
         every committed write *)
      Server.begin_drain server;
      if not (Server.quiesce ~timeout:10. server) then
        prerr_endline
          "provdbd: warning: drain timed out with batches still queued";
      (* a fenced shard's memory holds writes its log does not: saving
         it would make them durable *)
      let fenced = Server.fenced server in
      let saved = if fenced = [] then Some (save ws) else None in
      (try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ());
      match saved with
      | None ->
          List.iter (fun m -> prerr_endline ("provdbd: " ^ m)) fenced;
          prerr_endline "provdbd: the workspace was not saved";
          exit_fail
      | Some (Error e) ->
          report_failure (Fail ("saving the workspace: " ^ e));
          exit_fail
      | Some (Ok ()) ->
          print_endline "provdbd: drained, checkpointed, workspace saved";
          exit_ok

(* [base]'s values where [ok] holds; anything else is refused at parse
   time, before a socket or a thread exists, and Cmdliner's message
   names the flag. *)
let bounded base ok what =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
    | Error e -> Error e
  in
  Arg.conv (parse, Arg.conv_printer base)

let () =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKSPACE")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket to listen on (default: \
                   WORKSPACE/provdbd.sock)")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Additionally listen on 127.0.0.1:PORT")
  in
  let io_threads =
    Arg.(value
         & opt
             (bounded int (fun n -> n >= 1 && n <= 64) "in 1..64")
             4
         & info [ "io-threads" ] ~docv:"N"
             ~doc:
               "Protocol worker threads per listening socket (engine \
                dispatch, signing and proofs run here, never on the \
                event loop's reactor thread); 1 to 64.")
  in
  let idle_timeout =
    Arg.(value
         & opt
             (bounded float
                (fun s -> Float.is_finite s && s > 0.)
                "a finite number of seconds > 0")
             300.
         & info [ "idle-timeout" ] ~docv:"SECONDS"
             ~doc:
               "Reap connections idle this long (no bytes in either \
                direction, nothing in flight) so dead peers cannot pin \
                connection-cap slots; reaps are counted in Ping stats.")
  in
  let exits =
    Cmd.Exit.info exit_fail
      ~doc:"on operational errors (unloadable or stale workspace, I/O \
            failures), and when a failed commit fenced a shard: the workspace \
            is then not saved; run `provdb recover`."
    :: Cmd.Exit.info exit_forced
         ~doc:"on forced shutdown: a second signal arrived while draining, so \
               the checkpoint was skipped; run `provdb recover` to replay the \
               WAL tail."
    :: Cmd.Exit.defaults
  in
  let info =
    Cmd.info "provdbd" ~version:"1.0.0" ~exits
      ~doc:"Networked daemon for tamper-evident database provenance"
  in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const run $ dir $ socket $ port $ io_threads $ idle_timeout)))
