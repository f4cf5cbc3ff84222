(* Processes and files: the provdb CLI, the provdbd daemon, /proc
   accounting and workspace copies.  Every child is tracked so that an
   early exit still kills and reaps it. *)

let ( // ) = Filename.concat

let started = Unix.gettimeofday ()

let log fmt =
  Printf.ksprintf
    (fun s -> Printf.eprintf "provbench [%6.1fs]: %s\n%!" (Unix.gettimeofday () -. started) s)
    fmt

let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let st = go () in
  Hashtbl.remove live pid;
  st

let kill_all () =
  Hashtbl.iter
    (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    live;
  List.iter
    (fun pid -> try ignore (reap pid) with Unix.Unix_error _ -> ())
    (Hashtbl.fold (fun pid () acc -> pid :: acc) live [])

let () = at_exit kill_all

let spawn ~log_file prog args =
  let fd = Unix.openfile log_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd fd)
  in
  Hashtbl.replace live pid ();
  pid

(* Run a command to completion; its output goes to [log_file]. *)
let run ~log_file prog args =
  match reap (spawn ~log_file prog args) with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n ->
      Error (Printf.sprintf "%s %s exited %d (see %s)" prog (String.concat " " args) n log_file)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "%s killed by signal %d" prog n)

let signal_and_wait pid signal = (try Unix.kill pid signal with Unix.Unix_error _ -> ()); reap pid

(* utime + stime of [pid], in seconds.  Linux reports them in clock
   ticks of USER_HZ, which is 100 on every architecture it runs on. *)
let cpu_seconds pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* the command name may contain spaces: fields restart after ')' *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* rest.(0) is field 3 (state); utime and stime are fields 14, 15 *)
  float_of_string f.(11) +. float_of_string f.(12) |> fun t -> t /. 100.

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let copy_file src dst =
  let buf = Bytes.create 65536 in
  let ic = open_in_bin src in
  let oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () -> close_in ic; close_out oc)
    (fun () ->
      let rec go () =
        match input ic buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            output oc buf 0 n;
            go ()
      in
      go ())

(* Regular files and directories only: sockets and other leftovers of
   a daemon are not part of a workspace. *)
let rec copy_tree src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = src // f and d = dst // f in
      match (Unix.lstat s).Unix.st_kind with
      | Unix.S_DIR -> copy_tree s d
      | Unix.S_REG -> copy_file s d
      | _ -> ())
    (Sys.readdir src)

let rec tree_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun acc f -> acc + tree_bytes (path // f)) 0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let file_digest path = Digest.to_hex (Digest.file path)

let host_cores () = Domain.recommended_domain_count ()

(* Only a checkout that is itself a git work tree has a rev: git would
   otherwise search the parent directories and report someone else's. *)
let git_rev () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic ->
        let rev = try String.trim (input_line ic) with End_of_file -> "" in
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 when rev <> "" -> rev
        | _ -> "unknown")

(* ------------------------------------------------------------------ *)
(* Workspace layout                                                    *)
(* ------------------------------------------------------------------ *)

module Participant = Tep_core.Participant

(* The participant every load connection authenticates as. *)
let participant_name = "bench"

(* The workspace's certificate directory (for checking signatures) and
   the benchmark participant's credentials. *)
let identity ws =
  match Tep_crypto.Pki.ca_of_string (read_file (ws // "ca")) with
  | None -> failwith ("corrupt CA in " ^ ws)
  | Some ca ->
      let directory = Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca) in
      let me = ref None in
      Array.iter
        (fun f ->
          match Participant.of_string (read_file (ws // "participants" // f)) with
          | Some p ->
              Participant.Directory.register directory p;
              if f = participant_name then me := Some p
          | None -> ())
        (Sys.readdir (ws // "participants"));
      (directory, Option.get !me)

let shard_count ws =
  match read_file (ws // "shards") with
  | s -> int_of_string (String.trim s)
  | exception Sys_error _ -> 1

let shard_dirs ws =
  let n = shard_count ws in
  if n = 1 then [ ws ] else List.init n (fun k -> ws // Printf.sprintf "shard-%03d" k)

