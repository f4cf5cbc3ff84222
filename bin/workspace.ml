(* The command-line half of a workspace, shared by the provdb CLI and
   the provdbd daemon: exit codes, failure classes and the
   load-act-save wrapper.  Persistence is Tep_workspace.Workspace. *)

include Tep_workspace.Workspace

(* Command failures carry their exit-code class so every front end
   maps them uniformly: operational errors exit 1, malformed
   arguments exit 2, verification / audit failures (tampering
   detected) exit 3. *)
type failure = Fail of string | Usage of string | Verify_failed of string

let exit_ok = 0
let exit_fail = 1
let exit_usage = 2
let exit_verify = 3

let exit_forced = 4
(* a second signal arrived while provdbd was draining: the process
   died without completing the drain/checkpoint; recovery will replay
   the WAL tail on next start *)

let code_of_failure = function
  | Fail _ -> exit_fail
  | Usage _ -> exit_usage
  | Verify_failed _ -> exit_verify

let message_of_failure = function
  | Fail e | Usage e | Verify_failed e -> e

let ( let* ) = Result.bind
let lift r = Result.map_error (fun e -> Fail e) r (* an operational error *)
let fail fmt = Printf.ksprintf (fun s -> Error (Fail s)) fmt
let fail_usage fmt = Printf.ksprintf (fun s -> Error (Usage s)) fmt
let fail_verify fmt = Printf.ksprintf (fun s -> Error (Verify_failed s)) fmt

let nshards ws = Array.length ws.shards
let shard_for_table ws table = Tep_core.Shards.shard_of_table ~shards:(nshards ws) table
let engine_for_table ws table = ws.shards.(shard_for_table ws table).s_engine

let report_failure f = prerr_endline ("error: " ^ message_of_failure f)

let with_workspace ?(save_after = true) dir f =
  match
    let* ws = lift (load dir) in
    let* msg = f ws in
    let* () = if save_after then lift (save ws) else Ok () in
    Ok msg
  with
  | Ok msg ->
      if msg <> "" then print_endline msg;
      exit_ok
  | Error f ->
      report_failure f;
      code_of_failure f

let get_participant ws name =
  match List.assoc_opt name ws.participants with
  | Some p -> Ok p
  | None ->
      fail_usage "no participant %s (add with `provdb participant %s %s`)" name
        ws.dir name
