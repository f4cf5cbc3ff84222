module Fault = Tep_fault.Fault

type site = string

let site prefix =
  List.iter
    (fun step -> Fault.register (prefix ^ step))
    [ ".open"; ".write"; ".sync"; ".rename"; ".dirsync" ];
  prefix

(* One allocation: the string is sized from the channel length. *)
let read ?upto path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic (match upto with Some m -> min m n | None -> n))

let sys_error f x =
  try f x with Unix.Unix_error (e, _, _) -> raise (Sys_error (Unix.error_message e))

let fsync_dir dir =
  let fd = sys_error (Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ]) 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> sys_error Unix.fsync fd);
  Fault.record (Dir_fsync dir)

let remove path =
  match Sys.remove path with
  | () -> Fault.record (Unlink path)
  | exception Sys_error _ -> ()

let mkdir dir =
  match Unix.mkdir dir 0o755 with
  | () ->
      Fault.record (Mkdir dir);
      fsync_dir (Filename.dirname dir)
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* On any failure before the rename, simulated crashes included, the
   channel is closed and the temp file removed, so the old file
   survives untouched and no .tmp leaks. *)
let replace site path data =
  let tmp = path ^ ".tmp" in
  let attempt () =
    Fault.hit (site ^ ".open");
    let oc = open_out_bin tmp in
    Fault.record (Create tmp);
    let written = ref false in
    Fun.protect
      ~finally:(fun () ->
        if not !written then begin
          close_out_noerr oc;
          remove tmp
        end)
      (fun () ->
        Fault.output (site ^ ".write") oc data;
        flush oc;
        Fault.record (Write (tmp, data));
        Fault.hit (site ^ ".sync");
        sys_error Unix.fsync (Unix.descr_of_out_channel oc);
        Fault.record (Fsync tmp);
        close_out oc;
        written := true);
    (match
       Fault.hit (site ^ ".rename");
       Sys.rename tmp path
     with
    | () -> Fault.record (Rename (tmp, path))
    | exception e ->
        remove tmp;
        raise e);
    Fault.hit (site ^ ".dirsync");
    fsync_dir (Filename.dirname path)
  in
  Fault.with_retry attempt

type log = { path : string; oc : out_channel; unflushed : Buffer.t }

let append site log data =
  Fault.output site log.oc data;
  if Option.is_some !Fault.recorder then Buffer.add_string log.unflushed data

let flush log =
  Stdlib.flush log.oc;
  if Buffer.length log.unflushed > 0 then begin
    Fault.record (Write (log.path, Buffer.contents log.unflushed));
    Buffer.clear log.unflushed
  end

let open_log ?header path =
  let created = header <> None || not (Sys.file_exists path) in
  let mode = if header = None then [ Open_append ] else [ Open_wronly; Open_trunc ] in
  let oc = open_out_gen (Open_creat :: Open_binary :: mode) 0o644 path in
  if created then Fault.record (Create path);
  Option.iter
    (fun h ->
      output_string oc h;
      Stdlib.flush oc;
      Fault.record (Write (path, h)))
    header;
  { path; oc; unflushed = Buffer.create 0 }

let sync log =
  flush log;
  sys_error Unix.fsync (Unix.descr_of_out_channel log.oc);
  Fault.record (Fsync log.path)

let close log =
  flush log;
  close_out log.oc

(* Bytes still buffered in the channel must never reach the file, not
   at close and not when the runtime flushes every channel at exit:
   pointing the descriptor at /dev/null before closing discards them. *)
let discard log =
  Buffer.clear log.unflushed;
  (try
     let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
     Unix.dup2 null (Unix.descr_of_out_channel log.oc);
     Unix.close null
   with Unix.Unix_error _ -> ());
  close_out_noerr log.oc
