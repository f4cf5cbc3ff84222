type entry =
  | Create_table of string * Schema.t
  | Insert_row of string * int * Value.t array
  | Delete_row of string * int
  | Update_cell of string * int * int * Value.t
  | Aggregate of Value.t * int list
  | Commit of string
  | Blob of string
  | Prepare of string * string
  | Decide of string * int list

let is_relational = function
  | Create_table _ | Insert_row _ | Delete_row _ | Update_cell _ -> true
  | Aggregate _ | Commit _ | Blob _ | Prepare _ | Decide _ -> false

type salvage = {
  entries : (int * entry) list;
  skipped_frames : int;
  torn_tail : bool;
  bytes_salvaged : int;
}

let magic = "TEPWAL2\n"
let magic_len = String.length magic

(* Failpoint sites, declared up front so the crash harness can
   enumerate them before any I/O happens. *)
let site_open = "wal.open"
let site_append = "wal.append.frame"
let site_flush = "wal.flush"
let site_sync = "wal.sync"
let site_trunc_write = "wal.truncate.write"
let site_trunc_rename = "wal.truncate.rename"

let () =
  List.iter Tep_fault.Fault.register
    [
      site_open;
      site_append;
      site_flush;
      site_sync;
      site_trunc_write;
      site_trunc_rename;
    ]

type version = V1 | V2

type file_state = {
  path : string;
  mutable oc : out_channel;
  mutable version : version;
  sync_every_append : bool;
}

type sink = Memory of (int * entry) list ref | File of file_state

type t = { sink : sink; mutable count : int; mutable next_seq : int }

(* ------------------------------------------------------------------ *)
(* Entry codec                                                         *)
(* ------------------------------------------------------------------ *)

let encode_cells buf cells =
  Value.add_varint buf (Array.length cells);
  Array.iter (Value.encode buf) cells

let decode_cells s off =
  let n, off = Value.read_varint s off in
  (* every cell costs at least one byte, so a count beyond the
     remaining input is corrupt — reject it before Array.init commits
     to the allocation *)
  if n < 0 || n > String.length s - off then
    failwith "Wal.decode_cells: bad cell count";
  let off = ref off in
  let cells =
    Array.init n (fun _ ->
        let v, o = Value.decode s !off in
        off := o;
        v)
  in
  (cells, !off)

let add_ints buf l =
  Value.add_varint buf (List.length l);
  List.iter (Value.add_varint buf) l

let read_ints s off =
  let n, off = Value.read_varint s off in
  if n < 0 || n > String.length s - off then
    failwith "Wal.decode_entry: bad count";
  let off = ref off in
  let l =
    List.init n (fun _ ->
        let v, o = Value.read_varint s !off in
        off := o;
        v)
  in
  (l, !off)

let encode_entry buf = function
  | Create_table (name, schema) ->
      Buffer.add_char buf '\x01';
      Value.add_string buf name;
      Schema.encode buf schema
  | Insert_row (tbl, id, cells) ->
      Buffer.add_char buf '\x03';
      Value.add_string buf tbl;
      Value.add_varint buf id;
      encode_cells buf cells
  | Delete_row (tbl, id) ->
      Buffer.add_char buf '\x04';
      Value.add_string buf tbl;
      Value.add_varint buf id
  | Update_cell (tbl, id, col, v) ->
      Buffer.add_char buf '\x05';
      Value.add_string buf tbl;
      Value.add_varint buf id;
      Value.add_varint buf col;
      Value.encode buf v
  | Commit root_hash ->
      Buffer.add_char buf '\x07';
      Value.add_string buf root_hash
  | Blob payload ->
      Buffer.add_char buf '\x08';
      Value.add_string buf payload
  | Prepare (txid, root_hash) ->
      Buffer.add_char buf '\x09';
      Value.add_string buf txid;
      Value.add_string buf root_hash
  | Decide (txid, shards) ->
      Buffer.add_char buf '\x0a';
      Value.add_string buf txid;
      add_ints buf shards
  | Aggregate (v, inputs) ->
      Buffer.add_char buf '\x0b';
      Value.encode buf v;
      add_ints buf inputs

let decode_entry s off =
  if off >= String.length s then failwith "Wal.decode_entry: empty";
  match s.[off] with
  | '\x01' ->
      let name, off = Value.read_string s (off + 1) in
      let schema, off = Schema.decode s off in
      (Create_table (name, schema), off)
  | '\x03' ->
      let tbl, off = Value.read_string s (off + 1) in
      let id, off = Value.read_varint s off in
      let cells, off = decode_cells s off in
      (Insert_row (tbl, id, cells), off)
  | '\x04' ->
      let tbl, off = Value.read_string s (off + 1) in
      let id, off = Value.read_varint s off in
      (Delete_row (tbl, id), off)
  | '\x05' ->
      let tbl, off = Value.read_string s (off + 1) in
      let id, off = Value.read_varint s off in
      let col, off = Value.read_varint s off in
      let v, off = Value.decode s off in
      (Update_cell (tbl, id, col, v), off)
  | '\x07' ->
      let h, off = Value.read_string s (off + 1) in
      (Commit h, off)
  | '\x08' ->
      let p, off = Value.read_string s (off + 1) in
      (Blob p, off)
  | '\x09' ->
      let txid, off = Value.read_string s (off + 1) in
      let h, off = Value.read_string s off in
      (Prepare (txid, h), off)
  | '\x0a' ->
      let txid, off = Value.read_string s (off + 1) in
      let shards, off = read_ints s off in
      (Decide (txid, shards), off)
  | '\x0b' ->
      let v, off = Value.decode s (off + 1) in
      let inputs, off = read_ints s off in
      (Aggregate (v, inputs), off)
  | c -> failwith (Printf.sprintf "Wal.decode_entry: bad tag %#x" (Char.code c))

(* ------------------------------------------------------------------ *)
(* v2 framing                                                          *)
(* ------------------------------------------------------------------ *)

(* frame := varint(body_len) · body
   body  := varint(seq) · entry · crc32(varint(seq) · entry), 4B BE *)
let encode_frame buf ~seq entry =
  let seqb = Buffer.create 8 in
  Value.add_varint seqb seq;
  let body = Buffer.create 64 in
  encode_entry body entry;
  Value.add_varint buf (Buffer.length seqb + Buffer.length body + 4);
  Buffer.add_buffer buf seqb;
  Buffer.add_buffer buf body;
  (* the checksum is streamed over the two pieces — no concatenated
     payload string is materialised *)
  let crc = Tep_crypto.Crc32.init () in
  Tep_crypto.Crc32.feed crc (Buffer.contents seqb);
  Tep_crypto.Crc32.feed crc (Buffer.contents body);
  Tep_crypto.Crc32.add_be buf (Tep_crypto.Crc32.finalize crc)

(* An upper bound on plausible frame sizes: anything larger is treated
   as a corrupt length, not a torn tail. *)
let max_frame_len = 1 lsl 28

type parse_result =
  | Frame of int * entry * int  (* seq, entry, next offset *)
  | Past_eof  (* frame extends beyond the file: torn-tail candidate *)
  | Bad  (* unparseable or checksum mismatch: corruption *)

let try_frame s off ~min_seq =
  let len = String.length s in
  match Value.read_varint s off with
  | exception Failure msg ->
      (* a varint cut off by EOF is torn; an overlong one is corrupt *)
      if msg = "Value.decode: truncated varint" then Past_eof else Bad
  | flen, o ->
      if flen < 6 || flen > max_frame_len then Bad
      else if o + flen > len then Past_eof
      else begin
        let stored_crc = Tep_crypto.Crc32.read_be s (o + flen - 4) in
        if Tep_crypto.Crc32.compute s o (flen - 4) <> stored_crc then Bad
        else
          match
            let seq, p = Value.read_varint s o in
            let e, p' = decode_entry s p in
            (seq, e, p')
          with
          | exception (Failure _ | Invalid_argument _) -> Bad
          | seq, e, p' ->
              if p' <> o + flen - 4 then Bad
              else if seq < min_seq then Bad
              else Frame (seq, e, o + flen)
      end

(* v2 header: magic · varint(base_seq).  [base_seq] is the sequence
   number the log's first frame is expected to carry; {!truncate}
   rewrites it so a log truncated to empty still remembers where
   numbering resumes (otherwise a reopen would restart at 0 and
   recovery would discard the new frames as already-checkpointed). *)
let salvage_v2_frames s ~len ~base ~start =
  let entries = ref [] in
  let skipped = ref 0 in
  let torn = ref false in
  let salvaged = ref 0 in
  let last_seq = ref (base - 1) in
  let off = ref start in
  (* [skip_cause]: None = at a clean frame boundary; Some c = scanning
     a damaged region whose first failure was [c]. *)
  let skip_cause = ref None in
  while !off < len do
    match try_frame s !off ~min_seq:(!last_seq + 1) with
    | Frame (seq, e, off') ->
        if !skip_cause <> None then begin
          incr skipped;
          skip_cause := None
        end;
        entries := (seq, e) :: !entries;
        last_seq := seq;
        salvaged := !salvaged + (off' - !off);
        off := off'
    | (Past_eof | Bad) as c ->
        if !skip_cause = None then skip_cause := Some c;
        incr off
  done;
  (match !skip_cause with
  | None -> ()
  | Some Past_eof -> torn := true (* the trailing damage is a torn frame *)
  | Some _ -> incr skipped);
  {
    entries = List.rev !entries;
    skipped_frames = !skipped;
    torn_tail = !torn;
    bytes_salvaged = !salvaged;
  }

(* Returns (base_seq, salvage). *)
let salvage_v2 s =
  let len = String.length s in
  match Value.read_varint s magic_len with
  | exception Failure msg ->
      (* header base unreadable: nothing salvageable *)
      ( 0,
        {
          entries = [];
          skipped_frames =
            (if msg = "Value.decode: truncated varint" then 0 else 1);
          torn_tail = msg = "Value.decode: truncated varint";
          bytes_salvaged = 0;
        } )
  | base, header_end -> (base, salvage_v2_frames s ~len ~base ~start:header_end)

(* v1 has no checksums, so there is no reliable way to re-synchronise
   after damage: salvage everything up to the first bad frame. *)
let salvage_v1 s =
  let len = String.length s in
  let entries = ref [] in
  let skipped = ref 0 in
  let torn = ref false in
  let salvaged = ref 0 in
  let seq = ref 0 in
  let off = ref 0 in
  let stop = ref false in
  while (not !stop) && !off < len do
    match Value.read_varint s !off with
    | exception Failure msg ->
        if msg = "Value.decode: truncated varint" then torn := true
        else incr skipped;
        stop := true
    | flen, o ->
        if flen <= 0 || flen > max_frame_len then begin
          incr skipped;
          stop := true
        end
        else if o + flen > len then begin
          torn := true;
          stop := true
        end
        else begin
          match decode_entry s o with
          | exception (Failure _ | Invalid_argument _) ->
              incr skipped;
              stop := true
          | e, o' ->
              if o' <> o + flen then begin
                incr skipped;
                stop := true
              end
              else begin
                entries := (!seq, e) :: !entries;
                incr seq;
                salvaged := !salvaged + (o + flen - !off);
                off := o + flen
              end
        end
  done;
  {
    entries = List.rev !entries;
    skipped_frames = !skipped;
    torn_tail = !torn;
    bytes_salvaged = !salvaged;
  }

let is_v2 s = String.length s >= magic_len && String.sub s 0 magic_len = magic

(* (next expected sequence number, salvage) *)
let salvage_with_base s =
  if s = "" then
    (0, { entries = []; skipped_frames = 0; torn_tail = false; bytes_salvaged = 0 })
  else if is_v2 s then begin
    let base, sv = salvage_v2 s in
    let next =
      match List.rev sv.entries with (seq, _) :: _ -> seq + 1 | [] -> base
    in
    (next, sv)
  end
  else begin
    let sv = salvage_v1 s in
    (List.length sv.entries, sv)
  end

let salvage_string s = snd (salvage_with_base s)

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let salvage_file path =
  match read_whole path with
  | s -> Ok (salvage_string s)
  | exception Sys_error e -> Error e

let read_file path = List.map snd (salvage_string (read_whole path)).entries

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let in_memory () = { sink = Memory (ref []); count = 0; next_seq = 0 }

let fsync_oc oc =
  try Unix.fsync (Unix.descr_of_out_channel oc)
  with Unix.Unix_error (e, _, _) -> raise (Sys_error (Unix.error_message e))

let open_append path =
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

let open_file ?(sync = false) path =
  Tep_fault.Fault.hit site_open;
  let existing = try read_whole path with Sys_error _ -> "" in
  if existing = "" then begin
    (* Fresh log: stamp the v2 header (magic + base seq 0) first. *)
    let oc = open_append path in
    output_string oc magic;
    let hdr = Buffer.create 2 in
    Value.add_varint hdr 0;
    Buffer.output_buffer oc hdr;
    Stdlib.flush oc;
    {
      sink = File { path; oc; version = V2; sync_every_append = sync };
      count = 0;
      next_seq = 0;
    }
  end
  else begin
    let version = if is_v2 existing then V2 else V1 in
    let next_seq, _sv = salvage_with_base existing in
    let oc = open_append path in
    {
      sink = File { path; oc; version; sync_every_append = sync };
      count = 0;
      next_seq;
    }
  end

let last_seq t = t.next_seq - 1

let append t entry =
  match t.sink with
  | Memory r ->
      let seq = t.next_seq in
      r := (seq, entry) :: !r;
      t.next_seq <- seq + 1;
      t.count <- t.count + 1;
      Ok ()
  | File fs -> (
      let seq = t.next_seq in
      let frame = Buffer.create 96 in
      (match fs.version with
      | V2 -> encode_frame frame ~seq entry
      | V1 ->
          let body = Buffer.create 64 in
          encode_entry body entry;
          Value.add_varint frame (Buffer.length body);
          Buffer.add_buffer frame body);
      let bytes = Buffer.contents frame in
      match
        Tep_fault.Fault.with_retry (fun () ->
            Tep_fault.Fault.output site_append fs.oc bytes;
            if fs.sync_every_append then begin
              Tep_fault.Fault.hit site_flush;
              Stdlib.flush fs.oc;
              Tep_fault.Fault.hit site_sync;
              fsync_oc fs.oc
            end)
      with
      | Ok () ->
          t.next_seq <- seq + 1;
          t.count <- t.count + 1;
          Ok ()
      | Error e -> Error ("Wal.append: " ^ e))

let flush t =
  match t.sink with
  | Memory _ -> Ok ()
  | File fs ->
      Tep_fault.Fault.with_retry (fun () ->
          Tep_fault.Fault.hit site_flush;
          Stdlib.flush fs.oc)

let sync t =
  match t.sink with
  | Memory _ -> Ok ()
  | File fs ->
      Tep_fault.Fault.with_retry (fun () ->
          Tep_fault.Fault.hit site_flush;
          Stdlib.flush fs.oc;
          Tep_fault.Fault.hit site_sync;
          fsync_oc fs.oc)

let close t = match t.sink with Memory _ -> () | File fs -> close_out fs.oc

let checkpoint t =
  match sync t with Ok () -> Ok (last_seq t) | Error e -> Error e

let truncate t ~upto =
  match t.sink with
  | Memory r ->
      r := List.filter (fun (s, _) -> s > upto) !r;
      Ok ()
  | File fs -> (
      match flush t with
      | Error e -> Error ("Wal.truncate: " ^ e)
      | Ok () -> (
          match salvage_file fs.path with
          | Error e -> Error ("Wal.truncate: " ^ e)
          | Ok sv -> (
              let keep = List.filter (fun (s, _) -> s > upto) sv.entries in
              let buf = Buffer.create 4096 in
              Buffer.add_string buf magic;
              (* base seq: where numbering resumes if no frame survives *)
              Value.add_varint buf (upto + 1);
              List.iter (fun (seq, e) -> encode_frame buf ~seq e) keep;
              let data = Buffer.contents buf in
              let tmp = fs.path ^ ".tmp" in
              let write_tmp () =
                let oc = open_out_bin tmp in
                let ok = ref false in
                Fun.protect
                  ~finally:(fun () ->
                    if not !ok then begin
                      close_out_noerr oc;
                      try Sys.remove tmp with Sys_error _ -> ()
                    end)
                  (fun () ->
                    Tep_fault.Fault.output site_trunc_write oc data;
                    Stdlib.flush oc;
                    fsync_oc oc;
                    close_out oc;
                    ok := true)
              in
              match Tep_fault.Fault.with_retry write_tmp with
              | Error e -> Error ("Wal.truncate: " ^ e)
              | Ok () -> (
                  close_out_noerr fs.oc;
                  let rename () =
                    Tep_fault.Fault.hit site_trunc_rename;
                    Sys.rename tmp fs.path
                  in
                  match rename () with
                  | () ->
                      fs.oc <- open_append fs.path;
                      fs.version <- V2;
                      Ok ()
                  | exception Sys_error e ->
                      (try Sys.remove tmp with Sys_error _ -> ());
                      fs.oc <- open_append fs.path;
                      Error ("Wal.truncate: rename: " ^ e)))))

let entries t =
  match t.sink with
  | Memory r -> List.rev_map snd !r
  | File fs ->
      Stdlib.flush fs.oc;
      read_file fs.path

let entry_count t = t.count

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let apply db = function
  | Create_table (name, schema) -> (
      match Database.create_table db ~name schema with
      | Ok _ -> Ok ()
      | Error e -> Error e)
  | Insert_row (tbl, id, cells) -> (
      match Database.get_table db tbl with
      | None -> Error (Printf.sprintf "insert: no table %s" tbl)
      | Some t -> Table.insert_with_id t id cells)
  | Delete_row (tbl, id) -> (
      match Database.get_table db tbl with
      | None -> Error (Printf.sprintf "delete: no table %s" tbl)
      | Some t ->
          if Table.delete t id then Ok ()
          else Error (Printf.sprintf "delete: no row %d in %s" id tbl))
  | Update_cell (tbl, id, col, v) -> (
      match Database.get_table db tbl with
      | None -> Error (Printf.sprintf "update: no table %s" tbl)
      | Some t -> (
          match Table.update_cell t id col v with
          | Ok _ -> Ok ()
          | Error e -> Error e))
  | Aggregate _ | Commit _ | Blob _ | Prepare _ | Decide _ -> Ok ()

let replay entries db =
  List.fold_left
    (fun acc e -> match acc with Error _ -> acc | Ok () -> apply db e)
    (Ok ()) entries

let load_and_replay path db =
  match salvage_file path with
  | Error e -> Error e
  | Ok sv ->
      let entries = List.map snd sv.entries in
      (match replay entries db with
      | Ok () -> Ok (List.length entries)
      | Error e -> Error e)
