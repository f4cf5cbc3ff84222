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
let site_truncate = Durable.site "wal.truncate"

let () =
  List.iter Tep_fault.Fault.register [ site_open; site_append; site_flush; site_sync ]

type file_state = {
  path : string;
  mutable log : Durable.log;
  sync_every_append : bool;
  mutable fenced : bool; (* a write failed persistently: refuse all *)
}

type sink = Memory of (int * entry) list ref | File of file_state

type t = { sink : sink; mutable count : int; mutable next_seq : int }

(* ------------------------------------------------------------------ *)
(* Entry codec                                                         *)
(* ------------------------------------------------------------------ *)

let encode_cells buf cells =
  Value.add_varint buf (Array.length cells);
  Array.iter (Value.encode buf) cells

let add_ints buf l =
  Value.add_varint buf (List.length l);
  List.iter (Value.add_varint buf) l

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

let read_entry r =
  match Codec.byte r with
  | 0x01 ->
      let name = Codec.string r in
      Create_table (name, Schema.read r)
  | 0x03 ->
      let tbl = Codec.string r in
      let id = Codec.varint r in
      Insert_row (tbl, id, Codec.array r Value.read)
  | 0x04 ->
      let tbl = Codec.string r in
      Delete_row (tbl, Codec.varint r)
  | 0x05 ->
      let tbl = Codec.string r in
      let id = Codec.varint r in
      let col = Codec.varint r in
      Update_cell (tbl, id, col, Value.read r)
  | 0x07 -> Commit (Codec.string r)
  | 0x08 -> Blob (Codec.string r)
  | 0x09 ->
      let txid = Codec.string r in
      Prepare (txid, Codec.string r)
  | 0x0a ->
      let txid = Codec.string r in
      Decide (txid, Codec.list r Codec.varint)
  | 0x0b ->
      let v = Value.read r in
      Aggregate (v, Codec.list r Codec.varint)
  | c -> Codec.fail r "bad tag %#x" c

let decode_entry = Codec.at ~what:"Wal.decode_entry" read_entry

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
  let r = Codec.reader ~what:"Wal frame" ~pos:off s in
  match Codec.varint r with
  | exception Codec.Error e ->
      (* a varint cut off by EOF is torn; an overlong one is corrupt *)
      if e.truncated then Past_eof else Bad
  | flen ->
      let o = Codec.pos r in
      if flen < 6 || flen > max_frame_len then Bad
      else if o + flen > len then Past_eof
      else begin
        let stored_crc = Tep_crypto.Crc32.read_be s (o + flen - 4) in
        if Tep_crypto.Crc32.compute s o (flen - 4) <> stored_crc then Bad
        else
          let body =
            Codec.reader ~what:"Wal frame" ~pos:o ~stop:(o + flen - 4) s
          in
          match
            let seq = Codec.varint body in
            let e = read_entry body in
            Codec.finish body;
            (seq, e)
          with
          | exception Codec.Error _ -> Bad
          | seq, e -> if seq < min_seq then Bad else Frame (seq, e, o + flen)
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
  let r = Codec.reader ~what:"Wal header" ~pos:magic_len s in
  match Codec.varint r with
  | exception Codec.Error e ->
      (* header base unreadable: nothing salvageable *)
      ( 0,
        {
          entries = [];
          skipped_frames = (if e.truncated then 0 else 1);
          torn_tail = e.truncated;
          bytes_salvaged = 0;
        } )
  | base ->
      ( base,
        salvage_v2_frames s ~len:(String.length s) ~base ~start:(Codec.pos r) )

let empty_salvage =
  { entries = []; skipped_frames = 0; torn_tail = false; bytes_salvaged = 0 }

(* A fresh log's header: magic · varint(base_seq = 0). *)
let fresh_header = magic ^ "\x00"

(* A crash while a fresh log was being stamped leaves a strict prefix
   of its header (possibly nothing): no frame was ever appended. *)
let is_header_prefix s =
  String.length s < String.length fresh_header
  && String.starts_with ~prefix:s fresh_header

(* (next expected sequence number, salvage), or [Error ()] for a file
   that is not a v2 log.  A damaged magic is refused rather than
   salvaged as empty: every acknowledged write in the file would
   otherwise vanish without a report. *)
let salvage_with_base s =
  if is_header_prefix s then Ok (0, empty_salvage)
  else if String.starts_with ~prefix:magic s then begin
    let base, sv = salvage_v2 s in
    let next =
      match List.rev sv.entries with (seq, _) :: _ -> seq + 1 | [] -> base
    in
    Ok (next, sv)
  end
  else Error ()

let bad_header path =
  Printf.sprintf "%s is not a write-ahead log: its %S header is damaged" path
    (String.trim magic)

let salvage_file path =
  match Durable.read path with
  | exception Sys_error e -> Error e
  | s -> (
      match salvage_with_base s with
      | Ok (_, sv) -> Ok sv
      | Error () -> Error (bad_header path))

let read_file path =
  match salvage_file path with
  | Ok sv -> List.map snd sv.entries
  | Error e -> raise (Sys_error e)

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let in_memory () = { sink = Memory (ref []); count = 0; next_seq = 0 }

let open_file ?(sync = false) path =
  Tep_fault.Fault.hit site_open;
  let existing = if Sys.file_exists path then Durable.read path else "" in
  match salvage_with_base existing with
  | Error () -> raise (Sys_error (bad_header path))
  | Ok (next_seq, _) ->
      (* a fresh log is stamped with its header (magic + base seq 0) *)
      let header = if is_header_prefix existing then Some fresh_header else None in
      let log = Durable.open_log ?header path in
      {
        sink = File { path; log; sync_every_append = sync; fenced = false };
        count = 0;
        next_seq;
      }

let last_seq t = t.next_seq - 1

let fenced t = match t.sink with Memory _ -> false | File fs -> fs.fenced

(* A write that failed persistently fences the handle.  Its commit is
   answered as failed, so the frames still buffered in the channel
   must never reach the file. *)
let fence fs e =
  fs.fenced <- true;
  Durable.discard fs.log;
  Error e

(* [f ()] with transient errors retried; a persistent one fences. *)
let guarded fs f =
  if fs.fenced then Error "the log is fenced after a failed write"
  else
    match Tep_fault.Fault.with_retry f with
    | Ok () -> Ok ()
    | Error e -> fence fs e

let sync_log fs =
  Tep_fault.Fault.hit site_flush;
  Durable.flush fs.log;
  Tep_fault.Fault.hit site_sync;
  Durable.sync fs.log

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
      encode_frame frame ~seq entry;
      let bytes = Buffer.contents frame in
      match
        guarded fs (fun () ->
            Durable.append site_append fs.log bytes;
            if fs.sync_every_append then sync_log fs)
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
      guarded fs (fun () ->
          Tep_fault.Fault.hit site_flush;
          Durable.flush fs.log)

let sync t =
  match t.sink with
  | Memory _ -> Ok ()
  | File fs -> guarded fs (fun () -> sync_log fs)

let close t = match t.sink with Memory _ -> () | File fs -> Durable.close fs.log

let checkpoint t =
  match sync t with Ok () -> Ok (last_seq t) | Error e -> Error e

let truncate t ~upto =
  match t.sink with
  | Memory r ->
      r := List.filter (fun (s, _) -> s > upto) !r;
      Ok ()
  | File fs ->
      let ( let* ) = Result.bind in
      Result.map_error (fun e -> "Wal.truncate: " ^ e)
        (let* () = flush t in
         let* sv = salvage_file fs.path in
         let buf = Buffer.create 4096 in
         Buffer.add_string buf magic;
         (* base seq: where numbering resumes if no frame survives *)
         Value.add_varint buf (upto + 1);
         List.iter
           (fun (seq, e) -> if seq > upto then encode_frame buf ~seq e)
           sv.entries;
         let replaced =
           Durable.replace site_truncate fs.path (Buffer.contents buf)
         in
         (* reopen even on failure: a rename may have happened *)
         Durable.close fs.log;
         fs.log <- Durable.open_log fs.path;
         replaced)

let entries t =
  match t.sink with
  | Memory r -> List.rev_map snd !r
  | File fs ->
      Durable.flush fs.log;
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
