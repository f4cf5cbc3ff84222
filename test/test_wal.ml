(* Write-ahead log: entry codec, replay, v2 framing, salvage-mode
   reading (torn tails, mid-file corruption, resync), damaged-header
   refusal, truncation, and exhaustive corruption property tests. *)
open Tep_store

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let wok = function Ok () -> () | Error e -> Alcotest.fail ("wal: " ^ e)

let sample_entries =
  [
    Wal.Create_table ("t", Schema.all_int [ "a"; "b" ]);
    Wal.Insert_row ("t", 0, [| Value.Int 1; Value.Int 2 |]);
    Wal.Insert_row ("t", 1, [| Value.Int 3; Value.Int 4 |]);
    Wal.Update_cell ("t", 0, 1, Value.Int 42);
    Wal.Update_cell ("t", 1, 0, Value.Int 5);
    Wal.Delete_row ("t", 0);
    Wal.Blob "opaque payload \x00\x01\x02";
    Wal.Commit (String.make 32 '\xab');
    Wal.Aggregate (Value.Text "agg", [ 2; 5 ]);
  ]

let entry_bytes e =
  let buf = Buffer.create 64 in
  Wal.encode_entry buf e;
  Buffer.contents buf

let check_entry msg expected actual =
  Alcotest.(check string) msg (entry_bytes expected) (entry_bytes actual)

let test_entry_codec () =
  List.iter
    (fun e ->
      let buf = Buffer.create 64 in
      Wal.encode_entry buf e;
      let e', off = Wal.decode_entry (Buffer.contents buf) 0 in
      Alcotest.(check int) "consumed" (Buffer.length buf) off;
      check_entry "stable" e e')
    sample_entries

let test_is_relational () =
  Alcotest.(check int)
    "relational entries" 6
    (List.length (List.filter Wal.is_relational sample_entries))

(* 0x02 and 0x06 were Drop_table and Update_row, which nothing wrote;
   a frame carrying either tag is now corrupt, not a mutation. *)
let test_retired_tags () =
  List.iter
    (fun tag ->
      let buf = Buffer.create 16 in
      Buffer.add_char buf tag;
      Value.add_string buf "t";
      match Wal.decode_entry (Buffer.contents buf) 0 with
      | _ -> Alcotest.failf "tag %#x decoded" (Char.code tag)
      | exception Failure msg ->
          Alcotest.(check string) "bad tag"
            (Printf.sprintf "Wal.decode_entry: bad tag %#x" (Char.code tag))
            msg)
    [ '\x02'; '\x06' ]

let test_memory_log () =
  let w = Wal.in_memory () in
  List.iter (fun e -> wok (Wal.append w e)) sample_entries;
  Alcotest.(check int) "count" (List.length sample_entries) (Wal.entry_count w);
  Alcotest.(check int) "entries" (List.length sample_entries)
    (List.length (Wal.entries w));
  Alcotest.(check int) "last_seq" (List.length sample_entries - 1)
    (Wal.last_seq w)

let test_replay () =
  let w = Wal.in_memory () in
  (* every sample, the backend-neutral Aggregate included *)
  List.iter (fun e -> wok (Wal.append w e)) sample_entries;
  let db = Database.create ~name:"replayed" in
  ok (Wal.replay (Wal.entries w) db);
  let t = Database.get_table_exn db "t" in
  Alcotest.(check int) "one row left" 1 (Table.row_count t);
  match Table.get t 1 with
  | Some r ->
      Alcotest.(check bool)
        "updated row" true
        (Value.equal r.Table.cells.(0) (Value.Int 5))
  | None -> Alcotest.fail "row 1 missing"

let test_replay_error () =
  let db = Database.create ~name:"x" in
  match Wal.replay [ Wal.Insert_row ("ghost", 0, [||]) ] db with
  | Ok () -> Alcotest.fail "insert into missing table accepted"
  | Error _ -> ()

let with_temp_file f =
  let path = Filename.temp_file "tep_wal" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () -> f path)

let write_log path entries =
  Sys.remove path;
  let w = Wal.open_file path in
  List.iter (fun e -> wok (Wal.append w e)) entries;
  Wal.close w

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_file_log_roundtrip () =
  with_temp_file (fun path ->
      write_log path (List.filteri (fun i _ -> i < 8) sample_entries);
      let db = Database.create ~name:"replayed" in
      let n = ok (Wal.load_and_replay path db) in
      Alcotest.(check int) "entries" 8 n;
      Alcotest.(check int) "rows" 1
        (Table.row_count (Database.get_table_exn db "t")))

let test_file_magic () =
  with_temp_file (fun path ->
      write_log path [ List.hd sample_entries ];
      let s = read_bytes path in
      Alcotest.(check string) "v2 magic" "TEPWAL2\n" (String.sub s 0 8))

let test_file_log_append_sessions () =
  with_temp_file (fun path ->
      write_log path [ List.nth sample_entries 0 ];
      let w2 = Wal.open_file path in
      Alcotest.(check int) "resumed seq" 0 (Wal.last_seq w2);
      wok (Wal.append w2 (List.nth sample_entries 1));
      Alcotest.(check int) "advanced seq" 1 (Wal.last_seq w2);
      Wal.close w2;
      let w3 = Wal.open_file path in
      Alcotest.(check int) "both sessions" 2 (List.length (Wal.entries w3));
      Wal.close w3)

let test_torn_tail () =
  with_temp_file (fun path ->
      write_log path
        [ List.nth sample_entries 0; List.nth sample_entries 1 ];
      let content = read_bytes path in
      write_bytes path (String.sub content 0 (String.length content - 3));
      let sv = ok (Wal.salvage_file path) in
      Alcotest.(check int) "only intact frames" 1
        (List.length sv.Wal.entries);
      Alcotest.(check bool) "torn tail" true sv.Wal.torn_tail;
      Alcotest.(check int) "no mid-file skip" 0 sv.Wal.skipped_frames;
      (* re-opening a torn log resumes after the last intact frame *)
      let w = Wal.open_file path in
      Alcotest.(check int) "resumes at seq 1" 0 (Wal.last_seq w);
      Wal.close w)

(* A flush that fails past its retries fences the handle: the frames
   it held back never reach the file — not through close, and not
   through the flush of every channel that exit performs — and later
   appends are refused. *)
let test_failed_flush_dropped () =
  with_temp_file (fun path ->
      Sys.remove path;
      let w = Wal.open_file path in
      wok (Wal.append w (List.nth sample_entries 0));
      wok (Wal.flush w);
      wok (Wal.append w (List.nth sample_entries 1));
      Tep_fault.Fault.reset ();
      Tep_fault.Fault.arm "wal.flush" (Tep_fault.Fault.Transient 10);
      let flushed = Wal.flush w in
      Tep_fault.Fault.reset ();
      (match flushed with
      | Ok () -> Alcotest.fail "the flush survived its fault"
      | Error _ -> ());
      (match Wal.append w (List.nth sample_entries 2) with
      | Ok () -> Alcotest.fail "an append after the failed flush was taken"
      | Error _ -> ());
      Wal.close w;
      flush_all ();
      Alcotest.(check int) "only the frame flushed before the failure" 1
        (List.length (Wal.read_file path)))

(* Corrupt one byte in the middle of the log: every frame before the
   damage and every intact frame after it must be recovered; exactly
   one damaged region is reported and nothing raises. *)
let test_midfile_corruption_resync () =
  with_temp_file (fun path ->
      let entries = List.filteri (fun i _ -> i < 8) sample_entries in
      write_log path entries;
      let content = read_bytes path in
      (* find the byte span of frame 3 (0-based) to smash it *)
      let b = Bytes.of_string content in
      let mid = String.length content / 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xFF));
      write_bytes path (Bytes.to_string b);
      let sv = ok (Wal.salvage_file path) in
      Alcotest.(check bool) "no torn tail" false sv.Wal.torn_tail;
      Alcotest.(check int) "one damaged region" 1 sv.Wal.skipped_frames;
      (* all surviving frames carry their original seq and payload *)
      List.iter
        (fun (seq, e) ->
          check_entry
            (Printf.sprintf "frame %d intact" seq)
            (List.nth entries seq) e)
        sv.Wal.entries;
      (* at least one frame after the damage was resynchronised *)
      let max_seq =
        List.fold_left (fun m (s, _) -> max m s) (-1) sv.Wal.entries
      in
      Alcotest.(check int) "resynced to the tail" 7 max_seq)

(* ------------------------------------------------------------------ *)
(* Damaged header                                                      *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* One flipped magic byte must not turn a log of acknowledged writes
   into an empty one: salvage refuses it with an error naming the
   file, read_file and open_file raise, and the file is left as it
   was.  A strict prefix of a fresh header (a crash while the log was
   being created) reads as empty and reopens as a fresh log. *)
let test_damaged_magic () =
  with_temp_file (fun path ->
      write_log path (List.filteri (fun i _ -> i < 6) sample_entries);
      let pristine = read_bytes path in
      for off = 0 to 7 do
        let b = Bytes.of_string pristine in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 1));
        let damaged = Bytes.to_string b in
        write_bytes path damaged;
        (match Wal.salvage_file path with
        | Ok sv ->
            Alcotest.failf "offset %d: salvaged %d entries past a damaged magic"
              off (List.length sv.Wal.entries)
        | Error e ->
            Alcotest.(check bool) "the error names the file" true
              (contains e path));
        (match Wal.read_file path with
        | _ ->
            Alcotest.failf "offset %d: read_file accepted a damaged magic" off
        | exception Sys_error _ -> ());
        (match Wal.open_file path with
        | w ->
            Wal.close w;
            Alcotest.failf "offset %d: open_file accepted a damaged magic" off
        | exception Sys_error _ -> ());
        Alcotest.(check string) "file left as it was" damaged (read_bytes path)
      done;
      let fresh_header = "TEPWAL2\n\x00" in
      for cut = 0 to String.length fresh_header - 1 do
        write_bytes path (String.sub fresh_header 0 cut);
        let sv = ok (Wal.salvage_file path) in
        Alcotest.(check int) "a header prefix reads as empty" 0
          (List.length sv.Wal.entries);
        let w = Wal.open_file path in
        wok (Wal.append w (List.hd sample_entries));
        Wal.close w;
        Alcotest.(check int)
          (Printf.sprintf "cut %d: the reopened log keeps its append" cut)
          1
          (List.length (Wal.read_file path))
      done)

(* ------------------------------------------------------------------ *)
(* Truncation                                                          *)
(* ------------------------------------------------------------------ *)

let test_truncate () =
  with_temp_file (fun path ->
      Sys.remove path;
      let w = Wal.open_file path in
      List.iter
        (fun e -> wok (Wal.append w e))
        (List.filteri (fun i _ -> i < 6) sample_entries);
      let lsn = ok (Wal.checkpoint w) in
      Alcotest.(check int) "checkpoint lsn" 5 lsn;
      wok (Wal.append w (List.nth sample_entries 6));
      wok (Wal.append w (List.nth sample_entries 7));
      wok (Wal.truncate w ~upto:lsn);
      (* frames after the LSN survive with their original seqs *)
      let sv = ok (Wal.salvage_file path) in
      Alcotest.(check (list int)) "surviving seqs" [ 6; 7 ]
        (List.map fst sv.Wal.entries);
      (* the handle keeps appending with continuous seqs *)
      wok (Wal.append w (List.nth sample_entries 8));
      Alcotest.(check int) "seq continues" 8 (Wal.last_seq w);
      Wal.close w;
      let sv = ok (Wal.salvage_file path) in
      Alcotest.(check (list int)) "final seqs" [ 6; 7; 8 ]
        (List.map fst sv.Wal.entries))

(* Truncating away EVERY frame must not reset sequence numbering on
   reopen — otherwise frames written after the truncation would carry
   seqs at or below the checkpoint LSN and be discarded by recovery. *)
let test_truncate_to_empty_preserves_seq () =
  with_temp_file (fun path ->
      Sys.remove path;
      let w = Wal.open_file path in
      List.iter
        (fun e -> wok (Wal.append w e))
        (List.filteri (fun i _ -> i < 3) sample_entries);
      wok (Wal.truncate w ~upto:2);
      Wal.close w;
      let w2 = Wal.open_file path in
      Alcotest.(check int) "numbering resumes past LSN" 2 (Wal.last_seq w2);
      wok (Wal.append w2 (List.nth sample_entries 3));
      Wal.close w2;
      let sv = ok (Wal.salvage_file path) in
      Alcotest.(check (list int)) "new frame above LSN" [ 3 ]
        (List.map fst sv.Wal.entries))

(* ------------------------------------------------------------------ *)
(* Exhaustive corruption properties                                    *)
(* ------------------------------------------------------------------ *)

(* For EVERY byte offset: flipping that byte must never make salvage
   raise; inside the magic it must make salvage refuse the file, and
   past it never yield an entry that differs from what was written at
   that sequence number. *)
let test_flip_every_byte () =
  with_temp_file (fun path ->
      let entries = List.filteri (fun i _ -> i < 8) sample_entries in
      write_log path entries;
      let pristine = read_bytes path in
      let expected = Array.of_list (List.map entry_bytes entries) in
      for off = 0 to String.length pristine - 1 do
        for bit = 0 to 2 do
          let b = Bytes.of_string pristine in
          Bytes.set b off
            (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl (bit * 3))));
          write_bytes path (Bytes.to_string b);
          match
            try Wal.salvage_file path
            with e ->
              Alcotest.failf "salvage raised at offset %d: %s" off
                (Printexc.to_string e)
          with
          | Error _ when off < 8 -> ()
          | Error e -> Alcotest.failf "offset %d: %s" off e
          | Ok sv ->
              if off < 8 then
                Alcotest.failf "offset %d: a damaged magic was salvaged" off;
              (* with the magic intact, CRC framing guarantees every
                 salvaged (seq, entry) is exactly what was written *)
              List.iter
                (fun (seq, e) ->
                  if seq < 0 || seq >= Array.length expected then
                    Alcotest.failf "offset %d: invented seq %d" off seq;
                  Alcotest.(check string)
                    (Printf.sprintf "offset %d seq %d" off seq)
                    expected.(seq) (entry_bytes e))
                sv.Wal.entries
        done
      done)

(* For EVERY truncation point: salvage must never raise and must
   return exactly a prefix of the written entries. *)
let test_truncate_every_byte () =
  with_temp_file (fun path ->
      let entries = List.filteri (fun i _ -> i < 8) sample_entries in
      write_log path entries;
      let pristine = read_bytes path in
      let expected = Array.of_list (List.map entry_bytes entries) in
      for cut = 0 to String.length pristine - 1 do
        write_bytes path (String.sub pristine 0 cut);
        let sv =
          try ok (Wal.salvage_file path)
          with e ->
            Alcotest.failf "salvage raised at cut %d: %s" cut
              (Printexc.to_string e)
        in
        Alcotest.(check int)
          (Printf.sprintf "cut %d: no mid-file skip" cut)
          0 sv.Wal.skipped_frames;
        List.iteri
          (fun i (seq, e) ->
            Alcotest.(check int) (Printf.sprintf "cut %d: dense seqs" cut) i seq;
            Alcotest.(check string)
              (Printf.sprintf "cut %d seq %d: prefix" cut seq)
              expected.(seq) (entry_bytes e))
          sv.Wal.entries
      done)

let () =
  Alcotest.run "wal"
    [
      ( "unit",
        [
          Alcotest.test_case "entry codec" `Quick test_entry_codec;
          Alcotest.test_case "is_relational" `Quick test_is_relational;
          Alcotest.test_case "retired tags" `Quick test_retired_tags;
          Alcotest.test_case "memory log" `Quick test_memory_log;
          Alcotest.test_case "replay" `Quick test_replay;
          Alcotest.test_case "replay error" `Quick test_replay_error;
          Alcotest.test_case "file roundtrip" `Quick test_file_log_roundtrip;
          Alcotest.test_case "v2 magic" `Quick test_file_magic;
          Alcotest.test_case "append sessions" `Quick
            test_file_log_append_sessions;
          Alcotest.test_case "torn tail" `Quick test_torn_tail;
          Alcotest.test_case "mid-file corruption resync" `Quick
            test_midfile_corruption_resync;
          Alcotest.test_case "failed flush never written" `Quick
            test_failed_flush_dropped;
        ] );
      ( "header",
        [ Alcotest.test_case "damaged magic" `Quick test_damaged_magic ] );
      ( "truncate",
        [
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "truncate to empty keeps seq" `Quick
            test_truncate_to_empty_preserves_seq;
        ] );
      ( "properties",
        [
          Alcotest.test_case "flip every byte" `Quick test_flip_every_byte;
          Alcotest.test_case "cut every byte" `Quick test_truncate_every_byte;
        ] );
    ]
