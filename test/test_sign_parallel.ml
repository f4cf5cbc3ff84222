(* Pooled commit-signing determinism.

   Engine.commit stages records sequentially, signs them across the
   domain pool, then appends/journals sequentially — so an engine with
   a pool attached must produce records, checksums, WAL bytes and
   Merkle roots byte-identical to the sequential engine, including
   through the aggregate/complex-op path and with a Delay failpoint
   perturbing signer completion order.  The @sign-parallel CI gate
   runs this binary under TEP_DOMAINS=4. *)
open Tep_store
open Tep_tree
open Tep_core
module Pool = Tep_parallel.Pool
module Fault = Tep_fault.Fault

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let ( let* ) = Result.bind

type env = {
  eng : Engine.t;
  alice : Participant.t;
  dir : string;
  wal_path : string;
  wal : Wal.t;
}

let temp_dir tag =
  let d = Filename.temp_file ("sign-par-" ^ tag) "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

(* Both engines are built from the same DRBG seed, so participants,
   keys and the initial database are bit-for-bit identical; only the
   pool differs. *)
let make_env ?pool ?(rows = 8) tag =
  let drbg = Tep_crypto.Drbg.create ~seed:"sign-parallel" in
  let ca = Tep_crypto.Pki.create_ca ~name:"CA" drbg in
  let dir_ =
    Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
  in
  let alice = Participant.create ~ca ~name:"alice" drbg in
  Participant.Directory.register dir_ alice;
  let db = Database.create ~name:"signdb" in
  let t =
    ok (Database.create_table db ~name:"t" (Schema.all_int [ "a"; "b"; "c" ]))
  in
  for i = 0 to rows - 1 do
    ignore
      (Table.insert t [| Value.Int i; Value.Int (i * 2); Value.Int (i * 3) |])
  done;
  let dir = temp_dir tag in
  let wal_path = Filename.concat dir "wal.log" in
  let wal = Wal.open_file wal_path in
  let eng = Engine.create ?pool ~wal ~directory:dir_ db in
  { eng; alice; dir; wal_path; wal }

let cell env row col =
  match Tree_view.cell_oid (Engine.mapping env.eng) "t" row col with
  | Some o -> o
  | None -> Alcotest.fail (Printf.sprintf "no cell (%d,%d)" row col)

(* The canonical workload: a wide multi-op complex operation (many
   records in one commit); then one complex op that re-updates a
   tracked cell and chains two aggregates — the second cites the
   first's output, so its seq_id depends on seeing the sibling record
   assigned earlier in the SAME commit (the in-commit visibility the
   staged pipeline must replay), while untracked inputs get their
   Imports mid-body; then a singleton aggregate over tracked objects
   and a singleton update. *)
let workload env =
  let eng = env.eng and alice = env.alice in
  let (), _ =
    ok
      (Engine.complex_op eng alice (fun () ->
           let* () =
             Engine.update_cell eng alice ~table:"t" ~row:0 ~col:0
               (Value.Int 100)
           in
           let* () =
             Engine.update_cell eng alice ~table:"t" ~row:1 ~col:1
               (Value.Int 101)
           in
           let* () =
             Engine.update_cell eng alice ~table:"t" ~row:2 ~col:2
               (Value.Int 102)
           in
           let* () =
             Engine.update_cell eng alice ~table:"t" ~row:4 ~col:0
               (Value.Int 103)
           in
           let* _row =
             Engine.insert_row eng alice ~table:"t"
               [| Value.Int 90; Value.Int 91; Value.Int 92 |]
           in
           Ok ()))
  in
  let c40 = cell env 4 0 and c51 = cell env 5 1 and c62 = cell env 6 2 in
  let b2, _ =
    ok
      (Engine.complex_op eng alice (fun () ->
           let* () =
             (* tracked since the first commit; updated again in the
                same batch its aggregate consumer is staged in *)
             Engine.update_cell eng alice ~table:"t" ~row:4 ~col:0
               (Value.Int 200)
           in
           let* b1 = Engine.aggregate_objects eng alice [ c40; c51 ] in
           Engine.aggregate_objects eng alice [ b1; c62 ]))
  in
  let _b3, _ =
    ok
      (Engine.complex_op eng alice (fun () ->
           Engine.aggregate_objects eng alice [ b2; cell env 7 2 ]))
  in
  ok (Engine.update_cell env.eng env.alice ~table:"t" ~row:7 ~col:1 (Value.Int 300))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

type fingerprint = { records : string; root : string; wal_bytes : string }

let fingerprint env =
  let records =
    String.concat "\n"
      (List.map Record.encoded (Provstore.all (Engine.provstore env.eng)))
  in
  let root = Engine.root_hash env.eng in
  Wal.close env.wal;
  let wal_bytes = read_file env.wal_path in
  { records; root; wal_bytes }

let cleanup env =
  (try Sys.remove env.wal_path with Sys_error _ -> ());
  try Unix.rmdir env.dir with Unix.Unix_error _ -> ()

let run_sequential ?rows () =
  let env = make_env ?rows "seq" in
  workload env;
  let fp = fingerprint env in
  cleanup env;
  fp

let run_pooled ?arm ?rows domains =
  let pool = Pool.create ~domains () in
  let env = make_env ~pool ?rows (Printf.sprintf "pool%d" domains) in
  (match arm with Some f -> f () | None -> ());
  workload env;
  Fault.reset ();
  let m = Engine.total_metrics env.eng in
  let fp = fingerprint env in
  cleanup env;
  Pool.shutdown pool;
  (fp, m)

let check_identical tag (a : fingerprint) (b : fingerprint) =
  Alcotest.(check string) (tag ^ ": merkle root") a.root b.root;
  Alcotest.(check string)
    (tag ^ ": record bytes (sha256)")
    (Tep_crypto.Sha256.hex a.records)
    (Tep_crypto.Sha256.hex b.records);
  Alcotest.(check bool) (tag ^ ": record bytes") true (a.records = b.records);
  Alcotest.(check string)
    (tag ^ ": wal bytes (sha256)")
    (Tep_crypto.Sha256.hex a.wal_bytes)
    (Tep_crypto.Sha256.hex b.wal_bytes);
  Alcotest.(check bool) (tag ^ ": wal bytes") true (a.wal_bytes = b.wal_bytes)

let test_pooled_identical () =
  let seq = run_sequential () in
  Alcotest.(check bool) "workload emitted records" true (seq.records <> "");
  List.iter
    (fun domains ->
      let fp, m = run_pooled domains in
      check_identical (Printf.sprintf "%d domains" domains) seq fp;
      Alcotest.(check bool) "sign times recorded" true
        (m.Engine.sign_s > 0. && m.Engine.sign_cpu_s > 0.))
    [ 2; 4 ]

(* A table past the 32-child threshold commits through a chunk tree:
   the pooled cold pass at start-up builds it on worker domains, the
   commits splice into it, and everything stays byte-identical. *)
let test_pooled_identical_wide () =
  let seq = run_sequential ~rows:300 () in
  List.iter
    (fun domains ->
      let fp, _ = run_pooled ~rows:300 domains in
      check_identical (Printf.sprintf "wide table, %d domains" domains) seq fp)
    [ 2; 4 ]

(* TEP_DOMAINS is how deployments size the pool; the CI gate sets it
   to 4 and this case must follow it. *)
let test_default_domains_identical () =
  let seq = run_sequential () in
  let fp, _ = run_pooled (Pool.default_domains ()) in
  check_identical "default domains" seq fp

(* A Delay inside the signing stage stalls one signer while the rest
   of the fan-out completes — slot-indexed result placement must keep
   the output byte-identical anyway. *)
let test_delay_failpoint_identical () =
  let seq = run_sequential () in
  let fp, _ =
    run_pooled 4 ~arm:(fun () ->
        Fault.arm ~after:3 "engine.commit.sign" (Fault.Delay 0.02))
  in
  check_identical "delayed signer" seq fp

(* The failpoint actually sits on the signing path: a Crash armed on
   it must abort the commit before anything reaches the provstore or
   the WAL. *)
let test_crash_failpoint_aborts_commit () =
  let env = make_env "crash" in
  Fault.arm "engine.commit.sign" Fault.Crash_point;
  (match
     Engine.update_cell env.eng env.alice ~table:"t" ~row:0 ~col:0
       (Value.Int 1)
   with
  | exception Fault.Crash _ -> ()
  | Ok _ -> Alcotest.fail "commit should have crashed in the signer"
  | Error e -> Alcotest.fail ("unexpected error instead of crash: " ^ e));
  Fault.reset ();
  Alcotest.(check int) "nothing appended" 0
    (List.length (Provstore.all (Engine.provstore env.eng)));
  Wal.close env.wal;
  (* only WAL frames from the relational pre-commit log may exist; no
     commit marker means recovery rolls them back *)
  let entries = try Wal.read_file env.wal_path with _ -> [] in
  cleanup env;
  Alcotest.(check bool) "no commit marker" true
    (not (List.exists (function Wal.Commit _ -> true | _ -> false) entries))

let () =
  Alcotest.run "sign-parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "pooled = sequential (2,4 domains)" `Quick
            test_pooled_identical;
          Alcotest.test_case "pooled = sequential, wide table" `Quick
            test_pooled_identical_wide;
          Alcotest.test_case "TEP_DOMAINS pool = sequential" `Quick
            test_default_domains_identical;
          Alcotest.test_case "delayed signer = sequential" `Quick
            test_delay_failpoint_identical;
          Alcotest.test_case "crash in signer aborts commit" `Quick
            test_crash_failpoint_aborts_commit;
        ] );
    ]
