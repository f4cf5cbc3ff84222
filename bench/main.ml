(* Benchmark harness.

   Two layers:
   1. Bechamel micro-benchmarks — one [Test.make] per primitive cost
      centre (hashing, signing, verification, end-to-end checksummed
      cell update).
   2. The figure/table harness — regenerates every table and figure of
      the paper's Section 5 as CSV series (see DESIGN.md's
      per-experiment index).

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig7      # one experiment
     TEP_SCALE=full dune exec bench/main.exe   # paper-size workloads *)

open Tep_store
open Tep_core
open Tep_workload

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

(* BENCH_*.json trajectory files are written next to the invocation
   cwd so successive runs can be diffed / committed.  Disabled with
   TEP_BENCH_JSON=0 (the dune bench-smoke alias does this: rule
   actions run inside _build, where stray outputs are unwelcome). *)
let json_enabled () =
  match Sys.getenv_opt "TEP_BENCH_JSON" with Some "0" -> false | _ -> true

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path contents =
  if json_enabled () then begin
    let oc = open_out path in
    output_string oc contents;
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" path
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* Each stateful benchmark builds its own environment, engine and
   counters inside its own closure: nothing is shared between tests,
   so Bechamel's interleaved runs cannot contaminate one another
   (previously one engine + one counter were threaded through the
   whole suite, so e.g. rsa-sign measurements ran against a store
   already mutated by engine-update-cell iterations). *)

let crypto_micro_tests cfg =
  let open Bechamel in
  let payload = String.make 256 'x' in
  let payload_4k = String.make 4096 'x' in
  let signer =
    let env = Scenario.make_env ~seed:"bench-micro-sign" () in
    Participant.create ~bits:cfg.Experiments.rsa_bits ~ca:env.Scenario.ca
      ~name:"bench-sign" env.Scenario.drbg
  in
  let verifier_pk, verifier_sig =
    let env = Scenario.make_env ~seed:"bench-micro-verify" () in
    let p =
      Participant.create ~bits:cfg.Experiments.rsa_bits ~ca:env.Scenario.ca
        ~name:"bench-verify" env.Scenario.drbg
    in
    (Participant.public_key p, Participant.sign p payload)
  in
  let drbg = Tep_crypto.Drbg.create ~seed:"bench-drbg" in
  [
    Test.make ~name:"sha1-256B"
      (Staged.stage (fun () -> ignore (Tep_crypto.Sha1.digest payload)));
    (* 64 compression rounds per digest — isolates the block-loop cost
       from the init/final overhead the 256B point is dominated by *)
    Test.make ~name:"sha1-4KiB"
      (Staged.stage (fun () -> ignore (Tep_crypto.Sha1.digest payload_4k)));
    Test.make ~name:"sha256-256B"
      (Staged.stage (fun () -> ignore (Tep_crypto.Sha256.digest payload)));
    Test.make ~name:"md5-256B"
      (Staged.stage (fun () -> ignore (Tep_crypto.Md5.digest payload)));
    Test.make ~name:"hmac-sha256"
      (Staged.stage (fun () ->
           ignore
             (Tep_crypto.Hmac.mac ~algo:Tep_crypto.Digest_algo.SHA256
                ~key:"key" payload)));
    Test.make ~name:"rsa-sign"
      (Staged.stage (fun () -> ignore (Participant.sign signer payload)));
    Test.make ~name:"rsa-verify"
      (Staged.stage (fun () ->
           ignore
             (Tep_crypto.Rsa.verify ~algo:Tep_crypto.Digest_algo.SHA256
                verifier_pk ~msg:payload ~signature:verifier_sig)));
    Test.make ~name:"drbg-32B"
      (Staged.stage (fun () -> ignore (Tep_crypto.Drbg.generate drbg 32)));
  ]

(* Windowed vs binary Montgomery ladder on a full-width 2048-bit
   exponentiation — the tentpole modpow comparison (the ISSUE's
   acceptance bar: windowed must beat the old binary ladder here). *)
let modpow_micro_tests () =
  let open Bechamel in
  let open Tep_bignum in
  let drbg = Tep_crypto.Drbg.create ~seed:"bench-modpow" in
  let rand_bits bits =
    let n = Nat.of_bytes_be (Tep_crypto.Drbg.generate drbg (bits / 8)) in
    Nat.rem n (Nat.shift_left Nat.one (bits - 1))
  in
  let m =
    let m = Nat.add (Nat.shift_left Nat.one 2047) (rand_bits 2048) in
    if Nat.is_even m then Nat.add m Nat.one else m
  in
  let ctx = Zmod.Montgomery.create m in
  let b = rand_bits 2048 in
  let e = Nat.add (Nat.shift_left Nat.one 2047) (rand_bits 2048) in
  [
    Test.make ~name:"modpow-2048-windowed"
      (Staged.stage (fun () -> ignore (Zmod.Montgomery.pow ctx b e)));
    Test.make ~name:"modpow-2048-binary"
      (Staged.stage (fun () -> ignore (Zmod.Montgomery.pow_binary ctx b e)));
  ]

let engine_micro_tests () =
  let open Bechamel in
  [
    Test.make ~name:"engine-update-cell"
      (* All state lives behind [lazy] so it is created when this
         test first runs, not when another test in the suite does. *)
      (let state =
         lazy
           (let env = Scenario.make_env ~seed:"bench-micro-engine" () in
            let cfg = Experiments.config_of_env () in
            let p =
              Participant.create ~bits:cfg.Experiments.rsa_bits
                ~ca:env.Scenario.ca ~name:"bench-engine" env.Scenario.drbg
            in
            Participant.Directory.register env.Scenario.directory p;
            let db =
              Synth.build_database ~seed:"bench-micro-db"
                [ { Synth.name = "t1"; attrs = 8; rows = 400 } ]
            in
            let eng = Engine.create ~directory:env.Scenario.directory db in
            (eng, p, ref 0))
       in
       Staged.stage (fun () ->
           let eng, p, counter = Lazy.force state in
           incr counter;
           ignore
             (Engine.update_cell eng p ~table:"t1" ~row:(!counter mod 400)
                ~col:(!counter mod 8)
                (Value.Int !counter))));
    (* The pooled write path.  A singleton commit never fans out (one
       record signs on the caller), so each iteration is a complex op
       staging four updates — the smallest batch where the signing
       stage actually spreads across the 4-domain pool. *)
    Test.make ~name:"engine-update-cell-pooled"
      (let state =
         lazy
           (let env =
              Scenario.make_env ~seed:"bench-micro-engine-pooled" ()
            in
            let cfg = Experiments.config_of_env () in
            let p =
              Participant.create ~bits:cfg.Experiments.rsa_bits
                ~ca:env.Scenario.ca ~name:"bench-engine" env.Scenario.drbg
            in
            Participant.Directory.register env.Scenario.directory p;
            let db =
              Synth.build_database ~seed:"bench-micro-db-pooled"
                [ { Synth.name = "t1"; attrs = 8; rows = 400 } ]
            in
            let pool = Tep_parallel.Pool.create ~domains:4 () in
            let eng =
              Engine.create ~pool ~directory:env.Scenario.directory db
            in
            (eng, p, ref 0))
       in
       Staged.stage (fun () ->
           let eng, p, counter = Lazy.force state in
           incr counter;
           let base = !counter * 4 in
           match
             Engine.complex_op eng p (fun () ->
                 let rec go i =
                   if i >= 4 then Ok ()
                   else
                     match
                       Engine.update_cell eng p ~table:"t1"
                         ~row:((base + i) mod 400) ~col:((base + i) mod 8)
                         (Value.Int (base + i))
                     with
                     | Ok () -> go (i + 1)
                     | Error _ as e -> e
                 in
                 go 0)
           with
           | Ok _ -> ()
           | Error e -> failwith ("pooled bench: " ^ e)));
  ]

let run_micro () =
  let open Bechamel in
  print_endline "## micro — Bechamel micro-benchmarks (ns per run)";
  let cfg = Experiments.config_of_env () in
  let instance = Toolkit.Instance.monotonic_clock in
  let bench_cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None ()
  in
  let suite =
    Test.make_grouped ~name:"tep"
      (crypto_micro_tests cfg @ modpow_micro_tests () @ engine_micro_tests ())
  in
  let raw = Benchmark.all bench_cfg [ instance ] suite in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  let rows = List.sort compare rows in
  Printf.printf "%-32s %16s\n" "benchmark" "ns/op";
  let measured =
    List.filter_map
      (fun (name, est) ->
        match Analyze.OLS.estimates est with
        | Some (e :: _) ->
            Printf.printf "%-32s %16.1f\n" name e;
            Some (name, e)
        | _ ->
            Printf.printf "%-32s %16s\n" name "n/a";
            None)
      rows
  in
  print_newline ();
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"scale\": %g,\n  \"rsa_bits\": %d,\n"
       cfg.Experiments.scale cfg.Experiments.rsa_bits);
  Buffer.add_string buf
    (Printf.sprintf "  \"host_cores\": %d,\n  \"shards\": 1,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    { \"name\": \"%s\", \"ns_per_op\": %.1f }%s\n"
           (json_escape name) ns
           (if i = List.length measured - 1 then "" else ",")))
    measured;
  Buffer.add_string buf "  ]\n}";
  write_json "BENCH_micro.json" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Multicore verification scaling                                      *)
(* ------------------------------------------------------------------ *)

(* Builds a provenance store of at least ~5000 records (default
   scale; ~300 under TEP_SCALE=smoke), then times
   [Verifier.verify_records] with domain pools of size 1/2/4/8 and
   checks every parallel report — including one over a tampered
   record list — is byte-identical to the sequential run.  Exits
   non-zero on any disagreement, so this doubles as a correctness
   gate (the @bench-smoke alias). *)
let run_parallel () =
  let cfg = Experiments.config_of_env () in
  Printf.printf "## parallel — verify_records scaling across domain pools\n";
  let target_records =
    if cfg.Experiments.scale <= 0.02 then 300
    else max 5000 (int_of_float (50_000. *. cfg.Experiments.scale))
  in
  let env = Scenario.make_env ~seed:cfg.Experiments.seed () in
  let p =
    Participant.create ~bits:cfg.Experiments.rsa_bits ~ca:env.Scenario.ca
      ~name:"bench-par" env.Scenario.drbg
  in
  Participant.Directory.register env.Scenario.directory p;
  let db =
    Synth.build_database ~seed:(cfg.Experiments.seed ^ "-par")
      [ { Synth.name = "t1"; attrs = 8; rows = 200 } ]
  in
  let eng = Engine.create ~directory:env.Scenario.directory db in
  let i = ref 0 in
  while Provstore.record_count (Engine.provstore eng) < target_records do
    (match
       Engine.update_cell eng p ~table:"t1" ~row:(!i mod 200) ~col:(!i mod 8)
         (Value.Int !i)
     with
    | Ok () -> ()
    | Error e -> failwith ("parallel bench: update failed: " ^ e));
    incr i
  done;
  let records = Provstore.all (Engine.provstore eng) in
  let nrecords = List.length records in
  let algo = Engine.algo eng in
  let directory = env.Scenario.directory in
  let tampered = Tamper.modify_output_hash ~idx:(nrecords / 2) records in
  let render r = Format.asprintf "%a" Verifier.pp_report r in
  let verify ?pool rs = Verifier.verify_records ?pool ~algo ~directory rs in
  let seq_report = verify records in
  let seq_tampered = verify tampered in
  assert (Verifier.ok seq_report);
  assert (not (Verifier.ok seq_tampered));
  let time_avg f =
    let total = ref 0. in
    for _ = 1 to cfg.Experiments.runs do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      total := !total +. (Unix.gettimeofday () -. t0)
    done;
    !total /. float_of_int cfg.Experiments.runs
  in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf "records=%d host_cores=%d runs=%d\n" nrecords host_cores
    cfg.Experiments.runs;
  Printf.printf "domains,seconds,records_per_s,speedup_vs_1,identical\n";
  let base_1dom = ref None in
  let all_identical = ref true in
  let points =
    List.map
      (fun domains ->
        let pool = Tep_parallel.Pool.create ~domains () in
        let report = verify ~pool records in
        let tampered_report = verify ~pool tampered in
        let identical =
          report = seq_report
          && render report = render seq_report
          && tampered_report = seq_tampered
          && render tampered_report = render seq_tampered
        in
        if not identical then begin
          all_identical := false;
          Printf.eprintf
            "FAIL: %d-domain report differs from sequential run\n" domains
        end;
        let seconds = time_avg (fun () -> verify ~pool records) in
        Tep_parallel.Pool.shutdown pool;
        if domains = 1 then base_1dom := Some seconds;
        let speedup =
          match !base_1dom with Some b when b > 0. -> b /. seconds | _ -> 1.
        in
        let rps = float_of_int nrecords /. seconds in
        Printf.printf "%d,%.4f,%.0f,%.2f,%b\n" domains seconds rps speedup
          identical;
        (domains, seconds, rps, speedup, identical))
      [ 1; 2; 4; 8 ]
  in
  print_newline ();
  (* Commit-signing sweep: the same domain ladder over the WRITE path.
     Each point rebuilds a bit-identical engine from a fixed seed,
     drives complex-op commits whose signatures fan out across the
     pool, and checks the emitted record stream and Merkle root are
     byte-identical to the 1-domain (sequential) run — the pipeline's
     determinism contract, measured rather than assumed. *)
  let sign_commits = if cfg.Experiments.scale <= 0.02 then 8 else 32 in
  let sign_cells = 8 in
  let run_sign domains =
    let pool =
      if domains > 1 then Some (Tep_parallel.Pool.create ~domains ())
      else None
    in
    let env =
      Scenario.make_env ~seed:(cfg.Experiments.seed ^ "-sign") ()
    in
    let p =
      Participant.create ~bits:cfg.Experiments.rsa_bits ~ca:env.Scenario.ca
        ~name:"bench-sign-par" env.Scenario.drbg
    in
    Participant.Directory.register env.Scenario.directory p;
    let db =
      Synth.build_database ~seed:(cfg.Experiments.seed ^ "-sign-db")
        [ { Synth.name = "t1"; attrs = 8; rows = 100 } ]
    in
    let eng = Engine.create ?pool ~directory:env.Scenario.directory db in
    let t0 = Unix.gettimeofday () in
    for c = 0 to sign_commits - 1 do
      match
        Engine.complex_op eng p (fun () ->
            let rec go i =
              if i >= sign_cells then Ok ()
              else
                match
                  Engine.update_cell eng p ~table:"t1"
                    ~row:(((c * sign_cells) + i) mod 100)
                    ~col:(i mod 8)
                    (Value.Int ((c * 1000) + i))
                with
                | Ok () -> go (i + 1)
                | Error _ as e -> e
            in
            go 0)
      with
      | Ok _ -> ()
      | Error e -> failwith ("sign bench: commit failed: " ^ e)
    done;
    let seconds = Unix.gettimeofday () -. t0 in
    let recs = Provstore.all (Engine.provstore eng) in
    let fp =
      String.concat "\n" (List.map Record.encoded recs)
      ^ "\n" ^ Engine.root_hash eng
    in
    let m = Engine.total_metrics eng in
    (match pool with Some pl -> Tep_parallel.Pool.shutdown pl | None -> ());
    (List.length recs, seconds, fp, m.Engine.sign_s, m.Engine.sign_cpu_s)
  in
  Printf.printf
    "commit signing: %d complex ops x %d cell updates per point\n"
    sign_commits sign_cells;
  Printf.printf "domains,seconds,records_per_s,speedup_vs_1,identical\n";
  let sign_base = ref None in
  let sign_fp = ref "" in
  let sign_points =
    List.map
      (fun domains ->
        let nrec, seconds, fp, sign_s, sign_cpu_s = run_sign domains in
        if domains = 1 then begin
          sign_base := Some seconds;
          sign_fp := fp
        end;
        let identical = fp = !sign_fp in
        if not identical then begin
          all_identical := false;
          Printf.eprintf
            "FAIL: %d-domain commit stream differs from sequential run\n"
            domains
        end;
        let speedup =
          match !sign_base with
          | Some b when b > 0. -> b /. seconds
          | _ -> 1.
        in
        let rps = float_of_int nrec /. seconds in
        Printf.printf "%d,%.4f,%.0f,%.2f,%b\n" domains seconds rps speedup
          identical;
        (domains, seconds, rps, speedup, sign_s, sign_cpu_s, identical))
      [ 1; 2; 4; 8 ]
  in
  print_newline ();
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiment\": \"parallel\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"scale\": %g,\n  \"rsa_bits\": %d,\n  \"records\": %d,\n"
       cfg.Experiments.scale cfg.Experiments.rsa_bits nrecords);
  Buffer.add_string buf
    (Printf.sprintf "  \"host_cores\": %d,\n  \"runs_per_point\": %d,\n"
       host_cores cfg.Experiments.runs);
  Buffer.add_string buf
    (Printf.sprintf "  \"all_reports_identical\": %b,\n" !all_identical);
  Buffer.add_string buf "  \"points\": [\n";
  List.iteri
    (fun i (domains, seconds, rps, speedup, identical) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"domains\": %d, \"shards\": 1, \"seconds\": %.6f, \
            \"records_per_s\": %.1f, \"speedup_vs_1\": %.3f, \
            \"report_identical\": %b }%s\n"
           domains seconds rps speedup identical
           (if i = List.length points - 1 then "" else ",")))
    points;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"sign_commits\": %d,\n  \"sign_cells\": %d,\n"
       sign_commits sign_cells);
  Buffer.add_string buf "  \"sign_points\": [\n";
  List.iteri
    (fun i (domains, seconds, rps, speedup, sign_s, sign_cpu_s, identical) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"domains\": %d, \"shards\": 1, \"seconds\": %.6f, \
            \"records_per_s\": %.1f, \"speedup_vs_1\": %.3f, \
            \"sign_wall_s\": %.6f, \"sign_cpu_s\": %.6f, \
            \"stream_identical\": %b }%s\n"
           domains seconds rps speedup sign_s sign_cpu_s identical
           (if i = List.length sign_points - 1 then "" else ",")))
    sign_points;
  Buffer.add_string buf "  ]\n}";
  write_json "BENCH_parallel.json" (Buffer.contents buf);
  if not !all_identical then exit 1

(* ------------------------------------------------------------------ *)
(* Service throughput: concurrent clients over loopback and a socket   *)
(* ------------------------------------------------------------------ *)

(* Two phases.  First a scripted correctness gate over the loopback
   transport: submit → query → verify, assert the wire report renders
   byte-identically to the in-process verifier, tamper with a cell
   behind the engine's back and assert the tampering is reported over
   the wire (exit 1 if not — the serve-smoke alias relies on this).
   Then a throughput measurement: N client threads each stream M
   insert requests through one server, once over the in-process
   loopback transport and once over a real Unix-domain socket. *)
let run_serve () =
  let cfg = Experiments.config_of_env () in
  Printf.printf "## serve — provdbd wire protocol: scripted gate + throughput\n";
  let ok = function Ok v -> v | Error e -> failwith ("serve bench: " ^ e) in
  let module Server = Tep_server.Server in
  let module Client = Tep_client.Client in
  let module Message = Tep_wire.Message in
  let make_service ?max_connections seed =
    let env = Scenario.make_env ~seed () in
    (* like every other experiment, the participant key honours the
       configured rsa_bits (Scenario.participant would pin 1024) *)
    let alice =
      Participant.create ~bits:cfg.Experiments.rsa_bits ~ca:env.Scenario.ca
        ~name:"alice" env.Scenario.drbg
    in
    Participant.Directory.register env.Scenario.directory alice;
    let db = Database.create ~name:"serve" in
    ignore
      (Database.create_table db ~name:"t1" (Schema.all_int [ "a"; "b" ]));
    let engine = Engine.create ~directory:env.Scenario.directory db in
    let server =
      Server.create ?max_connections
        ~drbg:(Tep_crypto.Drbg.create ~seed:(seed ^ "-srv"))
        ~participants:[ ("alice", alice) ]
        engine
    in
    (engine, alice, server)
  in
  (* -- scripted gate ------------------------------------------------ *)
  let engine, alice, server = make_service (cfg.Experiments.seed ^ "-gate") in
  let c = Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"gate-cli") server in
  ok (Client.authenticate c alice);
  let row, _ = ok (Client.insert c ~table:"t1" [| Value.Int 1; Value.Int 2 |]) in
  let row_oid =
    match Tep_tree.Tree_view.row_oid (Engine.mapping engine) "t1" row with
    | Some o -> o
    | None -> failwith "serve bench: no oid for inserted row"
  in
  let queried = ok (Client.query c ~oid:row_oid ()) in
  if queried = [] then failwith "serve bench: empty provenance for insert";
  let local_report () =
    Format.asprintf "%a" Verifier.pp_report
      (ok (Engine.verify_object engine (Engine.root_oid engine)))
  in
  let report, _ = ok (Client.verify c ()) in
  let identical_clean = Message.render_report report = local_report () in
  if not (Message.report_ok report && identical_clean) then begin
    Printf.eprintf "FAIL: clean wire report differs from in-process verifier\n";
    exit 1
  end;
  let module Forest = Tep_tree.Forest in
  let forest = Engine.forest engine in
  (match
     List.concat_map (Forest.children forest) (Forest.roots forest)
     |> List.concat_map (Forest.children forest)
     |> List.concat_map (Forest.children forest)
   with
  | cell :: _ -> ignore (Forest.update forest cell (Value.Text "TAMPERED"))
  | [] -> failwith "serve bench: no cell to tamper with");
  let tampered, _ = ok (Client.verify c ()) in
  let tamper_detected = not (Message.report_ok tampered) in
  let identical_tampered = Message.render_report tampered = local_report () in
  Client.close c;
  if not tamper_detected then begin
    Printf.eprintf "FAIL: tampering not reported over the wire\n";
    exit 1
  end;
  if not identical_tampered then begin
    Printf.eprintf "FAIL: tamper wire report differs from in-process verifier\n";
    exit 1
  end;
  Printf.printf "gate: reports byte-identical, tampering detected over the wire\n";
  (* -- throughput sweep --------------------------------------------- *)
  (* N pipelined client threads per point, a fresh service per point
     (so table growth in one point cannot skew the next).  Each client
     keeps up to [window] submits in flight on its connection; per-
     request latency is send-to-collect, so it includes queueing. *)
  let sweep = [ 1; 2; 4; 8 ] in
  let requests =
    if cfg.Experiments.scale <= 0.02 then 25
    else max 50 (int_of_float (500. *. cfg.Experiments.scale))
  in
  let window = 8 in
  let percentile p lats =
    match lats with
    | [] -> 0.
    | _ ->
        let a = Array.of_list lats in
        Array.sort compare a;
        let n = Array.length a in
        let idx = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
        a.(max 0 (min (n - 1) idx))
  in
  let run_point ?(quiet = false) transport_name clients participant connect =
    let merge_lock = Mutex.create () in
    let all_lats = ref [] in
    let errors = ref 0 in
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Printf.eprintf "%s\n" m;
          Mutex.lock merge_lock;
          incr errors;
          Mutex.unlock merge_lock)
        fmt
    in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init clients (fun ci ->
          Thread.create
            (fun () ->
              match connect ci with
              | Error e -> fail "client %d: connect: %s" ci e
              | Ok c -> (
                  match Client.authenticate c participant with
                  | Error e ->
                      fail "client %d: auth: %s" ci e;
                      Client.close c
                  | Ok () ->
                      let lats = ref [] in
                      let inflight = Queue.create () in
                      let drain () =
                        let cid, sent = Queue.pop inflight in
                        match Client.collect_submitted c cid with
                        | Ok _ ->
                            lats := (Unix.gettimeofday () -. sent) :: !lats
                        | Error e -> fail "client %d: collect: %s" ci e
                      in
                      for i = 0 to requests - 1 do
                        (match
                           Client.insert_async c ~table:"t1"
                             [| Value.Int ci; Value.Int i |]
                         with
                        | Ok cid ->
                            Queue.push (cid, Unix.gettimeofday ()) inflight
                        | Error e -> fail "client %d: submit: %s" ci e);
                        if Queue.length inflight >= window then drain ()
                      done;
                      while not (Queue.is_empty inflight) do
                        drain ()
                      done;
                      Client.close c;
                      Mutex.lock merge_lock;
                      all_lats := List.rev_append !lats !all_lats;
                      Mutex.unlock merge_lock))
            ())
    in
    List.iter Thread.join threads;
    let seconds = Unix.gettimeofday () -. t0 in
    if !errors > 0 then begin
      Printf.eprintf "FAIL: %d request errors over %s (%d clients)\n" !errors
        transport_name clients;
      exit 1
    end;
    let total = clients * requests in
    let rps = float_of_int total /. seconds in
    let p50 = 1000. *. percentile 50. !all_lats in
    let p95 = 1000. *. percentile 95. !all_lats in
    if not quiet then
      Printf.printf "%s,%d,%d,%.4f,%.0f,%.2f,%.2f\n" transport_name clients
        total seconds rps p50 p95;
    (transport_name, clients, seconds, rps, p50, p95)
  in
  (* sub-second points are bimodal under scheduler noise (the committed
     2-clients-slower-than-1 anomaly was exactly such a roll — see
     EXPERIMENTS.md), so each sweep point records the median-throughput
     trial of cfg.runs fresh-service trials rather than a single one *)
  let median_trials mk =
    let trials = List.init (max 1 cfg.Experiments.runs) (fun _ -> mk ()) in
    let sorted =
      List.sort
        (fun ((_, _, _, r1, _, _), _) ((_, _, _, r2, _, _), _) ->
          compare r1 r2)
        trials
    in
    let ((name, clients, seconds, rps, p50, p95), _) as chosen =
      List.nth sorted (List.length sorted / 2)
    in
    Printf.printf "%s,%d,%d,%.4f,%.0f,%.2f,%.2f\n" name clients
      (clients * requests) seconds rps p50 p95;
    chosen
  in
  Printf.printf
    "transport,clients,total_requests,seconds,requests_per_s,p50_ms,p95_ms\n";
  (* group-commit amortization for a finished point: how many ops the
     signer averaged per signature.  This is the whole story of the
     low-client-count variance (see EXPERIMENTS.md): a point that
     catches the pipelined window in one batch signs ~window ops per
     RSA operation, one that keeps electing leaders over a near-empty
     queue pays a signature for every op or two. *)
  let ops_per_batch server =
    let s = Server.batch_stats server in
    float_of_int s.Server.ops /. float_of_int (max 1 s.Server.batches)
  in
  (* loopback: same codec path, no sockets *)
  let loopback_points =
    List.map
      (fun clients ->
        median_trials (fun () ->
            let _, alice, server =
              make_service
                (Printf.sprintf "%s-loop-%d" cfg.Experiments.seed clients)
            in
            let point =
              run_point ~quiet:true "loopback" clients alice (fun ci ->
                  Ok
                    (Client.loopback
                       ~drbg:
                         (Tep_crypto.Drbg.create
                            ~seed:(Printf.sprintf "cli-%d-%d" clients ci))
                       server))
            in
            (point, ops_per_batch server)))
      sweep
  in
  (* real Unix-domain socket.  The daemon the sweep models is a
     separate process, so the socket points fork the server into a
     child: under OCaml 5 systhreads all share their domain's runtime
     lock, and an in-process server would serialize against the very
     client threads that are loading it (taxing the reactor's wakeup
     hops — the sweep would measure the bench harness, not the
     server).  The child also gives /proc-exact thread censuses for
     the scaling phase below. *)
  let with_forked_server ?max_connections seed body =
    let _, alice, server = make_service ?max_connections seed in
    let path = Filename.temp_file "tep_serve_bench" ".sock" in
    Sys.remove path;
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        (* child: serve until the parent kills us; SIGKILL also keeps
           the inherited stdio buffers from double-flushing *)
        let stop = Stdlib.Atomic.make false in
        (try Server.serve_unix server ~path ~stop with _ -> ());
        Stdlib.exit 0
    | pid ->
        let finally () =
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          try Sys.remove path with Sys_error _ -> ()
        in
        Fun.protect ~finally (fun () ->
            let deadline = Unix.gettimeofday () +. 10. in
            while
              (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline
            do
              Thread.delay 0.02
            done;
            if not (Sys.file_exists path) then
              failwith "serve bench: forked server socket never appeared";
            body ~alice ~path ~pid)
  in
  (* group-commit amortization of a forked point, via the wire: Pong
     carries the server's batch/op counters *)
  let remote_ops_per_batch ~alice ~path ~seed =
    let control =
      ok (Client.connect_unix ~drbg:(Tep_crypto.Drbg.create ~seed) path)
    in
    ok (Client.authenticate control alice);
    let h = ok (Client.ping control) in
    Client.close control;
    float_of_int h.Client.h_ops /. float_of_int (max 1 h.Client.h_batches)
  in
  let socket_points =
    List.map
      (fun clients ->
        median_trials (fun () ->
            with_forked_server
              (Printf.sprintf "%s-sock-%d" cfg.Experiments.seed clients)
              (fun ~alice ~path ~pid:_ ->
                let point =
                  run_point ~quiet:true "unix-socket" clients alice
                    (fun ci ->
                      Client.connect_unix
                        ~drbg:
                          (Tep_crypto.Drbg.create
                             ~seed:(Printf.sprintf "scli-%d-%d" clients ci))
                        path)
                in
                let opb =
                  remote_ops_per_batch ~alice ~path
                    ~seed:(Printf.sprintf "sctl-%d" clients)
                in
                (point, opb))))
      sweep
  in
  (* -- connection scaling: mostly-idle fleets + 8 active clients ---- *)
  (* The server runs in a forked child so (a) its fd table stays dense
     and small while the parent hoards the idle fleet's fds, and (b)
     /proc/<pid>/status gives an exact census of its threads — the
     point of the exercise: under the event loop, a thousand held
     connections must not mean a thousand server threads.  The active
     clients connect *first* so their fds sit in the child's select
     tier even when the idle fleet spills past FD_SETSIZE into the
     reactor's overflow-polling tier. *)
  let scaling_idle =
    if cfg.Experiments.scale <= 0.02 then [ 64 ] else [ 64; 256; 1024 ]
  in
  let scaling_active = 8 in
  let proc_threads pid =
    match open_in (Printf.sprintf "/proc/%d/status" pid) with
    | exception Sys_error _ -> -1
    | ic ->
        let rec scan () =
          match input_line ic with
          | line ->
              if String.length line > 8 && String.sub line 0 8 = "Threads:"
              then
                int_of_string
                  (String.trim (String.sub line 8 (String.length line - 8)))
              else scan ()
          | exception End_of_file -> -1
        in
        let n = try scan () with _ -> -1 in
        close_in ic;
        n
  in
  let run_scaling idle_count =
    with_forked_server
      ~max_connections:(idle_count + scaling_active + 8)
      (Printf.sprintf "%s-scale-%d" cfg.Experiments.seed idle_count)
      (fun ~alice ~path ~pid ->
            let actives =
              Array.init scaling_active (fun ci ->
                  ok
                    (Client.connect_unix
                       ~drbg:
                         (Tep_crypto.Drbg.create
                            ~seed:(Printf.sprintf "scale-%d-%d" idle_count ci))
                       path))
            in
            let control =
              ok
                (Client.connect_unix
                   ~drbg:
                     (Tep_crypto.Drbg.create
                        ~seed:(Printf.sprintf "scale-ctl-%d" idle_count))
                   path)
            in
            ok (Client.authenticate control alice);
            let idles =
              Array.init idle_count (fun _ ->
                  let rec go n =
                    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                    match Unix.connect fd (Unix.ADDR_UNIX path) with
                    | () -> fd
                    | exception Unix.Unix_error _ when n > 0 ->
                        (try Unix.close fd with Unix.Unix_error _ -> ());
                        Thread.delay 0.01;
                        go (n - 1)
                  in
                  go 100)
            in
            (* wait until the reactor has accepted the whole fleet *)
            let expected = idle_count + scaling_active + 1 in
            let held = ref 0 in
            let tries = ref 200 in
            while !held < expected && !tries > 0 do
              let h = ok (Client.ping control) in
              held := h.Client.active;
              if !held < expected then Thread.delay 0.05;
              decr tries
            done;
            let threads = proc_threads pid in
            let point =
              run_point
                (Printf.sprintf "unix-socket[scale,%d idle]" idle_count)
                scaling_active alice
                (fun ci -> Ok actives.(ci))
            in
            Array.iter
              (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
              idles;
            Client.close control;
            (idle_count, !held, threads, point))
  in
  Printf.printf "phase,idle_conns,held_connections,server_threads\n";
  let scaling_points =
    List.map
      (fun idle ->
        let (idle_count, held, threads, _) as sp = run_scaling idle in
        Printf.printf "scaling,%d,%d,%d\n" idle_count held threads;
        if held < idle_count + scaling_active then begin
          Printf.eprintf "FAIL: scaling point %d held only %d connections\n"
            idle_count held;
          exit 1
        end;
        if threads >= 0 && threads > 64 then begin
          Printf.eprintf
            "FAIL: event-loop server used %d threads with %d idle conns\n"
            threads idle_count;
          exit 1
        end;
        sp)
      scaling_idle
  in
  (* -- degraded mode: offered load at 2x the admission limit -------- *)
  (* 8 client threads race the batcher against a queue bound of 4
     ops: roughly twice the admitted concurrency is always knocking.
     With shedding on, the excess is refused with the typed overload
     error and the completed requests keep a bounded p95; with
     shedding off (the limit lifted), the same burst is absorbed by
     queueing instead.  The pair quantifies what admission control
     buys (latency) and what it costs (completed throughput). *)
  let deg_clients = 8 in
  let deg_limit = 4 in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let run_degraded shedding =
    let _, alice, server =
      make_service
        (Printf.sprintf "%s-deg-%b" cfg.Experiments.seed shedding)
    in
    Server.set_admission
      ~max_queue_ops:(if shedding then deg_limit else max_int)
      server;
    let merge_lock = Mutex.create () in
    let all_lats = ref [] in
    let completed = ref 0 and shed = ref 0 and hard_errors = ref 0 in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init deg_clients (fun ci ->
          Thread.create
            (fun () ->
              let c =
                Client.loopback
                  ~drbg:
                    (Tep_crypto.Drbg.create
                       ~seed:(Printf.sprintf "deg-%b-%d" shedding ci))
                  server
              in
              (* the bench measures the server's shedding, not the
                 client's give-up policy: keep the breaker out of it *)
              Client.set_breaker ~threshold:max_int c;
              match Client.authenticate c alice with
              | Error e -> failwith ("degraded: auth: " ^ e)
              | Ok () ->
                  let lats = ref [] in
                  let n_ok = ref 0 and n_shed = ref 0 and n_err = ref 0 in
                  let inflight = Queue.create () in
                  let drain () =
                    let cid, sent = Queue.pop inflight in
                    match Client.collect_submitted c cid with
                    | Ok _ ->
                        lats := (Unix.gettimeofday () -. sent) :: !lats;
                        incr n_ok
                    | Error e ->
                        if contains e "overloaded" then incr n_shed
                        else incr n_err
                  in
                  for i = 0 to requests - 1 do
                    (match
                       Client.insert_async c ~table:"t1"
                         [| Value.Int ci; Value.Int i |]
                     with
                    | Ok cid -> Queue.push (cid, Unix.gettimeofday ()) inflight
                    | Error _ -> incr n_err);
                    if Queue.length inflight >= window then drain ()
                  done;
                  while not (Queue.is_empty inflight) do
                    drain ()
                  done;
                  Client.close c;
                  Mutex.lock merge_lock;
                  all_lats := List.rev_append !lats !all_lats;
                  completed := !completed + !n_ok;
                  shed := !shed + !n_shed;
                  hard_errors := !hard_errors + !n_err;
                  Mutex.unlock merge_lock)
            ())
    in
    List.iter Thread.join threads;
    let seconds = Unix.gettimeofday () -. t0 in
    if !hard_errors > 0 then begin
      Printf.eprintf "FAIL: %d non-overload errors in degraded mode\n"
        !hard_errors;
      exit 1
    end;
    let offered = deg_clients * requests in
    if (not shedding) && !completed <> offered then begin
      Printf.eprintf "FAIL: unlimited admission lost %d of %d requests\n"
        (offered - !completed) offered;
      exit 1
    end;
    let rps = float_of_int !completed /. seconds in
    let p50 = 1000. *. percentile 50. !all_lats in
    let p95 = 1000. *. percentile 95. !all_lats in
    Printf.printf "degraded,shedding=%s,%d,%d,%d,%.4f,%.0f,%.2f,%.2f\n"
      (if shedding then "on" else "off")
      offered !completed !shed seconds rps p50 p95;
    (shedding, offered, !completed, !shed, seconds, rps, p50, p95)
  in
  Printf.printf
    "phase,shedding,offered,completed,shed,seconds,completed_per_s,p50_ms,p95_ms\n";
  (* whether the burst overruns the 4-op queue before the batcher
     drains it is a race the clients occasionally lose outright; a
     run that shed nothing measured the scheduler, not admission
     control, so roll it again (bounded) rather than fail on it *)
  let deg_on =
    let rec go tries =
      let (_, _, _, shed, _, _, _, _) as r = run_degraded true in
      if shed > 0 then r
      else if tries > 1 then begin
        Printf.printf "degraded: burst never overran the queue, retrying\n";
        go (tries - 1)
      end
      else begin
        Printf.eprintf
          "FAIL: degraded runs at 2x the admission limit shed nothing\n";
        exit 1
      end
    in
    go 3
  in
  let deg_off = run_degraded false in
  let degraded_points = [ deg_on; deg_off ] in
  print_newline ();
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"experiment\": \"serve\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"scale\": %g,\n  \"rsa_bits\": %d,\n  \"requests_per_client\": %d,\n\
       \  \"pipeline_window\": %d,\n"
       cfg.Experiments.scale cfg.Experiments.rsa_bits requests window);
  Buffer.add_string buf
    (Printf.sprintf "  \"host_cores\": %d,\n  \"shards\": 1,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"tamper_detected_over_wire\": %b,\n\
       \  \"reports_byte_identical\": %b,\n"
       tamper_detected
       (identical_clean && identical_tampered));
  Buffer.add_string buf "  \"sweep\": [\n";
  let points = loopback_points @ socket_points in
  List.iteri
    (fun i ((name, clients, seconds, rps, p50, p95), opb) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"transport\": \"%s\", \"clients\": %d, \"shards\": 1, \
            \"seconds\": %.6f, \"requests_per_s\": %.1f, \"p50_ms\": %.3f, \
            \"p95_ms\": %.3f, \"ops_per_batch\": %.2f }%s\n"
           (json_escape name) clients seconds rps p50 p95 opb
           (if i = List.length points - 1 then "" else ",")))
    points;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"connection_scaling\": {\n\
       \    \"active_clients\": %d,\n\
       \    \"points\": [\n"
       scaling_active);
  List.iteri
    (fun i (idle, held, threads, (_, _, seconds, rps, p50, p95)) ->
      Buffer.add_string buf
        (Printf.sprintf
           "      { \"idle_conns\": %d, \"held_connections\": %d, \
            \"server_threads\": %d, \"seconds\": %.6f, \"requests_per_s\": \
            %.1f, \"p50_ms\": %.3f, \"p95_ms\": %.3f }%s\n"
           idle held threads seconds rps p50 p95
           (if i = List.length scaling_points - 1 then "" else ",")))
    scaling_points;
  Buffer.add_string buf "    ]\n  },\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"degraded\": {\n\
       \    \"clients\": %d,\n\
       \    \"max_queue_ops\": %d,\n\
       \    \"points\": [\n"
       deg_clients deg_limit);
  List.iteri
    (fun i (shedding, offered, completed, shed, seconds, rps, p50, p95) ->
      Buffer.add_string buf
        (Printf.sprintf
           "      { \"shedding\": %b, \"offered\": %d, \"completed\": %d, \
            \"shed\": %d, \"seconds\": %.6f, \"completed_per_s\": %.1f, \
            \"p50_ms\": %.3f, \"p95_ms\": %.3f }%s\n"
           shedding offered completed shed seconds rps p50 p95
           (if i = List.length degraded_points - 1 then "" else ",")))
    degraded_points;
  Buffer.add_string buf "    ]\n  }\n}";
  write_json "BENCH_serve.json" (Buffer.contents buf)

(* Pipelined-load gate (the serve-pipeline alias): several clients
   stream overlapping submits through one server — loopback clients
   batching across connections, raw pipelined frames coalescing within
   one — then the byte-identity and tamper-detection bars must still
   hold on the resulting history.  Exit 1 on any violation. *)
let run_serve_pipeline () =
  let cfg = Experiments.config_of_env () in
  Printf.printf "## serve-pipeline — report identity under pipelined load\n";
  let ok = function Ok v -> v | Error e -> failwith ("serve-pipeline: " ^ e) in
  let module Server = Tep_server.Server in
  let module Client = Tep_client.Client in
  let module Message = Tep_wire.Message in
  let env = Scenario.make_env ~seed:(cfg.Experiments.seed ^ "-pipe") () in
  let alice =
    Participant.create ~bits:cfg.Experiments.rsa_bits ~ca:env.Scenario.ca
      ~name:"alice" env.Scenario.drbg
  in
  Participant.Directory.register env.Scenario.directory alice;
  let db = Database.create ~name:"serve" in
  ignore (Database.create_table db ~name:"t1" (Schema.all_int [ "a"; "b" ]));
  let engine = Engine.create ~directory:env.Scenario.directory db in
  let server =
    Server.create
      ~drbg:(Tep_crypto.Drbg.create ~seed:(cfg.Experiments.seed ^ "-pipe-srv"))
      ~participants:[ ("alice", alice) ]
      engine
  in
  let clients = 3 and per_client = 20 and window = 5 in
  let errors = ref 0 in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            let c =
              Client.loopback
                ~drbg:(Tep_crypto.Drbg.create ~seed:(Printf.sprintf "pipe-%d" ci))
                server
            in
            match Client.authenticate c alice with
            | Error e ->
                Printf.eprintf "client %d: auth: %s\n" ci e;
                incr errors
            | Ok () ->
                let inflight = Queue.create () in
                let drain () =
                  match Client.collect_submitted c (Queue.pop inflight) with
                  | Ok _ -> ()
                  | Error e ->
                      Printf.eprintf "client %d: collect: %s\n" ci e;
                      incr errors
                in
                for i = 0 to per_client - 1 do
                  (match
                     Client.insert_async c ~table:"t1"
                       [| Value.Int ci; Value.Int i |]
                   with
                  | Ok cid -> Queue.push cid inflight
                  | Error e ->
                      Printf.eprintf "client %d: submit: %s\n" ci e;
                      incr errors);
                  if Queue.length inflight >= window then drain ()
                done;
                while not (Queue.is_empty inflight) do
                  drain ()
                done;
                Client.close c)
          ())
  in
  List.iter Thread.join threads;
  if !errors > 0 then begin
    Printf.eprintf "FAIL: %d request errors under pipelined load\n" !errors;
    exit 1
  end;
  let stats = Server.batch_stats server in
  Printf.printf "submitted %d ops in %d group commits (sign %.1f ms wall / %.1f ms cpu)\n"
    stats.Server.ops stats.Server.batches
    (stats.Server.sign_wall_s *. 1e3)
    (stats.Server.sign_cpu_s *. 1e3);
  if stats.Server.ops <> clients * per_client then begin
    Printf.eprintf "FAIL: expected %d ops through the batcher, saw %d\n"
      (clients * per_client) stats.Server.ops;
    exit 1
  end;
  let local_report () =
    Format.asprintf "%a" Verifier.pp_report
      (ok (Engine.verify_object engine (Engine.root_oid engine)))
  in
  let c = Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:"pipe-gate") server in
  ok (Client.authenticate c alice);
  let report, _ = ok (Client.verify c ()) in
  if not (Message.report_ok report) then begin
    Printf.eprintf "FAIL: pipelined history does not verify\n";
    exit 1
  end;
  if Message.render_report report <> local_report () then begin
    Printf.eprintf "FAIL: wire report differs from in-process verifier\n";
    exit 1
  end;
  let module Forest = Tep_tree.Forest in
  let forest = Engine.forest engine in
  (match
     List.concat_map (Forest.children forest) (Forest.roots forest)
     |> List.concat_map (Forest.children forest)
     |> List.concat_map (Forest.children forest)
   with
  | cell :: _ -> ignore (Forest.update forest cell (Value.Text "TAMPERED"))
  | [] -> failwith "serve-pipeline: no cell to tamper with");
  let tampered, _ = ok (Client.verify c ()) in
  Client.close c;
  if Message.report_ok tampered then begin
    Printf.eprintf "FAIL: tampering not reported over the pipelined wire\n";
    exit 1
  end;
  if Message.render_report tampered <> local_report () then begin
    Printf.eprintf "FAIL: tamper report differs from in-process verifier\n";
    exit 1
  end;
  Printf.printf
    "serve-pipeline: reports byte-identical, tampering detected under \
     pipelined load\n"

(* ------------------------------------------------------------------ *)
(* Sharded write throughput                                            *)
(* ------------------------------------------------------------------ *)

(* Write-throughput sweep over 1/2/4/8-shard deployments: one
   pipelined client per shard, each streaming inserts into a table the
   routing hash places on its shard, so every write is single-shard
   and the points measure exactly what sharding buys — fully
   concurrent per-shard group commits instead of one serialized
   batcher.

   Each point doubles as a determinism gate: one client per shard
   means each shard's commit order is that client's program order, so
   the same per-shard op streams re-executed serially on fresh engines
   must land on a byte-identical Merkle root-of-roots.  Exit 1 on any
   mismatch (the sharded acceptance bar). *)
let run_shard () =
  let cfg = Experiments.config_of_env () in
  Printf.printf "## shard — write throughput scaling across shard counts\n";
  let module Server = Tep_server.Server in
  let module Client = Tep_client.Client in
  let module Merkle = Tep_tree.Merkle in
  let table_for_shard ~shards k =
    let rec go i =
      let name = Printf.sprintf "t%d" i in
      if Shards.shard_of_table ~shards name = k then name else go (i + 1)
    in
    go 0
  in
  let requests =
    if cfg.Experiments.scale <= 0.02 then 25
    else max 50 (int_of_float (500. *. cfg.Experiments.scale))
  in
  let window = 8 in
  let host_cores = Domain.recommended_domain_count () in
  let percentile p lats =
    match lats with
    | [] -> 0.
    | _ ->
        let a = Array.of_list lats in
        Array.sort compare a;
        let n = Array.length a in
        let idx = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
        a.(max 0 (min (n - 1) idx))
  in
  (* fresh engines for a given shard count, sharing one PKI env *)
  let make_engines nshards seed =
    let env = Scenario.make_env ~seed () in
    let alice =
      Participant.create ~bits:cfg.Experiments.rsa_bits ~ca:env.Scenario.ca
        ~name:"alice" env.Scenario.drbg
    in
    Participant.Directory.register env.Scenario.directory alice;
    let engines =
      Array.init nshards (fun k ->
          let db = Database.create ~name:"shardbench" in
          ignore
            (Database.create_table db
               ~name:(table_for_shard ~shards:nshards k)
               (Schema.all_int [ "a"; "b" ]));
          Engine.create ~directory:env.Scenario.directory db)
    in
    (engines, alice)
  in
  Printf.printf "host_cores=%d requests_per_client=%d window=%d\n" host_cores
    requests window;
  Printf.printf
    "shards,clients,total_requests,seconds,requests_per_s,p50_ms,p95_ms,\
     speedup_vs_1,root_matches_serial\n";
  let base = ref None in
  let all_match = ref true in
  let points =
    List.map
      (fun nshards ->
        let seed = Printf.sprintf "%s-shard-%d" cfg.Experiments.seed nshards in
        let engines, alice = make_engines nshards seed in
        let coord_file =
          if nshards > 1 then Some (Filename.temp_file "tep_shard_bench" ".wal")
          else None
        in
        let coord = Option.map Wal.open_file coord_file in
        let server =
          Server.create
            ~drbg:(Tep_crypto.Drbg.create ~seed:(seed ^ "-srv"))
            ~participants:[ ("alice", alice) ]
            ~shards:
              (List.tl (Array.to_list engines) |> List.map (fun e -> (e, None)))
            ?coord engines.(0)
        in
        (* one pipelined client per shard, each on its own table *)
        let merge_lock = Mutex.create () in
        let all_lats = ref [] in
        let errors = ref 0 in
        let t0 = Unix.gettimeofday () in
        let threads =
          List.init nshards (fun ci ->
              Thread.create
                (fun () ->
                  let table = table_for_shard ~shards:nshards ci in
                  let c =
                    Client.loopback
                      ~drbg:
                        (Tep_crypto.Drbg.create
                           ~seed:(Printf.sprintf "%s-cli-%d" seed ci))
                      server
                  in
                  match Client.authenticate c alice with
                  | Error e ->
                      Printf.eprintf "shard client %d: auth: %s\n" ci e;
                      Mutex.lock merge_lock;
                      incr errors;
                      Mutex.unlock merge_lock;
                      Client.close c
                  | Ok () ->
                      let lats = ref [] in
                      let inflight = Queue.create () in
                      let drain () =
                        let cid, sent = Queue.pop inflight in
                        match Client.collect_submitted c cid with
                        | Ok _ ->
                            lats := (Unix.gettimeofday () -. sent) :: !lats
                        | Error e ->
                            Printf.eprintf "shard client %d: collect: %s\n" ci
                              e;
                            Mutex.lock merge_lock;
                            incr errors;
                            Mutex.unlock merge_lock
                      in
                      for i = 0 to requests - 1 do
                        (match
                           Client.insert_async c ~table
                             [| Value.Int ci; Value.Int i |]
                         with
                        | Ok cid ->
                            Queue.push (cid, Unix.gettimeofday ()) inflight
                        | Error e ->
                            Printf.eprintf "shard client %d: submit: %s\n" ci e;
                            Mutex.lock merge_lock;
                            incr errors;
                            Mutex.unlock merge_lock);
                        if Queue.length inflight >= window then drain ()
                      done;
                      while not (Queue.is_empty inflight) do
                        drain ()
                      done;
                      Client.close c;
                      Mutex.lock merge_lock;
                      all_lats := List.rev_append !lats !all_lats;
                      Mutex.unlock merge_lock)
                ())
        in
        List.iter Thread.join threads;
        let seconds = Unix.gettimeofday () -. t0 in
        if !errors > 0 then begin
          Printf.eprintf "FAIL: %d request errors at %d shards\n" !errors
            nshards;
          exit 1
        end;
        (* serial re-execution: the same per-shard op streams, replayed
           one shard at a time on fresh engines, must reproduce the
           root-of-roots byte-for-byte *)
        let sharded_root =
          Merkle.root_of_roots
            (Engine.algo engines.(0))
            (Array.to_list (Array.map Engine.root_hash engines))
        in
        let serial_engines, serial_alice = make_engines nshards seed in
        Array.iteri
          (fun k eng ->
            let table = table_for_shard ~shards:nshards k in
            for i = 0 to requests - 1 do
              match
                Engine.insert_row eng serial_alice ~table
                  [| Value.Int k; Value.Int i |]
              with
              | Ok _ -> ()
              | Error e -> failwith ("shard bench: serial replay: " ^ e)
            done)
          serial_engines;
        let serial_root =
          Merkle.root_of_roots
            (Engine.algo serial_engines.(0))
            (Array.to_list (Array.map Engine.root_hash serial_engines))
        in
        let root_matches = sharded_root = serial_root in
        if not root_matches then begin
          all_match := false;
          Printf.eprintf
            "FAIL: %d-shard root-of-roots differs from serial re-execution\n"
            nshards
        end;
        (match coord with Some w -> Wal.close w | None -> ());
        (match coord_file with
        | Some f -> ( try Sys.remove f with Sys_error _ -> ())
        | None -> ());
        if nshards = 1 then base := Some seconds;
        (* same per-client workload at every point, so per-shard wall
           time is comparable and aggregate throughput is the signal *)
        let total = nshards * requests in
        let rps = float_of_int total /. seconds in
        let speedup =
          match !base with
          | Some b when b > 0. ->
              rps /. (float_of_int requests /. b)
          | _ -> 1.
        in
        let p50 = 1000. *. percentile 50. !all_lats in
        let p95 = 1000. *. percentile 95. !all_lats in
        Printf.printf "%d,%d,%d,%.4f,%.0f,%.2f,%.2f,%.2f,%b\n" nshards nshards
          total seconds rps p50 p95 speedup root_matches;
        (nshards, seconds, rps, p50, p95, speedup, root_matches))
      [ 1; 2; 4; 8 ]
  in
  print_newline ();
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiment\": \"shard\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"scale\": %g,\n  \"rsa_bits\": %d,\n  \"host_cores\": %d,\n\
       \  \"requests_per_client\": %d,\n  \"pipeline_window\": %d,\n"
       cfg.Experiments.scale cfg.Experiments.rsa_bits host_cores requests
       window);
  Buffer.add_string buf
    (Printf.sprintf "  \"all_roots_match_serial\": %b,\n" !all_match);
  Buffer.add_string buf "  \"points\": [\n";
  List.iteri
    (fun i (nshards, seconds, rps, p50, p95, speedup, root_matches) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"shards\": %d, \"clients\": %d, \"seconds\": %.6f, \
            \"requests_per_s\": %.1f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \
            \"speedup_vs_1\": %.3f, \"root_matches_serial\": %b }%s\n"
           nshards nshards seconds rps p50 p95 speedup root_matches
           (if i = List.length points - 1 then "" else ",")))
    points;
  Buffer.add_string buf "  ]\n}";
  write_json "BENCH_shard.json" (Buffer.contents buf);
  if not !all_match then exit 1

(* ------------------------------------------------------------------ *)
(* Figure/table harness                                                *)
(* ------------------------------------------------------------------ *)

let cfg = lazy (Experiments.config_of_env ())

let header title = Printf.printf "## %s\n" title

let run_table1 () =
  header "table1 — Table 1(b): synthetic database node counts";
  Printf.printf "tables,expected_nodes,actual_nodes,match\n";
  List.iter
    (fun r ->
      Printf.printf "\"%s\",%d,%d,%b\n" r.Experiments.tables
        r.Experiments.expected_nodes r.Experiments.actual_nodes
        (r.Experiments.expected_nodes = r.Experiments.actual_nodes))
    (Experiments.table1 (Lazy.force cfg));
  print_newline ()

let run_fig6 () =
  header "fig6 — average hashing time vs database size (expect ~linear)";
  Printf.printf "nodes,seconds,us_per_node\n";
  List.iter
    (fun p ->
      Printf.printf "%d,%.4f,%.3f\n" p.Experiments.f6_nodes
        p.Experiments.f6_seconds
        (p.Experiments.f6_seconds *. 1e6 /. float_of_int p.Experiments.f6_nodes))
    (Experiments.fig6 (Lazy.force cfg));
  print_newline ()

let run_fig7 () =
  header
    "fig7 — output-tree hashing, Basic vs Economical (expect Basic ~flat, \
     Economical growing with updates)";
  Printf.printf
    "updated_cells,basic_s,economical_s,basic_nodes,economical_nodes\n";
  List.iter
    (fun p ->
      Printf.printf "%d,%.4f,%.4f,%d,%d\n" p.Experiments.f7_updates
        p.Experiments.f7_basic_s p.Experiments.f7_economical_s
        p.Experiments.f7_basic_nodes p.Experiments.f7_economical_nodes)
    (Experiments.fig7 (Lazy.force cfg));
  print_newline ()

let pp_metrics_row label (m : Engine.metrics) =
  Printf.printf "\"%s\",%.4f,%.4f,%.4f,%.4f,%d,%d\n" label m.Engine.hash_s
    m.Engine.sign_s m.Engine.store_s
    (m.Engine.hash_s +. m.Engine.sign_s +. m.Engine.store_s)
    m.Engine.records_emitted m.Engine.checksum_bytes

let run_fig8 () =
  header
    "fig8 — time overhead by operation type (expect deletes < inserts ~ \
     updates)";
  Printf.printf "operation,hash_s,sign_s,store_s,total_s,records,bytes\n";
  List.iter
    (fun r -> pp_metrics_row r.Experiments.b_label r.Experiments.b_metrics)
    (Experiments.fig8_9 (Lazy.force cfg));
  print_newline ()

let run_fig9 () =
  header
    "fig9 — space overhead by operation type (expect inserts/updates >> \
     deletes)";
  Printf.printf "operation,records,checksum_bytes\n";
  List.iter
    (fun r ->
      Printf.printf "\"%s\",%d,%d\n" r.Experiments.b_label
        r.Experiments.b_metrics.Engine.records_emitted
        r.Experiments.b_metrics.Engine.checksum_bytes)
    (Experiments.fig8_9 (Lazy.force cfg));
  print_newline ()

let run_fig10 () =
  header
    "fig10 — time overhead vs %deletes in mixed operations (expect \
     decreasing)";
  Printf.printf
    "deletes_pct,inserts_pct,updates_pct,hash_s,sign_s,store_s,total_s,records\n";
  List.iter
    (fun r ->
      let m = r.Experiments.c_metrics in
      Printf.printf "%.1f,%.1f,%.1f,%.4f,%.4f,%.4f,%.4f,%d\n"
        r.Experiments.c_deletes_pct r.Experiments.c_inserts_pct
        r.Experiments.c_updates_pct m.Engine.hash_s m.Engine.sign_s
        m.Engine.store_s
        (m.Engine.hash_s +. m.Engine.sign_s +. m.Engine.store_s)
        m.Engine.records_emitted)
    (Experiments.fig10_11 (Lazy.force cfg));
  print_newline ()

let run_fig11 () =
  header "fig11 — space overhead vs %deletes (expect decreasing)";
  Printf.printf "deletes_pct,records,checksum_bytes\n";
  List.iter
    (fun r ->
      Printf.printf "%.1f,%d,%d\n" r.Experiments.c_deletes_pct
        r.Experiments.c_metrics.Engine.records_emitted
        r.Experiments.c_metrics.Engine.checksum_bytes)
    (Experiments.fig10_11 (Lazy.force cfg));
  print_newline ()

let run_bigdb () =
  header
    "bigdb — streaming hash of a large 2-column table (paper: 18.9M rows, \
     0.02156 ms/node)";
  let r = Experiments.bigdb (Lazy.force cfg) in
  Printf.printf "rows,nodes,seconds,ms_per_node\n";
  Printf.printf "%d,%d,%.2f,%.5f\n\n" r.Experiments.big_rows
    r.Experiments.big_nodes r.Experiments.big_seconds
    r.Experiments.big_ms_per_node

let run_ablation_chaining () =
  header
    "ablation-chaining — §3.2 local (per-object) vs global checksum chains";
  let r = Experiments.ablation_chaining (Lazy.force cfg) in
  Printf.printf "metric,local,global\n";
  Printf.printf "critical_path_dependent_signatures,%d,%d\n"
    r.Experiments.local_critical_path r.Experiments.global_critical_path;
  Printf.printf "wall_s_for_%d_ops_on_%d_cores,%.3f,%.3f\n" r.Experiments.ch_ops
    r.Experiments.ch_cores r.Experiments.local_wall_s
    r.Experiments.global_wall_s;
  Printf.printf "verify_one_object_s,%.4f,%.4f\n" r.Experiments.local_verify_s
    r.Experiments.global_verify_s;
  Printf.printf "objects_failing_after_1_corruption_of_%d,%d,%d\n\n"
    r.Experiments.ch_objects r.Experiments.local_failed_after_corruption
    r.Experiments.global_failed_after_corruption

let run_ablation_baseline () =
  header
    "ablation-baseline — plain vs Hasan-style linear vs this paper's engine";
  Printf.printf "scheme,ops,wall_s,space_bytes,fine_grained\n";
  List.iter
    (fun r ->
      Printf.printf "\"%s\",%d,%.3f,%d,%b\n" r.Experiments.bl_scheme
        r.Experiments.bl_ops r.Experiments.bl_wall_s
        r.Experiments.bl_space_bytes r.Experiments.bl_fine_grained)
    (Experiments.ablation_baseline (Lazy.force cfg));
  print_newline ()

let run_ablation_signing () =
  header
    "ablation-signing — RSA checksums (non-repudiation, the paper) vs \
     keyed HMAC tags (single trust domain)";
  Printf.printf "scheme,ops,sign_wall_s,verify_wall_s,checksum_bytes,non_repudiation\n";
  List.iter
    (fun r ->
      Printf.printf "\"%s\",%d,%.4f,%.4f,%d,%b\n" r.Experiments.sg_scheme
        r.Experiments.sg_ops r.Experiments.sg_sign_wall_s
        r.Experiments.sg_verify_wall_s r.Experiments.sg_checksum_bytes
        r.Experiments.sg_non_repudiation)
    (Experiments.ablation_signing (Lazy.force cfg));
  print_newline ()

let run_ablation_audit () =
  header
    "ablation-audit — full re-verification vs checkpointed incremental \
     audit (extension; expect full cost growing, incremental ~flat)";
  Printf.printf "round,total_records,full_s,full_records,incr_s,incr_records\n";
  List.iter
    (fun r ->
      Printf.printf "%d,%d,%.4f,%d,%.4f,%d\n" r.Experiments.au_round
        r.Experiments.au_total_records r.Experiments.au_full_s
        r.Experiments.au_full_records r.Experiments.au_incr_s
        r.Experiments.au_incr_records)
    (Experiments.ablation_audit (Lazy.force cfg));
  print_newline ()

(* --------------------------------------------------------------- *)
(* Annotated-query overhead: the lineage engine's semiring evaluator
   against the plain evaluator, over the same engine-backed tables,
   partitioned across 1/2/4 shards.  Asserts (exit 1) that the
   annotated path returns exactly the plain rows and that its best-of
   latency stays within the 2x overhead budget; also reports lineage
   why() latency and the pruning counter.                            *)
(* --------------------------------------------------------------- *)

let run_prov () =
  let cfg = Experiments.config_of_env () in
  header "prov — annotated query overhead vs plain evaluation";
  let module Annotate = Tep_prov.Annotate in
  let module Polynomial = Tep_prov.Polynomial in
  let module Lineage = Tep_prov.Lineage in
  let rows_total =
    if cfg.Experiments.scale <= 0.02 then 200
    else max 400 (int_of_float (2000. *. cfg.Experiments.scale))
  in
  let reps = 200 and trials = 5 in
  (* best-of totals: immune to one-off GC or scheduler hiccups *)
  let time_best f =
    let best = ref infinity in
    for _ = 1 to trials do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        f ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best /. float_of_int reps
  in
  Printf.printf "rows_total=%d reps=%d trials=%d\n" rows_total reps trials;
  Printf.printf
    "shards,plain_us,annotated_us,overhead,rows_matched,lineage_why_us,\
     pruned_scans\n";
  let all_ok = ref true in
  let worst = ref 0. in
  let points =
    List.map
      (fun nshards ->
        let seed =
          Printf.sprintf "%s-prov-%d" cfg.Experiments.seed nshards
        in
        let env = Scenario.make_env ~seed () in
        let alice =
          Participant.create ~bits:cfg.Experiments.rsa_bits
            ~ca:env.Scenario.ca ~name:"alice" env.Scenario.drbg
        in
        Participant.Directory.register env.Scenario.directory alice;
        let tname k = Printf.sprintf "t%d" k in
        let engines =
          Array.init nshards (fun k ->
              let db = Database.create ~name:"provbench" in
              ignore
                (Database.create_table db ~name:(tname k)
                   (Schema.all_int [ "a"; "b" ]));
              Engine.create ~directory:env.Scenario.directory db)
        in
        for i = 0 to rows_total - 1 do
          let k = i mod nshards in
          match
            Engine.insert_row engines.(k) alice ~table:(tname k)
              [| Value.Int i; Value.Int (i * 2) |]
          with
          | Ok _ -> ()
          | Error e -> failwith ("prov bench: insert: " ^ e)
        done;
        let pred = Query.Cmp ("a", Query.Gt, Value.Int (rows_total / 2)) in
        let tables =
          Array.to_list
            (Array.mapi
               (fun k e ->
                 match
                   Database.get_table (Engine.backend e) (tname k)
                 with
                 | Some t -> (e, tname k, t)
                 | None -> failwith "prov bench: table missing")
               engines)
        in
        let plain () =
          List.concat_map
            (fun (_, _, tbl) ->
              match Query.select tbl pred with
              | Ok r -> r
              | Error e -> failwith e)
            tables
        in
        let annotated () =
          List.concat_map
            (fun (e, name, tbl) ->
              let var r =
                Polynomial.var (Annotate.row_var (Engine.mapping e) name r)
              in
              match Annotate.select ~var tbl pred with
              | Ok r -> r
              | Error e -> failwith e)
            tables
        in
        let prows = plain () and arows = annotated () in
        let matched = List.length prows in
        if
          List.map (fun (r : Table.row) -> r.Table.cells) prows
          <> List.map (fun ((r : Table.row), _) -> r.Table.cells) arows
        then begin
          Printf.eprintf
            "FAIL: annotated select disagrees with plain select at %d \
             shard(s)\n"
            nshards;
          all_ok := false
        end;
        let plain_s = time_best (fun () -> ignore (plain ())) in
        let annot_s = time_best (fun () -> ignore (annotated ())) in
        let overhead = annot_s /. plain_s in
        if overhead > !worst then worst := overhead;
        (* lineage why() over a fresh aggregate on shard 0 — repeated
           queries hit the shared memoised index *)
        let e0 = engines.(0) in
        let inputs =
          List.filter_map
            (Tep_tree.Tree_view.row_oid (Engine.mapping e0) (tname 0))
            [ 0; 1; 2 ]
        in
        let agg =
          match
            Engine.aggregate_objects e0 alice ~value:(Value.Text "agg")
              inputs
          with
          | Ok o -> o
          | Error e -> failwith ("prov bench: aggregate: " ^ e)
        in
        let idx = Prov_index.of_store (Engine.provstore e0) in
        let why_s = time_best (fun () -> ignore (Lineage.why idx agg)) in
        (* contradiction pruning skips one scan per shard *)
        Annotate.reset_pruned_scans ();
        List.iter
          (fun (_, _, tbl) ->
            ignore
              (Annotate.select tbl (Query.And (pred, Query.IsNull "a"))))
          tables;
        let pruned = Annotate.pruned_scans () in
        if pruned <> nshards then begin
          Printf.eprintf
            "FAIL: expected %d pruned scans, counted %d\n" nshards pruned;
          all_ok := false
        end;
        Printf.printf "%d,%.2f,%.2f,%.3f,%d,%.2f,%d\n" nshards
          (1e6 *. plain_s) (1e6 *. annot_s) overhead matched (1e6 *. why_s)
          pruned;
        (nshards, plain_s, annot_s, overhead, matched, why_s, pruned))
      [ 1; 2; 4 ]
  in
  print_newline ();
  let bound = 2.0 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiment\": \"prov\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"scale\": %g,\n  \"rsa_bits\": %d,\n  \"rows_total\": %d,\n\
       \  \"reps\": %d,\n  \"trials\": %d,\n  \"overhead_bound\": %.1f,\n\
       \  \"max_overhead\": %.3f,\n"
       cfg.Experiments.scale cfg.Experiments.rsa_bits rows_total reps trials
       bound !worst);
  Buffer.add_string buf "  \"points\": [\n";
  List.iteri
    (fun i (nshards, plain_s, annot_s, overhead, matched, why_s, pruned) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"shards\": %d, \"plain_us\": %.3f, \"annotated_us\": \
            %.3f, \"overhead\": %.3f, \"rows_matched\": %d, \
            \"lineage_why_us\": %.3f, \"pruned_scans\": %d }%s\n"
           nshards (1e6 *. plain_s) (1e6 *. annot_s) overhead matched
           (1e6 *. why_s) pruned
           (if i = List.length points - 1 then "" else ",")))
    points;
  Buffer.add_string buf "  ]\n}";
  write_json "BENCH_prov.json" (Buffer.contents buf);
  if not !all_ok then exit 1;
  if !worst > bound then begin
    Printf.eprintf "FAIL: annotated overhead %.2fx exceeds the %.1fx budget\n"
      !worst bound;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* proof: O(log n) remote verification vs full remote verify           *)
(* ------------------------------------------------------------------ *)

(* The read-side dual of §4.3 Economical hashing: instead of the
   server re-checking every record and shipping a report (O(database)
   CPU and bytes per client), the client fetches an O(depth × fanout)
   membership proof plus the one relevant checksum chain and rechecks
   the whole hash chain locally against the root it already trusts.

   Records are laid out in fixed-capacity tables (100 rows each — the
   table is the shard-routing unit, so bounded tables are also what
   the sharded write path wants), and once more in a single wide table
   holding every record (1 shard).  Nodes wider than 32 children
   commit through a chunk tree, so the proof grows with the logarithm
   of the fan-out, not with record count: the gate asserts ≤2x proof
   bytes from the small to the large workload (10x the records) in
   both layouts and ≥10x latency advantage over a full remote verify
   at the large size. *)
let run_proof () =
  let module Server = Tep_server.Server in
  let module Client = Tep_client.Client in
  let cfg = Experiments.config_of_env () in
  header "proof — membership-proof RPCs vs full remote verify";
  let small, large =
    if cfg.Experiments.scale <= 0.02 then (100, 1000) else (1000, 10_000)
  in
  (* The one wide table's smaller size keeps a full chunk level above
     its rows (>= 16^2 rows): from 100 rows the first level is still
     partial, and growth to 1000 rows reached 2.7x (mean 2.0) across
     30 oid layouts, against at most 1.6x (mean 1.4) from 300 to 3000
     rows. *)
  let wide_small, wide_large =
    if small < 1000 then (300, 3000) else (small, large)
  in
  let bounded_rows = 100 in
  let sample = 32 in
  let trials = 3 in
  let time_best reps f =
    let best = ref infinity in
    for _ = 1 to trials do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        f ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best /. float_of_int reps
  in
  Printf.printf
    "sizes=%d/%d in %d-row tables, %d/%d in one table, sample=%d trials=%d \
     (scale=%.2f rsa=%d)\n"
    small large bounded_rows wide_small wide_large sample trials
    cfg.Experiments.scale
    cfg.Experiments.rsa_bits;
  Printf.printf
    "records,rows_per_table,shards,proof_bytes,prove_verify_us,full_verify_us,speedup\n";
  let all_ok = ref true in
  let measure ~rows_per_table nrecords nshards =
    let seed =
      Printf.sprintf "%s-proof-%d-%d-%d" cfg.Experiments.seed nrecords
        rows_per_table nshards
    in
    let env = Scenario.make_env ~seed () in
    let alice =
      Participant.create ~bits:cfg.Experiments.rsa_bits ~ca:env.Scenario.ca
        ~name:"alice" env.Scenario.drbg
    in
    Participant.Directory.register env.Scenario.directory alice;
    let directory = env.Scenario.directory in
    let ntables = (nrecords + rows_per_table - 1) / rows_per_table in
    let table_name g = Printf.sprintf "t%d" g in
    (* global table g lives on the shard its name routes to *)
    let shard_of g = Shards.shard_of_table ~shards:nshards (table_name g) in
    let engines =
      Array.init nshards (fun k ->
          let db = Database.create ~name:"proofbench" in
          for g = 0 to ntables - 1 do
            if shard_of g = k then
              ignore
                (Database.create_table db ~name:(table_name g)
                   (Schema.all_int [ "a"; "b" ]))
          done;
          Engine.create ~directory db)
    in
    (* populate engines directly: the write path is not under test *)
    let placed = Array.make nrecords ("", 0) in
    for i = 0 to nrecords - 1 do
      let g = i / rows_per_table in
      let eng = engines.(shard_of g) in
      match
        Engine.insert_row eng alice ~table:(table_name g)
          [| Value.Int i; Value.Int (i * 2) |]
      with
      | Ok row -> placed.(i) <- (table_name g, row)
      | Error e -> failwith ("proof bench: insert: " ^ e)
    done;
    let coord_file =
      if nshards > 1 then Some (Filename.temp_file "tep_proof_bench" ".wal")
      else None
    in
    let coord = Option.map Wal.open_file coord_file in
    let server =
      Server.create
        ~drbg:(Tep_crypto.Drbg.create ~seed:(seed ^ "-srv"))
        ~participants:[ ("alice", alice) ]
        ~shards:
          (List.tl (Array.to_list engines) |> List.map (fun e -> (e, None)))
        ?coord engines.(0)
    in
    let c =
      Client.loopback ~drbg:(Tep_crypto.Drbg.create ~seed:(seed ^ "-cli")) server
    in
    (match Client.authenticate c alice with
    | Ok () -> ()
    | Error e -> failwith ("proof bench: auth: " ^ e));
    let trusted_root =
      match Client.root_hash c with
      | Ok r -> r
      | Error e -> failwith ("proof bench: root: " ^ e)
    in
    let algo = Engine.algo engines.(0) in
    (* sampled cells, spread across the whole record range *)
    let picks =
      Array.init sample (fun j -> placed.(j * nrecords / sample))
    in
    let prove_one (table, row) =
      match Client.prove c ~table ~row ~col:0 () with
      | Error e -> failwith ("proof bench: prove: " ^ e)
      | Ok p -> (
          match Client.check_proofs ~algo ~directory ~trusted_root p with
          | Error e -> failwith ("proof bench: check: " ^ e)
          | Ok r ->
              if not (Verifier.ok r) then
                failwith "proof bench: proof report not clean";
              p)
    in
    (* bytes actually shipped per answer: encoded proofs + shard roots *)
    let answer_bytes (p : Client.proofs) =
      List.fold_left
        (fun n (it : Client.proof_item) -> n + String.length it.Client.pf_encoded)
        0 p.Client.pf_items
      + List.fold_left
          (fun n r -> n + String.length r)
          0 p.Client.pf_shard_roots
    in
    let total_bytes =
      Array.fold_left (fun n pick -> n + answer_bytes (prove_one pick)) 0 picks
    in
    let proof_bytes = total_bytes / sample in
    (* latency: full prove+recheck round trip, cycling over the sample
       (mixes LRU hits and misses, like a population of hot readers) *)
    let i = ref 0 in
    let prove_s =
      time_best sample (fun () ->
          ignore (prove_one picks.(!i mod sample));
          incr i)
    in
    let full_s =
      time_best 1 (fun () ->
          match Client.verify c () with
          | Ok (report, _) ->
              if not (Tep_wire.Message.report_ok report) then
                failwith "proof bench: full verify not clean"
          | Error e -> failwith ("proof bench: verify: " ^ e))
    in
    (* tamper sanity: a flipped sibling hash must break the chain *)
    (match Client.prove c ~table:(fst picks.(0)) ~row:(snd picks.(0)) ~col:0 ()
     with
    | Error e -> failwith ("proof bench: prove: " ^ e)
    | Ok p -> (
        let it = List.hd p.Client.pf_items in
        let pf = it.Client.pf_proof in
        let module Proof = Tep_tree.Proof in
        let bump s = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s in
        (* flip every entry off the proven path in the first step that
           commits through a chunk tree (every layout here has one);
           above level 0 the path entry is the previous chunk's last key *)
        let rec flip_levels key = function
          | [] -> []
          | entries :: above ->
              List.map
                (fun (o, h) ->
                  if Tep_tree.Oid.equal o key then (o, h) else (o, bump h))
                entries
              :: flip_levels (fst (List.nth entries (List.length entries - 1))) above
        in
        let rec forge_path child = function
          | [] -> []
          | ({ Proof.children = Proof.Chunked c; _ } as s) :: rest ->
              { s with
                Proof.children = Proof.Chunked { c with chunks = flip_levels child c.chunks } }
              :: rest
          | s :: rest -> s :: forge_path s.Proof.node_oid rest
        in
        let forged =
          {
            p with
            Client.pf_items =
              [
                {
                  it with
                  Client.pf_proof =
                    {
                      pf with
                      Proof.path = forge_path pf.Proof.leaf_oid pf.Proof.path;
                    };
                };
              ];
          }
        in
        match Client.check_proofs ~algo ~directory ~trusted_root forged with
        | Error _ -> ()
        | Ok _ ->
            Printf.eprintf
              "FAIL: forged sibling hash not detected (%d records, %d rows \
               per table, %d shards)\n"
              nrecords rows_per_table nshards;
            all_ok := false));
    Client.close c;
    Option.iter Wal.close coord;
    Option.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) coord_file;
    let speedup = full_s /. prove_s in
    Printf.printf "%d,%d,%d,%d,%.1f,%.1f,%.1fx\n" nrecords rows_per_table
      nshards proof_bytes (1e6 *. prove_s) (1e6 *. full_s) speedup;
    (nrecords, rows_per_table, nshards, proof_bytes, prove_s, full_s, speedup)
  in
  (* (layout, shards): bounded tables at 1/2/4 shards, then every
     record in one wide table *)
  let layouts =
    [ (`Bounded, 1); (`Bounded, 2); (`Bounded, 4); (`Wide, 1) ]
  in
  let rows_for layout n =
    match layout with `Bounded -> bounded_rows | `Wide -> n
  in
  let sizes = function `Bounded -> (small, large) | `Wide -> (wide_small, wide_large) in
  let points =
    List.concat_map
      (fun (layout, nshards) ->
        let s, l = sizes layout in
        List.map
          (fun n -> measure ~rows_per_table:(rows_for layout n) n nshards)
          [ s; l ])
      layouts
  in
  print_newline ();
  let bytes_bound = 2.0 and speedup_bound = 10.0 in
  let max_ratio = ref 0. and min_speedup = ref infinity in
  List.iter
    (fun (layout, nshards) ->
      let find n =
        List.find
          (fun (r, rpt, s, _, _, _, _) ->
            r = n && rpt = rows_for layout n && s = nshards)
          points
      in
      let small, large = sizes layout in
      let _, _, _, b_small, _, _, _ = find small in
      let _, _, _, b_large, _, _, speedup = find large in
      let ratio = float_of_int b_large /. float_of_int b_small in
      if ratio > !max_ratio then max_ratio := ratio;
      if speedup < !min_speedup then min_speedup := speedup;
      if ratio > bytes_bound then begin
        Printf.eprintf
          "FAIL: proof bytes grew %.2fx (%d -> %d records, %s tables, %d \
           shards), budget %.1fx\n"
          ratio small large
          (match layout with `Bounded -> "bounded" | `Wide -> "one wide")
          nshards bytes_bound;
        all_ok := false
      end;
      if speedup < speedup_bound then begin
        Printf.eprintf
          "FAIL: prove+verify only %.1fx faster than full verify at %d \
           records, %d shards (need %.0fx)\n"
          speedup large nshards speedup_bound;
        all_ok := false
      end)
    layouts;
  Printf.printf
    "gate: max proof-bytes growth %.2fx (budget %.1fx), min speedup %.1fx \
     (budget %.0fx)\n"
    !max_ratio bytes_bound !min_speedup speedup_bound;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiment\": \"proof\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"scale\": %g,\n  \"rsa_bits\": %d,\n  \"host_cores\": %d,\n\
       \  \"sample\": %d,\n  \"bytes_ratio_bound\": %.1f,\n\
       \  \"speedup_bound\": %.1f,\n  \"max_bytes_ratio\": %.3f,\n\
       \  \"min_speedup_at_%d\": %.2f,\n"
       cfg.Experiments.scale cfg.Experiments.rsa_bits
       (Domain.recommended_domain_count ())
       sample bytes_bound speedup_bound !max_ratio large !min_speedup);
  Buffer.add_string buf "  \"points\": [\n";
  List.iteri
    (fun i (nrecords, rows_per_table, nshards, bytes, prove_s, full_s, speedup) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"records\": %d, \"rows_per_table\": %d, \"shards\": %d, \
            \"proof_bytes\": %d, \"prove_verify_us\": %.1f, \
            \"full_verify_us\": %.1f, \"speedup\": %.2f }%s\n"
           nrecords rows_per_table nshards bytes (1e6 *. prove_s) (1e6 *. full_s) speedup
           (if i = List.length points - 1 then "" else ",")))
    points;
  Buffer.add_string buf "  ]\n}";
  write_json "BENCH_proof.json" (Buffer.contents buf);
  if not !all_ok then exit 1

let all =
  [
    ("table1", run_table1);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("fig8", run_fig8);
    ("fig9", run_fig9);
    ("fig10", run_fig10);
    ("fig11", run_fig11);
    ("bigdb", run_bigdb);
    ("ablation-chaining", run_ablation_chaining);
    ("ablation-baseline", run_ablation_baseline);
    ("ablation-signing", run_ablation_signing);
    ("ablation-audit", run_ablation_audit);
    ("parallel", run_parallel);
    ("serve", run_serve);
    ("serve-pipeline", run_serve_pipeline);
    ("shard", run_shard);
    ("prov", run_prov);
    ("proof", run_proof);
    ("micro", run_micro);
  ]

let () =
  let cfgv = Lazy.force cfg in
  Printf.printf
    "# tamper-evident provenance benchmarks (scale=%.2f, rsa=%d bits, runs=%d)\n"
    cfgv.Experiments.scale cfgv.Experiments.rsa_bits cfgv.Experiments.runs;
  Printf.printf "# set TEP_SCALE=full for paper-size workloads\n\n";
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (known: %s)\n" name
            (String.concat ", " (List.map fst all));
          exit 1)
    requested
