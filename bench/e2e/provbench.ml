(* provbench — the end-to-end and per-layer benchmark of provdbd.

     provbench run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
                   [--out FILE] [--spans-dir DIR]
     provbench compare A B [--benchmark FILE]
     provbench smoke

   [run] builds the base workspaces once per build of the binaries
   (kept under the work directory), then for each workload: sets up a
   fresh copy of its base behind a real provdbd, drives the seeded op
   stream over the Unix socket from this one process, kills the daemon
   with SIGKILL, recovers it, and checks every answer on the way.
   With [--trace 1] it then replays the same op stream in-process,
   recording spans around each layer's public functions.  The last
   line of standard output is one JSON object; see README.md. *)

open Proc
module Client = Drive.Client
module Message = Tep_wire.Message
module Provstore = Tep_core.Provstore
module Snapshot = Tep_store.Snapshot
module Database = Tep_store.Database
module Table = Tep_store.Table
module Value = Tep_store.Value
module Forest = Tep_tree.Forest
module Tree_view = Tep_tree.Tree_view
module Json = Provbench_lib.Json
module Stats = Provbench_lib.Stats
module Span = Provbench_lib.Span
module Verdict = Provbench_lib.Verdict

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

let provdb = ref ("_build" // "default" // "bin" // "provdb.exe")
let provdbd = ref ("_build" // "default" // "bin" // "provdbd.exe")
let work = ref ("bench" // "e2e" // "_run")

(* The daemon runs with its defaults: Pool.default () domains, the
   event loop with 4 protocol workers, one WAL flush to the OS per
   group commit and an fsync only at checkpoint. *)
let daemon_flags = "defaults (--socket only)"
let alpha_ppm = 100_000
(* Set-up is short; each run times it this many times and reports the
   median. *)
let setup_repeats = 7

(* The share of each op stream the traced run replays in-process (it
   replays it twice: once traced, once not, for the overhead). *)
let replay_share = ref 0.25

(* Part of the base cache key: bump it when the recipe below changes. *)
let base_recipe () =
  Printf.sprintf "v2;b1=%d+%d;b4=4x%d" !Gen.b1_rows !Gen.b1_updates !Gen.b4_rows

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type base = B1 | B4

type workload = {
  name : string;
  base : base;
  (* ops per second of --seconds on the reference host: a run issues a
     fixed op count, [rate * seconds], so a faster build finishes
     sooner instead of doing more (and differently sized) work *)
  rate : float;
}

(* Each workload stresses different layers and bypasses others (see
   README.md):
   - ingest: writes only on a 2k-row table — signing, Merkle hashing
     over a wide table node, the WAL and group commit;
   - verify_read: verified reads of 10k cells, past the proof LRU —
     proof building, proof bytes and the recipient's RSA checks;
   - mixed_sharded: writes over 4 narrow tables on 4 shards beside
     verified hot-cell reads — rwlocks, proof-LRU invalidation and
     cross-shard 2PC;
   - audit: sampled audit sweeps — the server-side verifier, RSA
     verify and the domain pool. *)
let workloads =
  [
    { name = "ingest"; base = B1; rate = 315. };
    { name = "verify_read"; base = B1; rate = 360. };
    { name = "mixed_sharded"; base = B4; rate = 300. };
    { name = "audit"; base = B1; rate = 3. };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string }

let ok_or_fail = function Ok v -> v | Error e -> failwith e

(* Socket paths stay relative (and short): sockaddr_un caps them at
   108 bytes, and the checkout may live anywhere. *)
let start_daemon ws =
  let sock = ws ^ ".sock" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  { pid = spawn ~log_file:(ws ^ ".log") !provdbd [ ws; "--socket"; sock ]; sock }

let conn_seed = ref 0

(* Poll until the daemon answers an authenticated Ping. *)
let wait_ready d participant =
  let deadline = now () +. 120. in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ ->
        Hashtbl.remove live d.pid;
        failwith "provdbd exited before answering a Ping");
    incr conn_seed;
    let attempt =
      match
        Drive.connect ~sock:d.sock ~participant
          ~drbg_seed:(Printf.sprintf "provbench-ctl-%d" !conn_seed)
      with
      | Error e -> Error e
      | Ok c -> (
          match Client.ping c with
          | Ok h when h.Client.ready -> Ok c
          | Ok _ ->
              Client.close c;
              Error "not ready"
          | Error e ->
              Client.close c;
              Error e)
    in
    match attempt with
    | Ok c -> c
    | Error e ->
        if now () > deadline then failwith ("provdbd never became ready: " ^ e);
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let stop_daemon ?(signal = Sys.sigterm) d =
  match signal_and_wait d.pid signal with
  | Unix.WEXITED 0 -> Ok ()
  | _ when signal = Sys.sigkill -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "provdbd exited %d on drain" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "provdbd died on signal %d" n)

(* ------------------------------------------------------------------ *)
(* Base workspaces                                                     *)
(* ------------------------------------------------------------------ *)

let table_spec name =
  name ^ ":" ^ String.concat "," (List.init Gen.columns (fun i -> Printf.sprintf "c%d@int" i))

(* Load a fresh workspace over the wire from one connection with one op
   in flight, then drain it so the base ends on a clean checkpoint.
   Each op is then a group commit of its own, so the base is the same,
   byte for byte, in every checkout of the same code. *)
let load_base ws ~init_args ~ops =
  let log_file = ws ^ ".log" in
  ok_or_fail (run ~log_file !provdb ([ "init"; ws ] @ init_args));
  ok_or_fail
    (run ~log_file !provdb [ "participant"; ws; participant_name; "--seed"; "provbench-participant" ]);
  let _, me = identity ws in
  let d = start_daemon ws in
  let c = wait_ready d me in
  let t = Drive.write_loop c ops ~window:1 in
  Client.close c;
  if t.Drive.failed > 0 then failwith ("base load failed: " ^ String.concat "; " t.Drive.errors);
  ok_or_fail (stop_daemon d)

(* B1: table t, 5 int columns, rows inserted, then single-cell updates
   so that cells have history. *)
let build_b1 ws =
  let st = Gen.rng ~seed:0 ~stream:"base-b1" ~part:0 in
  let rows = !Gen.b1_rows in
  let inserts =
    Array.init rows (fun _ -> Message.Op_insert { table = "t"; cells = Gen.row_values st })
  in
  let updates =
    Array.init !Gen.b1_updates (fun _ ->
        Message.Op_update
          {
            table = "t";
            row = Random.State.int st rows;
            col = Random.State.int st Gen.columns;
            value = Gen.cell_value st;
          })
  in
  load_base ws
    ~init_args:[ "--table"; table_spec "t"; "--seed"; "provbench-b1" ]
    ~ops:(Array.append inserts updates)

(* B4: 4 shards, one 5-column table on each. *)
let build_b4 ws =
  let st = Gen.rng ~seed:0 ~stream:"base-b4" ~part:0 in
  let tables = Lazy.force Gen.b4_tables in
  let ops =
    Array.init (4 * !Gen.b4_rows) (fun i ->
        Message.Op_insert { table = tables.(i mod 4); cells = Gen.row_values st })
  in
  load_base ws
    ~init_args:
      ([ "--shards"; "4"; "--seed"; "provbench-b4" ]
      @ List.concat_map (fun t -> [ "--table"; table_spec t ]) (Array.to_list tables))
    ~ops

(* Bases depend only on the recipe and the binaries that built them,
   so they are built once per build and reused by every later run. *)
let base_dir () =
  let key =
    Digest.to_hex (Digest.string (file_digest !provdb ^ file_digest !provdbd ^ base_recipe ()))
  in
  let dir = !work // ("base-" ^ String.sub key 0 16) in
  if not (Sys.file_exists dir) then begin
    log "building the base workspaces in %s" dir;
    Array.iter
      (fun f -> if String.length f > 5 && String.sub f 0 5 = "base-" then rm_rf (!work // f))
      (Sys.readdir !work);
    let tmp = !work // "base-tmp" in
    let t0 = now () in
    rm_rf tmp;
    Unix.mkdir tmp 0o755;
    build_b1 (tmp // "b1");
    build_b4 (tmp // "b4");
    List.iter (fun f -> try Unix.unlink (tmp // f) with Unix.Unix_error _ -> ()) [ "b1.log"; "b4.log" ];
    Unix.rename tmp dir;
    log "bases built in %.1f s" (now () -. t0)
  end;
  dir

let base_path bases = function B1 -> bases // "b1" | B4 -> bases // "b4"

(* ------------------------------------------------------------------ *)
(* One untraced run                                                    *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_unit : string; m_value : float }

type outcome = {
  workload : workload;
  seed : int;
  ops : int; (* the op count the run issued *)
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  metrics : metric list; (* end to end *)
  host_speed : float; (* the probes' slowdown over the run (Probe.factor) *)
  counters : (string * float) list; (* inputs to the per-layer metrics *)
  sampled : (string * int) list; (* audit: (seed, objects the daemon sampled) *)
}

let correct o = List.for_all snd o.checks

let user_bytes ws =
  List.fold_left
    (fun acc sdir ->
      let db = ok_or_fail (Snapshot.load (sdir // "backend.snap")) in
      List.fold_left
        (fun acc tbl ->
          Table.fold
            (fun acc (r : Table.row) ->
              Array.fold_left (fun acc v -> acc + String.length (Value.encoded v)) acc r.Table.cells)
            acc tbl)
        acc (Database.tables db))
    0 (shard_dirs ws)

(* What the client side needs from the base: the directory that checks
   signatures, the tree view (row oids for lineage) and the live
   objects of each shard (the audit sample a seed must draw). *)
type base_view = {
  directory : Participant.Directory.t;
  me : Participant.t;
  views : Tree_view.mapping array;
  live : Tep_tree.Oid.t list array Lazy.t;
}

let view_of ws =
  let directory, me = identity ws in
  let shards = Array.of_list (shard_dirs ws) in
  let views = Array.map (fun s -> fst (Tree_view.decode (read_file (s // "view.dat")) 0)) shards in
  let live =
    lazy
      (Array.map
         (fun s ->
           let store = ok_or_fail (Provstore.of_string (read_file (s // "prov.dat"))) in
           let forest, _ = Forest.decode (read_file (s // "forest.dat")) 0 in
           List.filter (Forest.mem forest) (Provstore.objects store))
         shards)
  in
  { directory; me; views; live }

(* The sample size the daemon must report for [seed]: one DRBG drawn in
   shard-then-oid order over the live objects. *)
let expected_sample bv seed =
  let drbg = Tep_crypto.Drbg.create ~seed in
  Array.fold_left
    (fun acc live ->
      List.fold_left
        (fun acc _ -> if Tep_crypto.Drbg.uniform_int drbg 1_000_000 < alpha_ppm then acc + 1 else acc)
        acc live)
    0 (Lazy.force bv.live)

let algo = Tep_crypto.Digest_algo.SHA1

(* A proof that passes the recheck must stop passing once its leaf
   value is changed in-process. *)
let canary ctl bv ~table =
  match (Client.root_hash ctl, Client.prove ctl ~table ~row:0 ~col:0 ()) with
  | Ok root, Ok p -> (
      let check p = Client.check_proofs ~algo ~directory:bv.directory ~trusted_root:root p in
      let forge (it : Client.proof_item) =
        let pf = it.Client.pf_proof in
        let v = match pf.Tep_tree.Proof.leaf_value with Value.Int i -> Value.Int (i + 1) | _ -> Value.Int 0 in
        { it with Client.pf_proof = { pf with Tep_tree.Proof.leaf_value = v } }
      in
      let clean r = r.Tep_core.Verifier.violations = [] in
      match (check p, check { p with Client.pf_items = List.map forge p.Client.pf_items }) with
      | Ok r, Error _ -> clean r
      | Ok r, Ok r' -> clean r && not (clean r')
      | Error _, _ -> false)
  | _ -> false

let server_counters ctl =
  let h = ok_or_fail (Client.ping ctl) in
  let ss = ok_or_fail (Client.shard_stats ctl) in
  let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 ss) in
  [
    ("batches", float_of_int h.Client.h_batches);
    ("ops", float_of_int h.Client.h_ops);
    ("shed", float_of_int h.Client.shed);
    ("root_hits", sum (fun s -> s.Message.ss_root_hits));
    ("root_recomputes", sum (fun s -> s.Message.ss_root_recomputes));
    ("proof_hits", sum (fun s -> s.Message.ss_proof_cache_hits));
    ("proof_misses", sum (fun s -> s.Message.ss_proof_cache_misses));
  ]

let delta after before = List.map (fun (k, v) -> (k, v -. List.assoc k before)) after

let ms_of = List.map (fun s -> s *. 1000.)

(* Run each load function on its own system thread and return their
   results in order.  Threads, not domains: the client's share of the
   work is small, and every extra domain is one more participant in
   each stop-the-world collection on a host whose cores the daemon
   already keeps busy. *)
let in_threads fs =
  let results = List.map (fun _ -> ref None) fs in
  let threads =
    List.map2
      (fun f r -> Thread.create (fun () -> r := Some (try Ok (f ()) with e -> Error e)) ())
      fs results
  in
  List.iter Thread.join threads;
  List.map (fun r -> match !r with Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false) results

(* The daemon's CPU seconds read every [window_s] from a thread of its
   own until [stop ()] is called, which returns the readings with the
   time each was taken.  A run's throughput and CPU cost are medians
   over these windows: on a host shared with other tenants, a few
   seconds of interference then move them little, where a mean over
   the whole run would carry it in full. *)
let window_s = 0.5

let sample_cpu pid =
  let first = (now (), cpu_seconds pid) in
  let marks = ref [ first ] and stopped = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stopped) do
          Thread.delay window_s;
          if not (Atomic.get stopped) then marks := (now (), cpu_seconds pid) :: !marks
        done)
      ()
  in
  fun () ->
    let last = (now (), cpu_seconds pid) in
    Atomic.set stopped true;
    Thread.join th;
    (* a run shorter than one window is its own single window; otherwise
       the part after the last whole window is left out *)
    match !marks with [ _ ] -> [ first; last ] | ms -> List.rev ms

(* The windows between consecutive marks: (start, stop, daemon CPU
   seconds spent in it). *)
let rec windows = function
  | (t0, c0) :: ((t1, c1) :: _ as rest) -> (t0, t1, c1 -. c0) :: windows rest
  | _ -> []

(* Per window, at the reference speed: the completions of [events] per
   second times the window's [speed] factor, and the daemon CPU
   milliseconds per completion of [all] divided by it (windows with no
   completion are skipped). *)
let per_window marks ~speed ~events ~all =
  let ws = windows marks and times = List.map fst marks in
  let rows = List.combine ws (List.combine (Stats.counts_between times events) (Stats.counts_between times all)) in
  let rates = List.map (fun ((a, b, _), (n, _)) -> float_of_int n /. (b -. a) *. speed a b) rows in
  let cpu =
    List.concat_map
      (fun ((a, b, dc), (_, n)) -> if n = 0 then [] else [ dc *. 1000. /. float_of_int n /. speed a b ])
      rows
  in
  (rates, cpu)

(* [speed] of the window each time falls in (the first or last window
   outside them). *)
let speed_at marks ~speed =
  let ws = Array.of_list (windows marks) in
  let fs = Array.map (fun (a, b, _) -> speed a b) ws in
  fun t ->
    let rec find lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        let a, _, _ = ws.(mid) in
        if a <= t then find mid hi else find lo mid
    in
    if Array.length ws = 0 then 1. else fs.(find 0 (Array.length ws))

let run_untraced ~bases ~seed ~ops w =
  let base = base_path bases w.base in
  let bv = view_of base in
  let ws = !work // w.name in
  (* set-up: a fresh copy of the base behind a daemon that answers an
     authenticated Ping *)
  let probes = Probe.start ~dir:!work in
  let setups = ref [] and current = ref None in
  for i = 1 to setup_repeats do
    rm_rf ws;
    let t0 = now () in
    copy_tree base ws;
    let d = start_daemon ws in
    let ctl = wait_ready d bv.me in
    setups := (t0, now ()) :: !setups;
    if i < setup_repeats then begin
      Client.close ctl;
      ignore (stop_daemon ~signal:Sys.sigkill d)
    end
    else current := Some (d, ctl)
  done;
  let d, ctl = Option.get !current in
  let tables = match w.base with B1 -> [| "t" |] | B4 -> Lazy.force Gen.b4_tables in
  let canary_ok = canary ctl bv ~table:tables.(0) in
  let connect k =
    ok_or_fail
      (Drive.connect ~sock:d.sock ~participant:bv.me
         ~drbg_seed:(Printf.sprintf "provbench-%s-%d-%d" w.name seed k))
  in
  let trusted = ok_or_fail (Client.root_hash ctl) in
  let row_oid row = Option.get (Tree_view.row_oid bv.views.(0) "t" row) in
  let directory = bv.directory in
  (* connections and inputs are ready before the clock starts; [go ()]
     returns the primary stream's tally first *)
  let conns, go =
    match Gen.streams ~name:w.name ~seed ~ops with
    | Gen.Ingest streams ->
        let conns = Array.init 2 connect in
        ( conns,
          fun () ->
            in_threads (List.init 2 (fun k () -> Drive.write_loop conns.(k) streams.(k) ~window:8)) )
    | Gen.Verify_read streams ->
        let conns = Array.init 2 connect in
        ( conns,
          fun () ->
            in_threads
              (List.init 2 (fun k () ->
                   Drive.read_loop conns.(k) streams.(k) ~algo ~directory ~trusted ~row_oid)) )
    | Gen.Mixed { writes; hot; picks } ->
        let pick () = Random.State.int picks (Array.length hot) in
        let stop = Atomic.make false in
        let conns = Array.init 2 connect in
        ( conns,
          fun () ->
            in_threads
              [
                (fun () ->
                  Fun.protect
                    ~finally:(fun () -> Atomic.set stop true)
                    (fun () -> Drive.write_loop conns.(0) writes ~window:8));
                (fun () -> Drive.hot_read_loop conns.(1) hot ~pick ~stop ~algo ~directory);
              ] )
    | Gen.Audit seeds ->
        (* drawing a sample costs one DRBG step per live object, so
           only the first, middle and last sweeps are checked *)
        let n = Array.length seeds in
        let expected =
          Array.mapi
            (fun i seed -> if i = 0 || i = n / 2 || i = n - 1 then Some (expected_sample bv seed) else None)
            seeds
        in
        let conns = [| connect 0 |] in
        ( conns,
          fun () -> [ Drive.audit_loop conns.(0) seeds ~alpha_ppm ~expected ~cpu:(fun () -> cpu_seconds d.pid) ]
        )
  in
  let counters0 = server_counters ctl in
  let cpu0 = cpu_seconds d.pid in
  let t0 = now () in
  let stop_sampling = sample_cpu d.pid in
  let tallies = go () in
  let elapsed = now () -. t0 in
  let cpu = cpu_seconds d.pid -. cpu0 in
  let marks = stop_sampling () in
  let samples = Probe.stop probes in
  let counters = delta (server_counters ctl) counters0 in
  Array.iter Client.close conns;
  (* crash and recover: SIGKILL, then `provdb recover` and a restart
     until the first Ping, which must serve the same root; the restart
     is then drained *)
  let root_before = ok_or_fail (Client.root_hash ctl) in
  Client.close ctl;
  ignore (stop_daemon ~signal:Sys.sigkill d);
  let t_recover = now () in
  ok_or_fail (run ~log_file:(ws ^ ".log") !provdb [ "recover"; ws ]);
  let d = start_daemon ws in
  let ctl = wait_ready d bv.me in
  let root_after = ok_or_fail (Client.root_hash ctl) in
  let recover_s = now () -. t_recover in
  Client.close ctl;
  let drained = stop_daemon d in
  let bytes_per_user_byte = float_of_int (tree_bytes ws) /. float_of_int (user_bytes ws) in
  rm_rf ws;
  let all = Drive.merge tallies in
  (* the primary op stream: every connection's on ingest and
     verify_read, the writer's on mixed_sharded *)
  let primary = if w.name = "mixed_sharded" then List.hd tallies else all in
  List.iter (fun e -> log "%s: %s" w.name e) all.Drive.errors;
  (* Every timing is divided by the host's speed factor over the
     interval it was taken in, so that it reads as on the reference
     host whatever phase the host was in (see probe.ml). *)
  let speed = Probe.factor samples in
  let at = speed_at marks ~speed in
  let latencies_ms (t : Drive.tally) =
    ms_of (List.map2 (fun l e -> l /. at e) t.Drive.lat t.Drive.done_at)
  in
  let lat_ms = latencies_ms primary in
  let tail = Stats.supported_tail (List.length lat_ms) in
  let host_speed = speed neg_infinity infinity in
  log "%s: %d ops in %.2f s, %.0f group commits, daemon cpu %.2f s, host speed %.3f, p%.0f %.1f ms of %d, recovery %.2f s, %d re-reads (%d after a raced chain)"
    w.name all.Drive.completed elapsed (List.assoc "batches" counters) cpu host_speed tail
    (Stats.percentile lat_ms tail) (List.length lat_ms) recover_s all.Drive.rereads all.Drive.raced;
  (* verified reads: the whole stream on verify_read, the reader's on
     mixed_sharded *)
  let reads =
    match (w.name, tallies) with
    | "verify_read", _ -> all
    | "mixed_sharded", [ _; r ] -> r
    | _ -> Drive.tally ()
  in
  let writes = match w.name with "ingest" | "mixed_sharded" -> primary.Drive.completed | _ -> 0 in
  let checks =
    [
      ("canary proof rejected", canary_ok);
      ("root unchanged after SIGKILL + recover", root_after = root_before);
      ("daemon drained cleanly", drained = Ok ());
      ("no failed or refused op (error_ratio = 0)", all.Drive.failed = 0);
      ("no op shed by admission control", List.assoc "shed" counters = 0.);
      (* without samples the timings could not be normalized *)
      ("host speed probes reported", samples <> []);
    ]
  in
  let setup_s = Stats.median (List.map (fun (a, b) -> (b -. a) /. speed a b) !setups) in
  (* audit: a sweep that samples the table or root object checks the
     whole table's records, so sweeps differ a hundredfold in size; the
     median sweep's rate and the CPU per checked record do not *)
  let rates, cpu_per_op =
    if w.name = "audit" then
      let f = List.map2 (fun l e -> speed (e -. l) e) primary.Drive.lat primary.Drive.done_at in
      ( List.map2 ( *. ) primary.Drive.rates f,
        List.map2 (fun c f -> c *. 1000. /. f) primary.Drive.cpu_per_record f )
    else per_window marks ~speed ~events:primary.Drive.done_at ~all:all.Drive.done_at
  in
  {
    workload = w;
    seed;
    ops;
    checks;
    attempted = all.Drive.attempted;
    failed = all.Drive.failed;
    metrics =
      [
        { m_name = "setup_s"; m_unit = "s"; m_value = setup_s };
        { m_name = "ops_per_s"; m_unit = "1/s"; m_value = Stats.median rates };
        { m_name = "p50_ms"; m_unit = "ms"; m_value = Stats.percentile lat_ms 50. };
        { m_name = "cpu_ms_per_op"; m_unit = "ms"; m_value = Stats.median cpu_per_op };
        { m_name = "bytes_per_user_byte"; m_unit = "ratio"; m_value = bytes_per_user_byte };
      ];
    host_speed;
    counters =
      counters
      @ [
          ("completed", float_of_int all.Drive.completed);
          ("attempted", float_of_int all.Drive.attempted);
          ("writes", float_of_int writes);
          ("reads", float_of_int reads.Drive.completed);
          ("rereads", float_of_int reads.Drive.rereads);
          ("stale", float_of_int reads.Drive.stale);
          ("read_p50_ms", if reads.Drive.lat = [] then 0. else Stats.percentile (latencies_ms reads) 50.);
          ("tail_ms", Stats.percentile lat_ms tail);
          ("recover_s", recover_s);
          ("cpu_s", cpu);
        ];
    sampled = all.Drive.sampled;
  }

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

let per a b = if b = 0. then 0. else a /. b

(* Replay the run's op stream in-process twice (untraced, then traced)
   and derive the per-layer metrics from the spans, the replay's
   counters and the untraced daemon run's counters.  Also returns the
   check that the replay's audit sweeps sampled what the daemon's did. *)
let run_traced ~bases ~spans_file o =
  let w = o.workload in
  let counter k = List.assoc k o.counters in
  let plan () =
    {
      Replay.streams = Gen.streams ~name:w.name ~seed:o.seed ~ops:o.ops;
      share = !replay_share;
      batch = max 1 (min 16 (int_of_float (Float.round (per (counter "ops") (counter "batches")))));
      reads_per_write = per (counter "reads") (counter "writes");
      alpha_ppm;
    }
  in
  let base = base_path bases w.base in
  let ws = !work // (w.name ^ "-replay") in
  (* the pool's domains start on first use: not a cost of either run *)
  ignore (Tep_parallel.Pool.default ());
  let plain, _ = Replay.run ~enabled:false ~base ~ws (plan ()) in
  let c, spans = Replay.run ~enabled:true ~base ~ws (plan ()) in
  let same_sample =
    List.for_all (fun (seed, n) -> List.assoc_opt seed o.sampled = Some n) (plain.Replay.sampled @ c.Replay.sampled)
  in
  write_file spans_file
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str w.name);
            ("seed", Json.Num (float_of_int o.seed));
            ("wall_s", Json.Num c.Replay.wall);
            ("spans", Span.to_json spans);
          ]));
  let totals = Span.by_name spans in
  let get name =
    Option.value (Hashtbl.find_opt totals name) ~default:{ Span.self = 0.; dur = 0.; count = 0 }
  in
  let mean_ms name = per ((get name).Span.dur *. 1000.) (float_of_int (get name).Span.count) in
  let selfs = Span.self_times spans in
  let self_sum pred = List.fold_left (fun acc (s, t) -> if pred s then acc +. t else acc) 0. selfs in
  let daemon_self = self_sum (fun s -> s.Span.daemon) in
  let requests = float_of_int c.Replay.requests in
  let writes = float_of_int c.Replay.writes in
  (* daemon CPU per client request (per sweep on audit, whose
     cpu_ms_per_op is per checked record) *)
  let cpu_ms_per_op = per (counter "cpu_s" *. 1000.) (counter "completed") in
  let batches = float_of_int (c.Replay.commits + c.Replay.cross) in
  let f = float_of_int in
  let m name unit value = { m_name = name; m_unit = unit; m_value = value } in
  ( ("replay samples what the daemon sampled", same_sample),
  [
    m "server.ops_per_batch" "count" (per (counter "ops") (counter "batches"));
    m "server.cpu_unattributed_ms_per_op" "ms" (cpu_ms_per_op -. per (daemon_self *. 1000.) requests);
    m "server.proof_lru_hit_ratio" "ratio"
      (per (counter "proof_hits") (counter "proof_hits" +. counter "proof_misses"));
    m "server.root_cache_hit_ratio" "ratio"
      (per (counter "root_hits") (counter "root_hits" +. counter "root_recomputes"));
    m "server.shed_ratio" "ratio" (per (counter "shed") (counter "attempted"));
    m "core.apply_ms_per_op" "ms" (per ((get "core.apply").Span.dur *. 1000.) writes);
    m "core.commit_ms_per_batch" "ms" (mean_ms "core.commit");
    m "core.records_per_op" "count" (per (f c.Replay.records) writes);
    m "core.cross_commit_ms_per_batch" "ms" (mean_ms "core.cross_commit");
    m "core.verify_ms_per_record" "ms"
      (per ((get "core.verify").Span.dur *. 1000.) (f c.Replay.verified_records));
    m "core.closure_records_per_read" "count" (per (f c.Replay.closure_records) (f c.Replay.proofs));
    m "tree.hash_ms_per_batch" "ms" (per (c.Replay.hash_s *. 1000.) batches);
    m "tree.nodes_hashed_per_op" "count" (per (f c.Replay.nodes) writes);
    m "tree.prove_ms" "ms" (mean_ms "tree.prove");
    m "tree.proof_bytes" "bytes" (per (f c.Replay.proof_bytes) (f c.Replay.proofs));
    m "tree.proof_verify_ms" "ms" (mean_ms "tree.proof_verify");
    m "tree.warm_hash_s" "s" (get "tree.warm_hash").Span.dur;
    m "crypto.sign_ms" "ms" (per (c.Replay.sign_cpu_s *. 1000.) (f c.Replay.records));
    m "crypto.sign_share" "ratio" (per (per (c.Replay.sign_cpu_s *. 1000.) requests) cpu_ms_per_op);
    m "crypto.verify_ms" "ms" (mean_ms "crypto.verify");
    m "crypto.seal_open_us" "us" (mean_ms "crypto.seal_open" *. 1000.);
    m "wire.codec_us_per_req" "us" (per ((get "wire.codec").Span.dur *. 1e6) requests);
    m "wire.resp_bytes_per_read" "bytes" (per (f c.Replay.read_resp_bytes) (f c.Replay.reads));
    m "store.wal_bytes_per_op" "bytes" (per (f c.Replay.wal_growth) writes);
    m "store.wal_append_us_per_op" "us" (per ((get "store.wal_append").Span.dur *. 1e6) writes);
    m "store.wal_flush_ms_per_batch" "ms" (mean_ms "store.wal_flush");
    m "store.snapshot_load_s" "s" (get "store.snapshot_load").Span.dur;
    m "store.replay_s" "s" (get "store.replay").Span.dur;
    m "store.recover_s" "s" (counter "recover_s");
    m "host.speed" "ratio" o.host_speed;
    m "client.recheck_ms" "ms" (mean_ms "client.recheck");
    m "client.reread_ratio" "ratio"
      (per (counter "rereads") (counter "rereads" +. counter "reads" +. counter "stale"));
    m "client.read_p50_ms" "ms" (counter "read_p50_ms");
    m "client.tail_ms" "ms" (counter "tail_ms");
    m "prov.lineage_ms" "ms" (mean_ms "prov.lineage");
    m "trace.coverage" "ratio" (per (self_sum (fun _ -> true)) c.Replay.wall);
    m "trace.overhead_ratio" "ratio" (per (c.Replay.wall -. plain.Replay.wall) plain.Replay.wall);
  ] )

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let metrics_json ?(prefix = "") ms =
  List.map
    (fun m ->
      (prefix ^ m.m_name, Json.Obj [ ("value", Json.Num m.m_value); ("unit", Json.Str m.m_unit) ]))
    ms

let record_json ~trace o metrics =
  Json.Obj
    [
      ("workload", Json.Str o.workload.name);
      ("seed", Json.Num (float_of_int o.seed));
      ("ops", Json.Num (float_of_int o.ops));
      ("trace", Json.Bool trace);
      ("git_rev", Json.Str (git_rev ()));
      ("host_cores", Json.Num (float_of_int (host_cores ())));
      ("host_speed", Json.Num o.host_speed);
      ("daemon_flags", Json.Str daemon_flags);
      ("rsa_bits", Json.Num (float_of_int Tep_crypto.Rsa.default_bits));
      ("correct", Json.Bool (correct o));
      ("checks", Json.Obj (List.map (fun (k, v) -> (k, Json.Bool v)) o.checks));
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("metrics", Json.Obj (metrics_json metrics));
    ]

let print_table o metrics =
  Printf.printf "== %s (seed %d, %d ops, host_cores %d, rsa %d bits, daemon %s)\n" o.workload.name
    o.seed o.ops (host_cores ()) Tep_crypto.Rsa.default_bits daemon_flags;
  List.iter (fun (k, v) -> Printf.printf "   check  %-44s %s\n" k (if v then "ok" else "FAILED")) o.checks;
  List.iter (fun m -> Printf.printf "   %-36s %16.6g %s\n" m.m_name m.m_value m.m_unit) metrics;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: provbench run [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE] \
     [--spans-dir DIR]\n\
    \       provbench compare A B [--benchmark FILE]\n\
    \       provbench smoke\n\
     run and smoke also take [--provdb EXE] [--provdbd EXE] [--work DIR]";
  exit 2

let common = function
  | "--provdb" :: f :: rest ->
      provdb := f;
      Some rest
  | "--provdbd" :: f :: rest ->
      provdbd := f;
      Some rest
  | "--work" :: f :: rest ->
      work := f;
      Some rest
  | _ -> None

(* Run [ws] and print each result; returns whether every check held.
   [ops_of] gives each workload's op count. *)
let run_workloads ~seed ~trace ~ops_of ~out ~spans_dir ws =
  List.iter
    (fun f -> if not (Sys.file_exists f) then failwith (f ^ " not found: build the daemon first"))
    [ !provdb; !provdbd ];
  mkdir_p !work;
  let spans_dir = Option.value spans_dir ~default:!work in
  mkdir_p spans_dir;
  let bases = base_dir () in
  let results =
    List.map
      (fun w ->
        let ops = ops_of w in
        log "%s: seed %d, %d ops%s" w.name seed ops (if trace then ", traced" else "");
        let o = run_untraced ~bases ~seed ~ops w in
        print_table o o.metrics;
        let o, metrics =
          if not trace then (o, o.metrics)
          else begin
            let spans_file = spans_dir // Printf.sprintf "spans-%s-%d.json" w.name seed in
            let check, layer = run_traced ~bases ~spans_file o in
            let o = { o with checks = o.checks @ [ check ] } in
            print_table o layer;
            log "%s: spans written to %s" w.name spans_file;
            (o, layer)
          end
        in
        Option.iter
          (fun f ->
            let oc = open_out_gen [ Open_append; Open_creat ] 0o644 f in
            output_string oc (Json.to_string (record_json ~trace o metrics) ^ "\n");
            close_out oc)
          out;
        (o, metrics))
      ws
  in
  let single = List.length results = 1 in
  let sum f = Json.Num (float_of_int (List.fold_left (fun a (o, _) -> a + f o) 0 results)) in
  let ok = List.for_all (fun (o, _) -> correct o) results in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool ok);
            ("attempted", sum (fun o -> o.attempted));
            ("failed", sum (fun o -> o.failed));
            ( "metrics",
              Json.Obj
                (List.concat_map
                   (fun (o, ms) ->
                     metrics_json ~prefix:(if single then "" else o.workload.name ^ "/") ms)
                   results) );
          ]));
  ok

let cmd_run args =
  let names = ref [] and seed = ref 1 and seconds = ref 10 and trace = ref false in
  let out = ref None and spans_dir = ref None in
  let rec parse args =
    match common args with
    | Some rest -> parse rest
    | None -> (
        match args with
        | "--workload" :: w :: rest ->
            names := !names @ [ w ];
            parse rest
        | "--seed" :: n :: rest ->
            seed := int_of_string n;
            parse rest
        | "--seconds" :: n :: rest ->
            seconds := int_of_string n;
            parse rest
        | "--trace" :: ("0" | "1" as v) :: rest ->
            trace := v = "1";
            parse rest
        | "--trace" :: rest ->
            trace := true;
            parse rest
        | "--out" :: f :: rest ->
            out := Some f;
            parse rest
        | "--spans-dir" :: d :: rest ->
            spans_dir := Some d;
            parse rest
        | [] -> ()
        | a :: _ ->
            prerr_endline ("provbench: unknown argument " ^ a);
            usage ())
  in
  parse args;
  let ws =
    match !names with
    | [] -> workloads
    | ns ->
        List.map
          (fun n ->
            match find_workload n with
            | Some w -> w
            | None ->
                prerr_endline ("provbench: unknown workload " ^ n);
                exit 2)
          ns
  in
  let ops_of w = max 8 (int_of_float (w.rate *. float_of_int !seconds)) in
  if not (run_workloads ~seed:!seed ~trace:!trace ~ops_of ~out:!out ~spans_dir:!spans_dir ws) then
    exit 1

(* Every workload at toy scale, traced, with every correctness check:
   the quick gate that the benchmark itself still works. *)
let cmd_smoke args =
  let rec parse args =
    match common args with
    | Some rest -> parse rest
    | None -> if args <> [] then usage ()
  in
  parse args;
  Gen.b1_rows := 60;
  Gen.b1_updates := 60;
  Gen.b4_rows := 20;
  replay_share := 1.;
  let ops_of w = match w.name with "audit" -> 2 | "mixed_sharded" -> 48 | _ -> 32 in
  let ok = run_workloads ~seed:1 ~trace:true ~ops_of ~out:None ~spans_dir:None workloads in
  rm_rf !work;
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

(* Result records (one JSON object per line, as [run --out] appends
   them) from a file, or from every *.jsonl file of a directory. *)
let read_records path =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      |> List.map (fun f -> path // f)
    else [ path ]
  in
  List.concat_map
    (fun f ->
      String.split_on_char '\n' (read_file f)
      |> List.filter (fun l -> String.trim l <> "")
      |> List.map Json.of_string)
    files

(* metric name -> (better, bound option), from BENCHMARK.json *)
let read_bounds path =
  match Json.of_string (read_file path) with
  | exception (Sys_error _ | Json.Parse_error _) -> []
  | j ->
      List.filter_map
        (fun m ->
          match (Json.to_str (Json.member "name" m), Json.to_str (Json.member "better" m)) with
          | Some n, Some b -> (
              match Verdict.better_of_string b with
              | Some better -> Some (n, (better, Json.to_num (Json.member "bound" m)))
              | None -> None)
          | _ -> None)
        (Json.to_list (Json.member "end_to_end" j) @ Json.to_list (Json.member "per_layer" j))

let values records ~workload ~metric =
  List.filter_map
    (fun r ->
      if Json.to_str (Json.member "workload" r) <> Some workload then None
      else
        match Json.member "metrics" r with
        | Some ms -> Json.to_num (Option.bind (Json.member metric ms) (Json.member "value"))
        | None -> None)
    records

let cmd_compare args =
  let bench = ref "BENCHMARK.json" in
  let rec parse acc = function
    | "--benchmark" :: f :: rest ->
        bench := f;
        parse acc rest
    | x :: rest -> parse (x :: acc) rest
    | [] -> List.rev acc
  in
  match parse [] args with
  | [ pa; pb ] ->
      let a = read_records pa and b = read_records pb in
      let bounds = read_bounds !bench in
      let names k rs =
        List.sort_uniq compare (List.filter_map (fun r -> Json.to_str (Json.member k r)) rs)
      in
      Printf.printf "A = %s (%d runs), B = %s (%d runs)\n" pa (List.length a) pb (List.length b);
      Printf.printf "%-14s %-34s %-34s %-34s %6s %12s  %s\n" "workload" "metric" "A median [q1, q3]"
        "B median [q1, q3]" "B won" "B better by" "verdict";
      List.iter
        (fun workload ->
          let metrics =
            List.concat_map
              (fun r ->
                if Json.to_str (Json.member "workload" r) = Some workload then
                  match Json.member "metrics" r with Some (Json.Obj kvs) -> List.map fst kvs | _ -> []
                else [])
              a
            |> List.sort_uniq compare
          in
          List.iter
            (fun metric ->
              let va = values a ~workload ~metric and vb = values b ~workload ~metric in
              if va <> [] && vb <> [] then begin
                let show v =
                  let q1, q3 = Stats.quartiles v in
                  Printf.sprintf "%.5g [%.5g, %.5g] n=%d" (Stats.median v) q1 q3 (List.length v)
                in
                let won, change, verdict =
                  match List.assoc_opt metric bounds with
                  | Some (better, bound) ->
                      ( Printf.sprintf "%.2f" (Verdict.pairs_won better ~a:va ~b:vb),
                        Printf.sprintf "%+.1f%%" (-100. *. Verdict.worse_by better ~a:va ~b:vb),
                        match bound with
                        | Some bound -> Verdict.to_string (Verdict.verdict better ~bound ~a:va ~b:vb)
                        | None -> "(no bound)" )
                  | None -> ("-", "-", "(not in BENCHMARK.json)")
                in
                Printf.printf "%-14s %-34s %-34s %-34s %6s %12s  %s\n" workload metric (show va) (show vb)
                  won change verdict
              end)
            metrics)
        (names "workload" a)
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> cmd_run rest
  | "smoke" :: rest -> cmd_smoke rest
  | "compare" :: rest -> cmd_compare rest
  | [ "probe" ] -> Probe.main ()
  | _ -> usage ()
