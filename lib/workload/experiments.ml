open Tep_store
open Tep_core
open Tep_tree

type config = { scale : float; rsa_bits : int; seed : string; runs : int }

let default_config = { scale = 0.1; rsa_bits = 512; seed = "tep-bench"; runs = 3 }

let config_of_env () =
  let scale =
    match Sys.getenv_opt "TEP_SCALE" with
    | Some "full" -> 1.0
    | Some "smoke" -> 0.02
    | Some s -> ( try float_of_string s with _ -> default_config.scale)
    | None -> default_config.scale
  in
  let rsa_bits =
    match Sys.getenv_opt "TEP_RSA_BITS" with
    | Some s -> ( try int_of_string s with _ -> default_config.rsa_bits)
    | None -> if scale >= 1.0 then 1024 else default_config.rsa_bits
  in
  let runs =
    match Sys.getenv_opt "TEP_RUNS" with
    | Some s -> ( try max 1 (int_of_string s) with _ -> default_config.runs)
    | None -> default_config.runs
  in
  { default_config with scale; rsa_bits; runs }

let ok = function Ok v -> v | Error e -> failwith ("Experiments: " ^ e)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Average wall seconds over cfg.runs executions. *)
let timed_avg cfg f =
  let total = ref 0. in
  for _ = 1 to cfg.runs do
    let _, dt = time f in
    total := !total +. dt
  done;
  !total /. float_of_int cfg.runs

let env_with_participant cfg name =
  let env = Scenario.make_env ~seed:cfg.seed () in
  let drbg = env.Scenario.drbg in
  let p = Participant.create ~bits:cfg.rsa_bits ~ca:env.Scenario.ca ~name drbg in
  Participant.Directory.register env.Scenario.directory p;
  (env, p)

let scaled_specs cfg n =
  List.filteri (fun i _ -> i < n) Synth.paper_tables
  |> List.map (Synth.scale cfg.scale)

let build_db cfg n =
  Synth.build_database ~name:(Printf.sprintf "db%d" n) ~seed:(cfg.seed ^ "-db")
    (scaled_specs cfg n)

(* ---------- Table 1 ---------- *)

type table1_row = { tables : string; expected_nodes : int; actual_nodes : int }

let table1 cfg =
  List.mapi
    (fun i expected ->
      let db = build_db { cfg with scale = 1.0 } (i + 1) in
      {
        tables = String.concat "," (List.init (i + 1) (fun j -> string_of_int (j + 1)));
        expected_nodes = expected;
        actual_nodes = Database.node_count db;
      })
    Synth.paper_node_counts

(* ---------- Figure 6 ---------- *)

type fig6_point = { f6_nodes : int; f6_seconds : float }

let fig6 cfg =
  List.init 4 (fun i ->
      let db = build_db cfg (i + 1) in
      let algo = Tep_crypto.Digest_algo.SHA1 in
      let seconds =
        timed_avg cfg (fun () -> ignore (Streaming.hash_database algo db))
      in
      { f6_nodes = Database.node_count db; f6_seconds = seconds })

(* ---------- Figure 7 ---------- *)

type fig7_point = {
  f7_updates : int;
  f7_basic_s : float;
  f7_economical_s : float;
  f7_basic_nodes : int;
  f7_economical_nodes : int;
}

let scale_point cfg n = max 1 (int_of_float (float_of_int n *. cfg.scale))

let fig7 cfg =
  let points = List.map (scale_point cfg) Ops_gen.setup_a_points in
  (* deduplicate after scaling *)
  let points = List.sort_uniq compare points in
  List.map
    (fun updates ->
      let run mode =
        let env, p = env_with_participant cfg "updater" in
        let db =
          Synth.build_database ~seed:(cfg.seed ^ "-f7")
            [ Synth.scale cfg.scale (List.hd Synth.paper_tables) ]
        in
        let eng = Engine.create ~mode ~directory:env.Scenario.directory db in
        let max_rows =
          if updates <= scale_point cfg 4000 then updates
          else scale_point cfg 4000
        in
        let op =
          Ops_gen.updates_spread env.Scenario.drbg db ~table:"t1" ~cells:updates
            ~max_rows
        in
        let m = ok (Ops_gen.apply eng p op) in
        (m.Engine.hash_s, m.Engine.nodes_hashed)
      in
      let b_s, b_n = run Engine.Basic in
      let e_s, e_n = run Engine.Economical in
      {
        f7_updates = updates;
        f7_basic_s = b_s;
        f7_economical_s = e_s;
        f7_basic_nodes = b_n;
        f7_economical_nodes = e_n;
      })
    points

(* ---------- Figures 8 / 9 ---------- *)

type setup_b_row = { b_label : string; b_metrics : Engine.metrics }

let fresh_engine cfg =
  let env, p = env_with_participant cfg "worker" in
  let db =
    Synth.build_database ~seed:(cfg.seed ^ "-b")
      [ Synth.scale cfg.scale (List.hd Synth.paper_tables) ]
  in
  let eng = Engine.create ~directory:env.Scenario.directory db in
  (env, p, db, eng)

let fig8_9 cfg =
  let point label op_of_env =
    let env, p, db, eng = fresh_engine cfg in
    let op = op_of_env env db in
    let m = ok (Ops_gen.apply eng p op) in
    { b_label = label; b_metrics = m }
  in
  let n500 = scale_point cfg 500 in
  let n4000 = scale_point cfg 4000 in
  [
    point (Printf.sprintf "%d row deletes" n500) (fun _env db ->
        Ops_gen.all_deletes db ~table:"t1" ~count:n500);
    point (Printf.sprintf "%d row inserts" n500) (fun env db ->
        Ops_gen.all_inserts env.Scenario.drbg db ~table:"t1" ~count:n500);
    point
      (Printf.sprintf "%d cell updates in %d rows" n4000 n500)
      (fun env db ->
        Ops_gen.all_updates env.Scenario.drbg db ~table:"t1" ~cells:n4000
          ~rows:n500);
    point
      (Printf.sprintf "%d cell updates in %d rows" n4000 n4000)
      (fun env db ->
        Ops_gen.all_updates env.Scenario.drbg db ~table:"t1" ~cells:n4000
          ~rows:n4000);
  ]

(* ---------- Figures 10 / 11 ---------- *)

type setup_c_row = {
  c_deletes_pct : float;
  c_inserts_pct : float;
  c_updates_pct : float;
  c_metrics : Engine.metrics;
}

let fig10_11 cfg =
  let total = scale_point cfg 500 in
  List.map
    (fun mix ->
      let env, p, db, eng = fresh_engine cfg in
      let op = Ops_gen.mixed_ops env.Scenario.drbg db ~table:"t1" ~total mix in
      let m = ok (Ops_gen.apply eng p op) in
      {
        c_deletes_pct = mix.Ops_gen.deletes_pct;
        c_inserts_pct = mix.Ops_gen.inserts_pct;
        c_updates_pct = mix.Ops_gen.updates_pct;
        c_metrics = m;
      })
    Ops_gen.paper_mixes

(* ---------- Big database streaming hash ---------- *)

type bigdb_result = {
  big_rows : int;
  big_nodes : int;
  big_seconds : float;
  big_ms_per_node : float;
}

let bigdb cfg =
  (* paper: 18,962,041 rows; default scale gives ~190k *)
  let rows = max 1000 (int_of_float (18_962_041. *. cfg.scale /. 10.)) in
  let db = Synth.build_title_database ~rows in
  let algo = Tep_crypto.Digest_algo.SHA1 in
  let (h, nodes), seconds =
    time (fun () -> Streaming.hash_database_with_counts algo db)
  in
  ignore h;
  {
    big_rows = rows;
    big_nodes = nodes;
    big_seconds = seconds;
    big_ms_per_node = seconds *. 1000. /. float_of_int nodes;
  }

(* ---------- Ablation: local vs global chaining (Section 3.2) ---------- *)

type chaining_result = {
  ch_objects : int;
  ch_ops : int;
  ch_cores : int;
  local_wall_s : float;
  global_wall_s : float;
  local_critical_path : int;
  global_critical_path : int;
  local_failed_after_corruption : int;
  global_failed_after_corruption : int;
  local_verify_s : float;
  global_verify_s : float;
}

let ablation_chaining cfg =
  let objects = 8 in
  let ops_per_object = max 50 (scale_point cfg 500) in
  let env = Scenario.make_env ~seed:(cfg.seed ^ "-chain") () in
  let mk name =
    let p = Participant.create ~bits:cfg.rsa_bits ~ca:env.Scenario.ca ~name env.Scenario.drbg in
    Participant.Directory.register env.Scenario.directory p;
    p
  in
  let participants = Array.init 4 (fun i -> mk (Printf.sprintf "p%d" i)) in
  let dir = env.Scenario.directory in
  (* Local chains: per-object chains are independent, so update work
     parallelises across domains.  Chains are created sequentially
     first (the chain table itself is not domain-safe); the parallel
     phase then only touches disjoint per-object ref cells. *)
  let local = Baseline.Linear.create () in
  let local_wall =
    let _, dt =
      time (fun () ->
          for oid = 0 to objects - 1 do
            ignore
              (Baseline.Linear.apply local participants.(oid mod 4)
                 (Baseline.Insert (oid, "v0")))
          done;
          let worker lo hi =
            Domain.spawn (fun () ->
                for oid = lo to hi do
                  let p = participants.(oid mod 4) in
                  for k = 1 to ops_per_object - 1 do
                    ignore
                      (Baseline.Linear.apply local p
                         (Baseline.Update (oid, Printf.sprintf "v%d" k)))
                  done
                done)
          in
          let d1 = worker 0 ((objects / 2) - 1) in
          let d2 = worker (objects / 2) (objects - 1) in
          Domain.join d1;
          Domain.join d2)
    in
    dt
  in
  (* Global chain: all ops serialise through one chain head. *)
  let global = Baseline.Global.create () in
  let global_wall =
    let _, dt =
      time (fun () ->
          for oid = 0 to objects - 1 do
            let p = participants.(oid mod 4) in
            ignore (Baseline.Global.apply global p (Baseline.Insert (oid, "v0")));
            for k = 1 to ops_per_object - 1 do
              ignore
                (Baseline.Global.apply global p
                   (Baseline.Update (oid, Printf.sprintf "v%d" k)))
            done
          done)
    in
    dt
  in
  (* Verification cost for a single object. *)
  let _, local_verify_s =
    time (fun () -> ignore (Baseline.Linear.verify_object local dir 0))
  in
  let _, global_verify_s =
    time (fun () -> ignore (Baseline.Global.verify_object global dir 0))
  in
  (* Failure locality: corrupt one object's record in each scheme. *)
  ignore (Baseline.Linear.corrupt local (objects / 2));
  ignore (Baseline.Global.corrupt global (objects / 2));
  let _, local_bad = Baseline.Linear.verify_all local dir in
  let _, global_bad = Baseline.Global.verify_all global dir in
  {
    ch_objects = objects;
    ch_ops = objects * ops_per_object;
    ch_cores = Domain.recommended_domain_count ();
    local_critical_path = ops_per_object;
    global_critical_path = objects * ops_per_object;
    local_wall_s = local_wall;
    global_wall_s = global_wall;
    local_failed_after_corruption = local_bad;
    global_failed_after_corruption = global_bad;
    local_verify_s;
    global_verify_s;
  }

(* ---------- Ablation: scheme comparison ---------- *)

type baseline_row = {
  bl_scheme : string;
  bl_ops : int;
  bl_wall_s : float;
  bl_space_bytes : int;
  bl_fine_grained : bool;
}

let ablation_baseline cfg =
  let n_ops = max 50 (scale_point cfg 500) in
  let env, p = env_with_participant cfg "worker" in
  let dir = env.Scenario.directory in
  ignore dir;
  (* plain provenance, no integrity *)
  let plain = Baseline.Plain.create () in
  let _, plain_s =
    time (fun () ->
        for i = 0 to n_ops - 1 do
          Baseline.Plain.apply plain ~participant:"worker"
            (Baseline.Update ((i mod 20) + 1000, string_of_int i))
        done)
  in
  (* seed objects first so updates apply *)
  let linear = Baseline.Linear.create () in
  for o = 1000 to 1019 do
    ignore (Baseline.Linear.apply linear p (Baseline.Insert (o, "v")))
  done;
  let _, linear_s =
    time (fun () ->
        for i = 0 to n_ops - 1 do
          ignore
            (Baseline.Linear.apply linear p
               (Baseline.Update ((i mod 20) + 1000, string_of_int i)))
        done)
  in
  (* this paper's engine: same number of cell updates on a real table *)
  let db =
    Synth.build_database ~seed:(cfg.seed ^ "-bl")
      [ { Synth.name = "t1"; attrs = 8; rows = 20 } ]
  in
  let eng = Engine.create ~directory:env.Scenario.directory db in
  let _, tep_s =
    time (fun () ->
        for i = 0 to n_ops - 1 do
          ignore
            (Engine.update_cell eng p ~table:"t1" ~row:(i mod 20) ~col:(i mod 8)
               (Value.Int i))
        done)
  in
  (* fix the plain baseline: it got Update on unseeded oids; it does
     not validate existence, so counts are comparable *)
  [
    {
      bl_scheme = "plain (no checksums)";
      bl_ops = n_ops;
      bl_wall_s = plain_s;
      bl_space_bytes = Baseline.Plain.space_bytes plain;
      bl_fine_grained = false;
    };
    {
      bl_scheme = "linear chains (Hasan et al.)";
      bl_ops = n_ops;
      bl_wall_s = linear_s;
      bl_space_bytes = Baseline.Linear.space_bytes linear;
      bl_fine_grained = false;
    };
    {
      bl_scheme = "tep compound engine (this paper)";
      bl_ops = n_ops;
      bl_wall_s = tep_s;
      bl_space_bytes = Provstore.paper_space_bytes (Engine.provstore eng);
      bl_fine_grained = true;
    };
  ]

(* ---------- Ablation: RSA signatures vs HMAC tags ---------- *)

type signing_row = {
  sg_scheme : string;
  sg_ops : int;
  sg_sign_wall_s : float;
  sg_verify_wall_s : float;
  sg_checksum_bytes : int;
  sg_non_repudiation : bool;
}

let ablation_signing cfg =
  let n = max 100 (scale_point cfg 1000) in
  let env, p = env_with_participant cfg "signer" in
  let payloads =
    List.init n (fun i ->
        Checksum.payload ~kind:Record.Update ~seq_id:i
          ~output_oid:(Oid.of_int 1)
          ~input_hashes:[ Printf.sprintf "in-%d" i ]
          ~output_hash:(Printf.sprintf "out-%d" i)
          ~prev_checksums:[ Printf.sprintf "prev-%d" i ])
  in
  (* RSA *)
  let sigs = ref [] in
  let _, rsa_sign_s =
    time (fun () -> sigs := List.map (Checksum.sign p) payloads)
  in
  let pk = Participant.public_key p in
  let _, rsa_verify_s =
    time (fun () ->
        List.iter2
          (fun payload checksum ->
            assert (Checksum.verify pk ~payload ~checksum))
          payloads !sigs)
  in
  let rsa_bytes = List.fold_left (fun a s -> a + String.length s) 0 !sigs in
  (* HMAC *)
  let key = Tep_crypto.Drbg.generate env.Scenario.drbg 32 in
  let algo = Tep_crypto.Digest_algo.SHA256 in
  let tags = ref [] in
  let _, mac_sign_s =
    time (fun () ->
        tags := List.map (fun m -> Tep_crypto.Hmac.mac ~algo ~key m) payloads)
  in
  let _, mac_verify_s =
    time (fun () ->
        List.iter2
          (fun msg tag -> assert (Tep_crypto.Hmac.verify ~algo ~key ~msg ~tag))
          payloads !tags)
  in
  let mac_bytes = List.fold_left (fun a s -> a + String.length s) 0 !tags in
  [
    {
      sg_scheme = Printf.sprintf "rsa-%d (paper)" cfg.rsa_bits;
      sg_ops = n;
      sg_sign_wall_s = rsa_sign_s;
      sg_verify_wall_s = rsa_verify_s;
      sg_checksum_bytes = rsa_bytes;
      sg_non_repudiation = true;
    };
    {
      sg_scheme = "hmac-sha256";
      sg_ops = n;
      sg_sign_wall_s = mac_sign_s;
      sg_verify_wall_s = mac_verify_s;
      sg_checksum_bytes = mac_bytes;
      sg_non_repudiation = false;
    };
  ]

(* ---------- Extension: full vs incremental audit ---------- *)

type audit_row = {
  au_round : int;
  au_total_records : int;
  au_full_s : float;
  au_full_records : int;
  au_incr_s : float;
  au_incr_records : int;
}

let ablation_audit cfg =
  let rounds = 5 in
  let ops_per_round = max 5 (scale_point cfg 50) in
  let env, p = env_with_participant cfg "worker" in
  let db =
    Synth.build_database ~seed:(cfg.seed ^ "-audit")
      [ { Synth.name = "t1"; attrs = 8; rows = max 50 (scale_point cfg 500) } ]
  in
  let eng = Engine.create ~directory:env.Scenario.directory db in
  let dir = env.Scenario.directory in
  let cp = ref Audit.empty in
  List.init rounds (fun round ->
      for i = 0 to ops_per_round - 1 do
        ignore
          (Engine.update_cell eng p ~table:"t1"
             ~row:(i mod 50) ~col:(i mod 8)
             (Value.Int ((round * 1000) + i)))
      done;
      let store = Engine.provstore eng in
      let (full_report, _), au_full_s =
        time (fun () -> Audit.full_audit ~directory:dir store)
      in
      let (incr_report, cp', incr_records), au_incr_s =
        time (fun () -> Audit.incremental_audit ~directory:dir !cp store)
      in
      assert (Verifier.ok full_report && Verifier.ok incr_report);
      cp := cp';
      {
        au_round = round + 1;
        au_total_records = Provstore.record_count store;
        au_full_s;
        au_full_records = full_report.Verifier.records_checked;
        au_incr_s;
        au_incr_records = incr_records;
      })
