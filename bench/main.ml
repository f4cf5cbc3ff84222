(* Benchmark harness.

   Two layers:
   1. Bechamel micro-benchmarks — one [Test.make] per primitive cost
      centre (hashing, signing, verification, end-to-end checksummed
      cell update).
   2. The figure/table harness — regenerates every table and figure of
      the paper's Section 5 as CSV series (see DESIGN.md's
      per-experiment index).
   3. Two gated experiments, [prov] (annotated-query overhead) and
      [proof] (membership proofs vs a full remote verify), which exit 1
      when a bound fails.  The serving path itself is benchmarked on
      the real daemon by provbench (bench/e2e).

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

(* BENCH_<experiment>.json trajectory files are written next to the
   invocation cwd so successive runs can be diffed / committed.
   Disabled with TEP_BENCH_JSON=0 (the dune smoke aliases do this: rule
   actions run inside _build, where stray outputs are unwelcome). *)
let json_enabled () =
  match Sys.getenv_opt "TEP_BENCH_JSON" with Some "0" -> false | _ -> true

type json = Int of int | Float of float | Str of string

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_members kvs =
  String.concat ", "
    (List.map
       (fun (k, v) ->
         Printf.sprintf "\"%s\": %s" k
           (match v with
           | Int i -> string_of_int i
           | Float f -> Printf.sprintf "%.3f" f
           | Str s -> "\"" ^ json_escape s ^ "\""))
       kvs)

(* The checkout's short revision ("-dirty" when the working tree has
   uncommitted changes), or "unknown" outside a git checkout. *)
let git_rev =
  lazy
    (match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
        let rev = try String.trim (input_line ic) with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when rev <> "" -> rev
        | _ -> "unknown"))

(* Writes BENCH_<experiment>.json: the run's provenance (scale, key
   size, host cores, timed repetitions behind each point, source
   revision), then the experiment's own summary [fields], then one
   object per point. *)
let emit ~experiment ~(cfg : Experiments.config) ~runs_per_point
    ?(fields = []) ~points () =
  if json_enabled () then begin
    let path = Printf.sprintf "BENCH_%s.json" experiment in
    let head =
      [
        ("experiment", Str experiment);
        ("scale", Float cfg.Experiments.scale);
        ("rsa_bits", Int cfg.Experiments.rsa_bits);
        ("host_cores", Int (Domain.recommended_domain_count ()));
        ("runs_per_point", Int runs_per_point);
        ("git_rev", Str (Lazy.force git_rev));
      ]
      @ fields
    in
    let oc = open_out path in
    output_string oc "{\n";
    List.iter (fun kv -> Printf.fprintf oc "  %s,\n" (json_members [ kv ])) head;
    Printf.fprintf oc "  \"points\": [\n%s\n  ]\n}\n"
      (String.concat ",\n"
         (List.map (fun p -> "    { " ^ json_members p ^ " }") points));
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

(* RSA sign and verify at [bits]: a signer and a verifier key, each
   from its own seeded environment.  Named "rsa-sign"/"rsa-verify" at
   the config's size and suffixed with the size otherwise. *)
let rsa_micro_tests bits ~suffix =
  let open Bechamel in
  let payload = String.make 256 'x' in
  let participant seed name =
    let env = Scenario.make_env ~seed () in
    Participant.create ~bits ~ca:env.Scenario.ca ~name env.Scenario.drbg
  in
  let signer = participant ("bench-micro-sign" ^ suffix) "bench-sign" in
  let verifier_pk, verifier_sig =
    let p = participant ("bench-micro-verify" ^ suffix) "bench-verify" in
    (Participant.public_key p, Participant.sign p payload)
  in
  [
    Test.make ~name:("rsa-sign" ^ suffix)
      (Staged.stage (fun () -> ignore (Participant.sign signer payload)));
    Test.make ~name:("rsa-verify" ^ suffix)
      (Staged.stage (fun () ->
           ignore
             (Tep_crypto.Rsa.verify ~algo:Tep_crypto.Digest_algo.SHA256
                verifier_pk ~msg:payload ~signature:verifier_sig)));
  ]

(* The portable SHA-256 compression, declared here so that it can be
   timed beside the kernel Block_hash selected. *)
external sha256_compress_portable : Bytes.t -> Bytes.t -> int -> unit
  = "tep_sha256_compress"
[@@noalloc]

let crypto_micro_tests cfg =
  let open Bechamel in
  let payload = String.make 256 'x' in
  let payload_4k = String.make 4096 'x' in
  let drbg = Tep_crypto.Drbg.create ~seed:"bench-drbg" in
  [
    Test.make ~name:"sha1-256B"
      (Staged.stage (fun () ->
           ignore (Tep_crypto.Digest_algo.(digest SHA1) payload)));
    (* 64 compression rounds per digest — isolates the block-loop cost
       from the init/final overhead the 256B point is dominated by *)
    Test.make ~name:"sha1-4KiB"
      (Staged.stage (fun () ->
           ignore (Tep_crypto.Digest_algo.(digest SHA1) payload_4k)));
    Test.make ~name:"sha256-256B"
      (Staged.stage (fun () -> ignore (Tep_crypto.Sha256.digest payload)));
    Test.make ~name:"sha256-4KiB"
      (Staged.stage (fun () -> ignore (Tep_crypto.Sha256.digest payload_4k)));
    (* one 64-byte compression, on the selected kernel (the SHA
       extensions when the CPU has them) and on the portable one *)
    (let state = Bytes.make 32 '\001' and block = Bytes.make 64 'x' in
     let selected = Tep_crypto.Block_hash.(compress sha256) in
     Test.make ~name:"sha256-block"
       (Staged.stage (fun () -> selected state block 0)));
    (let state = Bytes.make 32 '\001' and block = Bytes.make 64 'x' in
     Test.make ~name:"sha256-block-portable"
       (Staged.stage (fun () -> sha256_compress_portable state block 0)));
    Test.make ~name:"md5-256B"
      (Staged.stage (fun () ->
           ignore (Tep_crypto.Digest_algo.(digest MD5) payload)));
    Test.make ~name:"hmac-sha256"
      (Staged.stage (fun () ->
           ignore
             (Tep_crypto.Hmac.mac ~algo:Tep_crypto.Digest_algo.SHA256
                ~key:"key" payload)));
    Test.make ~name:"drbg-32B"
      (Staged.stage (fun () -> ignore (Tep_crypto.Drbg.generate drbg 32)));
    (* one coin flip of a sampled audit sweep, drawn per live object *)
    (let coins = Tep_crypto.Drbg.create ~seed:"bench-coins" in
     Test.make ~name:"drbg-uniform-int"
       (Staged.stage (fun () ->
            ignore (Tep_crypto.Drbg.uniform_int coins 1_000_000))));
  ]
  @ rsa_micro_tests cfg.Experiments.rsa_bits ~suffix:""
  (* the key size provdbd and the end-to-end benchmark sign with *)
  @ rsa_micro_tests Tep_crypto.Rsa.default_bits
      ~suffix:(Printf.sprintf "-%d" Tep_crypto.Rsa.default_bits)

(* One provenance record's check as audits and verified reads run it:
   the directory lookup, the payload rebuilt from the record's fields
   and the RSA verify, at the key size provdbd signs with.  Each call
   checks the next of 24 records signed by three participants. *)
let checksum_micro_tests () =
  let open Bechamel in
  let env = Scenario.make_env ~seed:"bench-micro-checksum" () in
  let records =
    Array.concat
      (List.map
         (fun name ->
           let p =
             Participant.create ~bits:Tep_crypto.Rsa.default_bits
               ~ca:env.Scenario.ca ~name env.Scenario.drbg
           in
           Participant.Directory.register env.Scenario.directory p;
           Array.init 8 (fun i ->
               let output_oid = Tep_tree.Oid.of_int i in
               let output_hash =
                 Tep_crypto.Sha256.digest (name ^ string_of_int i)
               in
               let payload =
                 Checksum.payload ~kind:Record.Insert ~seq_id:0 ~output_oid
                   ~input_hashes:[] ~output_hash ~prev_checksums:[]
               in
               {
                 Record.seq_id = 0;
                 participant = name;
                 kind = Record.Insert;
                 inherited = false;
                 input_oids = [];
                 input_hashes = [];
                 output_oid;
                 output_hash;
                 output_value = None;
                 prev_checksums = [];
                 checksum = Checksum.sign p payload;
               }))
         [ "bench-a"; "bench-b"; "bench-c" ])
  in
  let next = ref 0 in
  [
    Test.make ~name:"checksum-verify-record"
      (Staged.stage (fun () ->
           next := (!next + 1) mod Array.length records;
           match
             Checksum.verify_record env.Scenario.directory records.(!next)
           with
           | Ok () -> ()
           | Error e -> failwith ("checksum bench: " ^ e)));
  ]

(* Full-width Montgomery exponentiations: the sliding-window ladder
   against the binary one at 2048 bits, and a 512-bit modulus and
   exponent, the CRT half of a 1024-bit signature. *)
let modpow_micro_tests () =
  let open Bechamel in
  let open Tep_bignum in
  let drbg = Tep_crypto.Drbg.create ~seed:"bench-modpow" in
  let rand_bits bits =
    let n = Nat.of_bytes_be (Tep_crypto.Drbg.generate drbg (bits / 8)) in
    Nat.rem n (Nat.shift_left Nat.one (bits - 1))
  in
  let operands bits =
    let m = Nat.add (Nat.shift_left Nat.one (bits - 1)) (rand_bits bits) in
    let m = if Nat.is_even m then Nat.add m Nat.one else m in
    let b = rand_bits bits in
    let e = Nat.add (Nat.shift_left Nat.one (bits - 1)) (rand_bits bits) in
    (Zmod.Montgomery.create m, b, e)
  in
  let ctx, b, e = operands 2048 in
  let ctx512, b512, e512 = operands 512 in
  [
    Test.make ~name:"modpow-2048-windowed"
      (Staged.stage (fun () -> ignore (Zmod.Montgomery.pow ctx b e)));
    Test.make ~name:"modpow-2048-binary"
      (Staged.stage (fun () -> ignore (Zmod.Montgomery.pow_binary ctx b e)));
    Test.make ~name:"modpow-512"
      (Staged.stage (fun () -> ignore (Zmod.Montgomery.pow ctx512 b512 e512)));
  ]

(* The Montgomery kernels of montmul.c, declared here so that the ones
   Zmod selects can be timed beside the portable ones. *)
external mont_mul_portable :
  Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> unit = "tep_mont_mul"
[@@noalloc]

external mont_mul_adx : Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  = "tep_mont_mul_adx"
[@@noalloc]

external mont_sqr_portable : Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  = "tep_mont_sqr"
[@@noalloc]

external mont_sqr_adx : Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  = "tep_mont_sqr_adx"
[@@noalloc]

external mont_adx_available : unit -> bool = "tep_mont_adx_available"
[@@noalloc]

let mont_adx = mont_adx_available ()

(* One Montgomery multiply and one squaring at 8 and 16 words, the CRT
   half and the modulus of a 1024-bit key, on the selected kernels and
   on the portable ones.  Buffers are laid out as Zmod lays them out: n
   native-endian words, the modulus followed by -m^{-1} mod 2^64, and
   2n words of scratch. *)
let montmul_micro_tests () =
  let open Bechamel in
  let open Tep_bignum in
  let drbg = Tep_crypto.Drbg.create ~seed:"bench-montmul" in
  let words n x =
    let s = Nat.to_bytes_be_padded (8 * n) x in
    let w = Bytes.create (8 * n) in
    for i = 0 to n - 1 do
      Bytes.set_int64_ne w (8 * i) (String.get_int64_be s (8 * (n - 1 - i)))
    done;
    w
  in
  let operands bits =
    let n = (bits + 63) / 64 in
    let rand () =
      let x = Nat.of_bytes_be (Tep_crypto.Drbg.generate drbg (bits / 8)) in
      Nat.rem x (Nat.shift_left Nat.one (bits - 1))
    in
    let m = Nat.add (Nat.shift_left Nat.one (bits - 1)) (rand ()) in
    let m = if Nat.is_even m then Nat.add m Nat.one else m in
    let r64 = Nat.shift_left Nat.one 64 in
    let m' = Nat.sub r64 (Option.get (Zmod.modinv m r64)) in
    let m_words = Bytes.cat (words n m) (words 1 m') in
    (n, m_words, words n (Nat.rem (rand ()) m), words n (Nat.rem (rand ()) m))
  in
  List.concat_map
    (fun bits ->
      let n, m_words, a, b = operands bits in
      let dst = Bytes.create (8 * n) and t = Bytes.create (16 * n) in
      let mul = Printf.sprintf "mont-mul-%dw" n in
      let sqr = Printf.sprintf "mont-sqr-%dw" n in
      [
        Test.make ~name:mul
          (if mont_adx then
             Staged.stage (fun () -> mont_mul_adx dst a b m_words t)
           else Staged.stage (fun () -> mont_mul_portable dst a b m_words t));
        Test.make ~name:(mul ^ "-portable")
          (Staged.stage (fun () -> mont_mul_portable dst a b m_words t));
        Test.make ~name:sqr
          (if mont_adx then Staged.stage (fun () -> mont_sqr_adx dst a m_words t)
           else Staged.stage (fun () -> mont_sqr_portable dst a m_words t));
        Test.make ~name:(sqr ^ "-portable")
          (Staged.stage (fun () -> mont_sqr_portable dst a m_words t));
      ])
    [ 512; 1024 ]

(* One engine over a 400-row, 8-column table and a participant to
   write as; [pooled] engines run on the daemon's pool ([Pool.default]:
   one domain per core unless TEP_DOMAINS says otherwise).  Allocated
   by Bechamel before the test's first sample, so key generation and
   the cold tree hash stay out of the timings. *)
let engine_state ~seed ~pooled () =
  let pool = if pooled then Some (Tep_parallel.Pool.default ()) else None in
  let env = Scenario.make_env ~seed () in
  let cfg = Experiments.config_of_env () in
  let p =
    Participant.create ~bits:cfg.Experiments.rsa_bits ~ca:env.Scenario.ca
      ~name:"bench-engine" env.Scenario.drbg
  in
  Participant.Directory.register env.Scenario.directory p;
  let db =
    Synth.build_database ~seed:(seed ^ "-db")
      [ { Synth.name = "t1"; attrs = 8; rows = 400 } ]
  in
  (Engine.create ?pool ~directory:env.Scenario.directory db, p, ref 0)

let engine_micro_tests () =
  let open Bechamel in
  let engine_test name ~pooled run =
    Test.make_with_resource ~name Test.uniq
      ~allocate:(engine_state ~seed:("bench-micro-" ^ name) ~pooled)
      ~free:ignore (Staged.stage run)
  in
  [
    engine_test "engine-update-cell" ~pooled:false (fun (eng, p, counter) ->
        incr counter;
        ignore
          (Engine.update_cell eng p ~table:"t1" ~row:(!counter mod 400)
             ~col:(!counter mod 8) (Value.Int !counter)));
    (* The pooled write path.  A singleton commit never fans out (one
       record signs on the caller), so each iteration is a complex op
       staging four updates. *)
    engine_test "engine-update-cell-pooled" ~pooled:true
      (fun (eng, p, counter) ->
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
        | Error e -> failwith ("pooled bench: " ^ e));
  ]

(* The decode layer, over one seeded engine: a 1000-row, 8-column
   table whose cells took 600 signed updates.  [decode-records] reads
   its provenance store (a few thousand records), [decode-forest] its
   forest, and [decode-proof-response] one verified read's answer: a
   cell's membership proof and provenance, as the wire carries them. *)
let decode_micro_tests () =
  let open Bechamel in
  let seed = "bench-micro-decode" in
  let env = Scenario.make_env ~seed () in
  let cfg = Experiments.config_of_env () in
  let p =
    Participant.create ~bits:cfg.Experiments.rsa_bits ~ca:env.Scenario.ca
      ~name:"bench-decode" env.Scenario.drbg
  in
  Participant.Directory.register env.Scenario.directory p;
  let db =
    Synth.build_database ~seed:(seed ^ "-db")
      [ { Synth.name = "t1"; attrs = 8; rows = 1000 } ]
  in
  let eng = Engine.create ~directory:env.Scenario.directory db in
  for i = 0 to 599 do
    match
      Engine.update_cell eng p ~table:"t1" ~row:(i * 7 mod 1000) ~col:(i mod 8)
        (Value.Int i)
    with
    | Ok () -> ()
    | Error e -> failwith ("decode bench: " ^ e)
  done;
  let store = Provstore.to_string (Engine.provstore eng) in
  let forest =
    let buf = Buffer.create 65536 in
    Tep_tree.Forest.encode buf (Engine.forest eng);
    Buffer.contents buf
  in
  let response =
    let oid =
      Option.get (Tep_tree.Tree_view.cell_oid (Engine.mapping eng) "t1" 7 1)
    in
    let proof =
      match Engine.prove eng oid with
      | Ok pr -> Tep_tree.Proof.to_string pr
      | Error e -> failwith ("decode bench: " ^ e)
    in
    Tep_wire.Message.response_to_string
      (Tep_wire.Message.Proof_resp
         {
           shard = 0;
           shard_roots = [ Engine.root_hash eng ];
           items =
             [
               ( proof,
                 Provstore.provenance_object (Engine.provstore eng) oid );
             ];
         })
  in
  [
    Test.make ~name:"decode-records"
      (Staged.stage (fun () -> ignore (Provstore.of_string store)));
    Test.make ~name:"decode-forest"
      (Staged.stage (fun () -> ignore (Tep_tree.Forest.decode forest 0)));
    Test.make ~name:"decode-proof-response"
      (Staged.stage (fun () ->
           ignore (Tep_wire.Message.decode_response response 0)));
  ]

(* Phase 1 of every sampled audit sweep: [Provstore.objects] over
   12,000 objects, the size of the end-to-end benchmark's B1 base,
   one record each, created out of oid order. *)
let provstore_micro_tests () =
  let open Bechamel in
  let store = Provstore.create () in
  for i = 0 to 11_999 do
    let oid = Tep_tree.Oid.of_int (i * 7_919 mod 12_000) in
    Provstore.append store
      {
        Record.seq_id = 0;
        participant = "bench";
        kind = Record.Insert;
        inherited = false;
        input_oids = [];
        input_hashes = [];
        output_oid = oid;
        output_hash = "";
        output_value = None;
        prev_checksums = [];
        checksum = Tep_tree.Oid.to_string oid;
      }
  done;
  [
    Test.make ~name:"provstore-objects"
      (Staged.stage (fun () -> ignore (Provstore.objects store)));
  ]

(* Every row keeps at least [min_samples] samples: one that fits fewer
   in the 0.3 s quota (Bechamel compacts the heap before each sample,
   so millisecond rows fit few) runs again with the quota scaled to fit
   about 2 * [min_samples]. *)
let min_samples = 10

let run_micro () =
  let open Bechamel in
  print_endline "## micro — Bechamel micro-benchmarks (ns per run)";
  let cfg = Experiments.config_of_env () in
  let instance = Toolkit.Instance.monotonic_clock in
  let suite =
    Test.make_grouped ~name:"tep"
      (crypto_micro_tests cfg @ checksum_micro_tests () @ modpow_micro_tests ()
     @ montmul_micro_tests () @ engine_micro_tests ()
     @ decode_micro_tests () @ provstore_micro_tests ())
  in
  let raw = Hashtbl.create 64 in
  List.iter
    (fun test ->
      let rec measure quota =
        let r =
          Benchmark.run
            (Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ())
            [ instance ] test
        in
        let n = r.Benchmark.stats.Benchmark.samples in
        if n >= min_samples then r
        else
          measure
            (quota *. float_of_int (2 * min_samples) /. float_of_int (max n 1))
      in
      Hashtbl.replace raw (Test.Elt.name test) (measure 0.3))
    (Test.elements suite);
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
            let samples =
              (Hashtbl.find raw name).Benchmark.stats.Benchmark.samples
            in
            Some
              ( samples,
                [
                  ("name", Str name);
                  ("ns_per_op", Float e);
                  ("samples", Int samples);
                ] )
        | _ ->
            Printf.printf "%-32s %16s\n" name "n/a";
            None)
      rows
  in
  print_newline ();
  emit ~experiment:"micro" ~cfg
    ~runs_per_point:(List.fold_left (fun m (n, _) -> min m n) max_int measured)
    ~fields:
      [
        ( "sha256_kernel",
          Str (if Tep_crypto.Block_hash.sha_ni then "sha-ni" else "portable") );
        ("montmul_kernel", Str (if mont_adx then "adx" else "portable"));
      ]
    ~points:(List.map snd measured) ()

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
   annotated path returns exactly the plain rows and that the median of
   paired annotated/plain latency ratios stays within the 2x overhead
   budget; also reports lineage why() latency and the pruning
   counter.                                                          *)
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
  let reps = 200 and pairs = 11 in
  let time_block f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  Printf.printf "rows_total=%d reps=%d pairs=%d\n" rows_total reps pairs;
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
        (* plain and annotated blocks run back to back in alternating
           order, so load that shifts during the run (a parallel build,
           a noisy neighbour) lands on both sides of a pair; the gate
           reads the median of the per-pair ratios *)
        let timed =
          List.init pairs (fun i ->
              let p () = time_block (fun () -> ignore (plain ())) in
              let a () = time_block (fun () -> ignore (annotated ())) in
              if i mod 2 = 0 then
                let ps = p () in
                (ps, a ())
              else
                let an = a () in
                (p (), an))
        in
        let plain_s = median (List.map fst timed) in
        let annot_s = median (List.map snd timed) in
        let overhead = median (List.map (fun (p, a) -> a /. p) timed) in
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
        let why_s =
          median
            (List.init pairs (fun _ ->
                 time_block (fun () -> ignore (Lineage.why idx agg))))
        in
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
  emit ~experiment:"prov" ~cfg ~runs_per_point:pairs
    ~fields:
      [
        ("rows_total", Int rows_total);
        ("reps", Int reps);
        ("overhead_bound", Float bound);
        ("max_overhead", Float !worst);
      ]
    ~points:
      (List.map
         (fun (nshards, plain_s, annot_s, overhead, matched, why_s, pruned) ->
           [
             ("shards", Int nshards);
             ("plain_us", Float (1e6 *. plain_s));
             ("annotated_us", Float (1e6 *. annot_s));
             ("overhead", Float overhead);
             ("rows_matched", Int matched);
             ("lineage_why_us", Float (1e6 *. why_s));
             ("pruned_scans", Int pruned);
           ])
         points)
    ();
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
        ?coord
        (List.map (fun e -> (e, None)) (Array.to_list engines))
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
  emit ~experiment:"proof" ~cfg ~runs_per_point:trials
    ~fields:
      [
        ("sample", Int sample);
        ("bytes_ratio_bound", Float bytes_bound);
        ("speedup_bound", Float speedup_bound);
        ("max_bytes_ratio", Float !max_ratio);
        (Printf.sprintf "min_speedup_at_%d" large, Float !min_speedup);
      ]
    ~points:
      (List.map
         (fun (nrecords, rows_per_table, nshards, bytes, prove_s, full_s, speedup) ->
           [
             ("records", Int nrecords);
             ("rows_per_table", Int rows_per_table);
             ("shards", Int nshards);
             ("proof_bytes", Int bytes);
             ("prove_verify_us", Float (1e6 *. prove_s));
             ("full_verify_us", Float (1e6 *. full_s));
             ("speedup", Float speedup);
           ])
         points)
    ();
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
