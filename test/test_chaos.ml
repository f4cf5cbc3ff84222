(* Network chaos soak gate.

   A real client talks to a real daemon over Unix-domain sockets
   through the {!Tep_fault.Chaos} proxy, which injects chunk splits,
   delays, single-bit corruption, and whole-connection drops — all
   drawn from DRBGs seeded by TEP_CHAOS_SEED (default "tep-chaos-0"),
   so a failing run replays from its seed.

   Every write travels idempotently (a fixed per-op request id) and is
   retried until it succeeds, through however many transparent
   reconnect-and-replay rounds and app-level re-issues the chaos
   forces.  The gate then asserts the exactly-once contract end to
   end:

   - the backend holds exactly one row per logical operation — no
     duplicate from any replay, no loss from any drop;
   - a full verify over a clean connection reports no tampering;
   - the WAL + checkpoint directory recovers into an engine whose
     root hash matches the live server's.

   Iterations are bounded (a soak, not a fuzzer): ~250 logical ops,
   with a floor on actually-injected faults so a too-quiet proxy fails
   the gate instead of vacuously passing it. *)
open Tep_store
open Tep_core
module Message = Tep_wire.Message
module Server = Tep_server.Server
module Client = Tep_client.Client
module Chaos = Tep_fault.Chaos

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let chaos_seed () =
  match Sys.getenv_opt "TEP_CHAOS_SEED" with
  | Some s when s <> "" -> s
  | _ -> "tep-chaos-0"

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_workdir f =
  let dir = Filename.temp_file "tep_chaos" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () -> f dir)

let n_min = 250 (* logical ops at minimum *)
let n_cap = 600 (* hard bound: a soak, not a fuzzer *)
let fault_floor = 200 (* injected faults required before stopping *)

(* Split-heavy profile: splits and short delays are cheap to inject
   and recover from, so the floor is reached without stretching the
   wall clock; corruption and drops stay rare enough that each op
   converges in a few retries. *)
let profile =
  {
    Chaos.p_split = 320;
    p_delay = 60;
    p_corrupt = 25;
    p_drop = 25;
    max_delay_s = 0.004;
  }

let test_chaos_soak () =
  let seed = chaos_seed () in
  with_workdir (fun dir ->
      let drbg = Tep_crypto.Drbg.create ~seed:("env-" ^ seed) in
      let ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"CA" drbg in
      let directory =
        Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
      in
      let alice = Participant.create ~bits:512 ~ca ~name:"alice" drbg in
      Participant.Directory.register directory alice;
      let db = Database.create ~name:"chaosdb" in
      ignore
        (Database.create_table db ~name:"stock"
           (Schema.all_int [ "sku"; "qty" ]));
      let wal = Wal.open_file (Filename.concat dir "wal.log") in
      let engine = Engine.create ~wal ~directory db in
      let server =
        Server.create
          ~drbg:(Tep_crypto.Drbg.create ~seed:"chaos-server")
          ~participants:[ ("alice", alice) ]
          [ (engine, Some (dir, wal)) ]
      in
      let spath = Filename.concat dir "server.sock" in
      let ppath = Filename.concat dir "proxy.sock" in
      let stop = Stdlib.Atomic.make false in
      let th =
        Thread.create (fun () -> Server.serve_unix server ~path:spath ~stop) ()
      in
      Fun.protect
        ~finally:(fun () ->
          Stdlib.Atomic.set stop true;
          Server.wake server;
          Thread.join th)
        (fun () ->
          Thread.delay 0.05 (* let the accept loop bind *);
          let proxy =
            Chaos.start ~profile ~seed ~listen:ppath ~upstream:spath ()
          in
          (* Connect and authenticate through the chaos: the handshake
             itself can be corrupted or dropped, so the first session
             may take several fresh clients. *)
          let rec fresh_client k =
            if k > 25 then Alcotest.fail "no session survived the chaos"
            else
              match
                Client.connect_unix
                  ~drbg:
                    (Tep_crypto.Drbg.create
                       ~seed:(Printf.sprintf "chaos-client-%d" k))
                  ~retries:8 ~backoff:0.01 ppath
              with
              | Error _ ->
                  Thread.delay 0.02;
                  fresh_client (k + 1)
              | Ok c -> (
                  match Client.authenticate c alice with
                  | Ok () -> c
                  | Error _ ->
                      Client.close c;
                      Thread.delay 0.02;
                      fresh_client (k + 1))
          in
          let c = fresh_client 0 in
          (* One logical op = one fixed rid, re-issued until the
             client sees success.  Exactly-once therefore rests
             entirely on the server's dedup table. *)
          let submit_once i =
            let rid = Printf.sprintf "soak-%d" i in
            let op =
              Message.Op_insert
                {
                  table = "stock";
                  cells = [| Value.Int i; Value.Int (i * 7) |];
                }
            in
            let rec go k =
              if k > 60 then Alcotest.failf "op %d never succeeded" i
              else
                match Client.submit_idem c ~rid op with
                | Ok _ -> ()
                | Error _ ->
                    Thread.delay 0.002;
                    go (k + 1)
            in
            go 0
          in
          let n = ref 0 in
          while
            !n < n_min || (Chaos.faults proxy < fault_floor && !n < n_cap)
          do
            submit_once !n;
            incr n
          done;
          let n_ops = !n in
          Alcotest.(check bool)
            (Printf.sprintf "fault floor: %d injected (>= %d wanted)"
               (Chaos.faults proxy) fault_floor)
            true
            (Chaos.faults proxy >= fault_floor);
          Chaos.stop proxy;
          (* Exactly-once: one backend row per logical op. *)
          Alcotest.(check int) "no duplicate, no loss" n_ops
            (Table.row_count (Database.get_table_exn db "stock"));
          (* Clean connection for the final checks. *)
          let dc =
            ok
              (Client.connect_unix
                 ~drbg:(Tep_crypto.Drbg.create ~seed:"chaos-direct")
                 spath)
          in
          ok (Client.authenticate dc alice);
          let report, store_audit = ok (Client.verify dc ()) in
          Alcotest.(check bool) "verify clean after the soak" true
            (Message.report_ok report);
          (match store_audit with
          | Some a ->
              Alcotest.(check bool) "store audit clean" true
                (Message.report_ok a)
          | None -> Alcotest.fail "whole-db verify must audit the store");
          (* A blind retry of an op the server already executed: the
             dedup table must answer it without re-executing, and the
             hit must be visible in the health counters. *)
          ignore
            (ok
               (Client.submit_idem dc ~rid:"soak-0"
                  (Message.Op_insert
                     {
                       table = "stock";
                       cells = [| Value.Int 0; Value.Int 0 |];
                     })));
          Alcotest.(check int) "retried op did not re-execute" n_ops
            (Table.row_count (Database.get_table_exn db "stock"));
          let h = ok (Client.ping dc) in
          Alcotest.(check bool)
            (Printf.sprintf "dedup hit visible in Ping (%d)"
               h.Client.dedup_hits)
            true
            (h.Client.dedup_hits >= 1);
          Alcotest.(check int) "server executed each op exactly once" n_ops
            h.Client.h_ops;
          (* Durability: checkpoint, then rebuild from disk and compare
             root hashes. *)
          ignore (ok (Client.checkpoint dc));
          Client.close dc;
          match Recovery.recover ~final_checkpoint:false ~dir ~directory () with
          | Error e -> Alcotest.fail ("recovery failed: " ^ e)
          | Ok (recovered, rwal, rep) ->
              Wal.close rwal;
              Alcotest.(check bool) "recovered hash verified" true
                rep.Recovery.hash_verified;
              Alcotest.(check string) "recovered root matches live root"
                (Engine.root_hash engine)
                (Engine.root_hash recovered)))

let () =
  Alcotest.run "chaos"
    [ ("soak", [ Alcotest.test_case "network chaos soak" `Slow test_chaos_soak ]) ]
