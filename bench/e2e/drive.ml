(* The untraced load: real clients over the daemon's Unix socket.  Each
   load thread owns one authenticated connection; the connections are
   opened (and authenticated) before the load starts, so handshakes are
   not part of any measured latency. *)

module Client = Tep_client.Client
module Message = Tep_wire.Message
module Verifier = Tep_core.Verifier

let now = Unix.gettimeofday

type tally = {
  mutable lat : float list; (* seconds, one per completed op *)
  mutable done_at : float list; (* when each completed op completed *)
  mutable completed : int;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list; (* the first few, for the log *)
  mutable rereads : int; (* mixed reader: root moved between root_hash and prove *)
  mutable stale : int; (* mixed reader: root still moving after 3 re-reads *)
  mutable raced : int; (* mixed reader: re-reads after a chain failure against a root that then moved *)
  mutable rates : float list; (* audit: records per second, one per sweep *)
  mutable cpu_per_record : float list; (* audit: daemon CPU seconds per record, one per sweep *)
  mutable sampled : (string * int) list; (* audit: (seed, objects sampled), one per sweep *)
}

let tally () =
  {
    lat = [];
    done_at = [];
    completed = 0;
    attempted = 0;
    failed = 0;
    errors = [];
    rereads = 0;
    stale = 0;
    raced = 0;
    rates = [];
    cpu_per_record = [];
    sampled = [];
  }

let merge ts =
  let m = tally () in
  List.iter
    (fun t ->
      m.lat <- t.lat @ m.lat;
      m.done_at <- t.done_at @ m.done_at;
      m.completed <- m.completed + t.completed;
      m.attempted <- m.attempted + t.attempted;
      m.failed <- m.failed + t.failed;
      m.errors <- m.errors @ t.errors;
      m.rereads <- m.rereads + t.rereads;
      m.stale <- m.stale + t.stale;
      m.raced <- m.raced + t.raced;
      m.rates <- t.rates @ m.rates;
      m.cpu_per_record <- t.cpu_per_record @ m.cpu_per_record;
      m.sampled <- t.sampled @ m.sampled)
    ts;
  m

let fail t e =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then t.errors <- t.errors @ [ e ]

let ok t t0 =
  let t1 = now () in
  t.completed <- t.completed + 1;
  t.lat <- (t1 -. t0) :: t.lat;
  t.done_at <- t1 :: t.done_at

(* Connect without retrying (the caller polls) and authenticate.  The
   DRBG is seeded per connection: request ids must differ between the
   connections of one run, or the daemon's dedup table would answer
   one connection's write with another's result. *)
let connect ~sock ~participant ~drbg_seed =
  let drbg = Tep_crypto.Drbg.create ~seed:drbg_seed in
  match Client.connect_unix ~drbg ~retries:0 sock with
  | Error e -> Error e
  | Ok c -> (
      match Client.authenticate c participant with
      | Ok () -> Ok c
      | Error e ->
          Client.close c;
          Error e)

(* Closed loop with up to [window] pipelined submits in flight; each
   op's latency runs from its send to the return of its collect. *)
let write_loop c ops ~window =
  let t = tally () in
  let q = Queue.create () in
  let next = ref 0 in
  let issuing () = !next < Array.length ops in
  while issuing () || not (Queue.is_empty q) do
    while issuing () && Queue.length q < window do
      let op = ops.(!next) in
      incr next;
      t.attempted <- t.attempted + 1;
      let t0 = now () in
      match Client.submit_async c op with
      | Ok cid -> Queue.push (cid, t0) q
      | Error e -> fail t e
    done;
    match Queue.take_opt q with
    | None -> ()
    | Some (cid, t0) -> (
        match Client.collect_submitted c cid with
        | Ok _ -> ok t t0
        | Error e -> fail t e)
  done;
  t

let check_report t (r : Verifier.report) =
  if r.Verifier.violations = [] then true
  else begin
    fail t
      (Printf.sprintf "check_proofs: %d violation(s)" (List.length r.Verifier.violations));
    false
  end

(* verify_read: one read outstanding per connection.  A proof is only
   a completed read once [Client.check_proofs] accepts it against the
   root pinned before the load started. *)
let read_loop c reads ~algo ~directory ~trusted ~row_oid =
  let t = tally () in
  Array.iter
    (fun r ->
      t.attempted <- t.attempted + 1;
      let t0 = now () in
      match r with
      | Gen.Prove { table; row; col } -> (
          match Client.prove c ~table ~row ~col () with
          | Error e -> fail t e
          | Ok p -> (
              match Client.check_proofs ~algo ~directory ~trusted_root:trusted p with
              | Error e -> fail t e
              | Ok rep -> if check_report t rep then ok t t0))
      | Gen.Lineage row -> (
          match Client.lineage c ~kind:Message.L_why ~oid:(row_oid row) with
          | Error e -> fail t e
          | Ok l -> if l.Client.l_oids = [] then fail t "lineage: empty why-set" else ok t t0))
    reads;
  t

(* The mixed workload's reader: root_hash, prove, check_proofs on hot
   cells, one at a time, until [stop].  A proof whose shard roots no
   longer recombine into the root just fetched means a commit landed in
   between: that is a re-read (up to 3), never an error.  Only a proof
   that fails against a stable root is an error: when the chain fails,
   the root is fetched again 0.1 s later, and if it has moved the
   failure is a re-read too.  A cross-shard commit marks the shards'
   cached roots stale only after it releases their write locks
   (lib/server/server.ml), so a proof built in that gap is served with
   the root from before the commit; the thread that is to mark the root
   can be descheduled for tens of milliseconds in between. *)
let hot_read_loop c hot ~pick ~stop ~algo ~directory =
  let t = tally () in
  while not (Atomic.get stop) do
    let table, row, col = hot.(pick ()) in
    t.attempted <- t.attempted + 1;
    let t0 = now () in
    let rec attempt tries =
      match Client.root_hash c with
      | Error e -> fail t e
      | Ok root -> (
          match Client.prove c ~table ~row ~col () with
          | Error e -> fail t e
          | Ok p ->
              let published =
                match p.Client.pf_shard_roots with
                | [ r ] -> r
                | rs -> Tep_tree.Merkle.root_of_roots algo rs
              in
              if published <> root then
                if tries < 3 then begin
                  t.rereads <- t.rereads + 1;
                  attempt (tries + 1)
                end
                else t.stale <- t.stale + 1
              else (
                match Client.check_proofs ~algo ~directory ~trusted_root:root p with
                | Error e -> (
                    Unix.sleepf 0.1;
                    match Client.root_hash c with
                    | Ok moved when moved <> root && tries < 3 ->
                        t.rereads <- t.rereads + 1;
                        t.raced <- t.raced + 1;
                        attempt (tries + 1)
                    | _ -> fail t e)
                | Ok rep -> if check_report t rep then ok t t0))
    in
    attempt 0
  done;
  t

(* Sampled audit sweeps on one connection.  [expected.(i)], when
   given, is the sample size sweep [i] must report: the DRBG draw is a
   function of the seed and the live objects alone, so any other count
   means the sweep did not examine what it claims.  [cpu ()] reads the
   daemon's CPU seconds; sweeps run one at a time, so its change over a
   sweep is that sweep's cost. *)
let audit_loop c seeds ~alpha_ppm ~expected ~cpu =
  let t = tally () in
  Array.iteri
    (fun i seed ->
      t.attempted <- t.attempted + 1;
      let cpu0 = cpu () in
      let t0 = now () in
      match Client.audit_sample c ~seed ~alpha_ppm with
      | Error e -> fail t e
      | Ok (report, sampled, _population) ->
          if not (Message.report_ok report) then
            fail t
              (Printf.sprintf "audit %s: %d violation(s)" seed
                 (List.length report.Message.rp_violations))
          else if Option.fold ~none:false ~some:(( <> ) sampled) expected.(i) then
            fail t
              (Printf.sprintf "audit %s: sampled %d, expected %d" seed sampled
                 (Option.get expected.(i)))
          else begin
            ok t t0;
            let records = float_of_int report.Message.rp_records in
            t.rates <- (records /. List.hd t.lat) :: t.rates;
            t.cpu_per_record <- ((cpu () -. cpu0) /. records) :: t.cpu_per_record;
            t.sampled <- (seed, sampled) :: t.sampled
          end)
    seeds;
  t
