(* HMAC-DRBG behaviour: determinism, seed separation, uniformity. *)
open Tep_crypto

let test_determinism () =
  let a = Drbg.create ~seed:"seed" and b = Drbg.create ~seed:"seed" in
  Alcotest.(check string) "same stream" (Drbg.generate a 256) (Drbg.generate b 256);
  Alcotest.(check string) "continues equal" (Drbg.generate a 64) (Drbg.generate b 64)

let test_seed_separation () =
  let a = Drbg.create ~seed:"seed-1" and b = Drbg.create ~seed:"seed-2" in
  Alcotest.(check bool)
    "different" false
    (String.equal (Drbg.generate a 64) (Drbg.generate b 64))

let test_reseed_diverges () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  Drbg.reseed a "extra entropy";
  Alcotest.(check bool)
    "diverged" false
    (String.equal (Drbg.generate a 32) (Drbg.generate b 32))

let test_lengths () =
  let d = Drbg.create ~seed:"len" in
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (String.length (Drbg.generate d n)))
    [ 0; 1; 31; 32; 33; 100; 1000 ];
  Alcotest.check_raises "negative" (Invalid_argument "Drbg.generate: negative length")
    (fun () -> ignore (Drbg.generate d (-1)))

let test_uniform_int_range () =
  let d = Drbg.create ~seed:"uniform" in
  for _ = 1 to 2000 do
    let x = Drbg.uniform_int d 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  Alcotest.(check int) "bound 1" 0 (Drbg.uniform_int d 1);
  Alcotest.check_raises "bound 0" (Invalid_argument "Drbg.uniform_int: bound <= 0")
    (fun () -> ignore (Drbg.uniform_int d 0))

let test_uniform_int_coverage () =
  (* Every residue of a small bound should appear in a long run. *)
  let d = Drbg.create ~seed:"coverage" in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Drbg.uniform_int d 10) <- true
  done;
  Alcotest.(check bool) "all residues seen" true (Array.for_all Fun.id seen)

let test_byte_distribution () =
  (* Chi-squared-ish sanity: no byte value wildly over-represented. *)
  let d = Drbg.create ~seed:"dist" in
  let counts = Array.make 256 0 in
  let n = 65536 in
  String.iter (fun c -> counts.(Char.code c) <- counts.(Char.code c) + 1)
    (Drbg.generate d n);
  let expected = n / 256 in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "byte %d balanced" i)
        true
        (c > expected / 3 && c < expected * 3))
    counts

let test_system_seeding () =
  let a = Drbg.create_system () and b = Drbg.create_system () in
  Alcotest.(check bool)
    "system streams differ" false
    (String.equal (Drbg.generate a 32) (Drbg.generate b 32))

(* Known answers from an independent implementation of the same
   simplified SP 800-90A HMAC-DRBG (no personalisation string, no
   reseed counter), written against Python's hmac and hashlib:

     import hmac, hashlib
     def H(k, m): return hmac.new(k, m, hashlib.sha256).digest()
     class Drbg:
         def __init__(s, seed):
             s.k, s.v = b"\0" * 32, b"\1" * 32
             s.update(seed)
         def update(s, p):
             s.k = H(s.k, s.v + b"\0" + p); s.v = H(s.k, s.v)
             if p:
                 s.k = H(s.k, s.v + b"\1" + p); s.v = H(s.k, s.v)
         def generate(s, n):
             out = b""
             while len(out) < n:
                 s.v = H(s.k, s.v); out += s.v
             s.update(b"")
             return out[:n]
         def uniform_int(s, bound):
             m = 2**62 - 1
             limit = m - m % bound
             while True:
                 x = int.from_bytes(s.generate(8), "big") & m
                 if x < limit: return x % bound
     for seed in [b"", b"kat"]:
         d = Drbg(seed)
         for n in [0, 1, 8, 32, 33, 100]: print(d.generate(n).hex())
     d = Drbg(b"kat"); d.generate(32); d.update(b"extra entropy")
     print(d.generate(32).hex())
     d = Drbg(b"sweep")
     print(hashlib.sha256("".join("%d\n" % d.uniform_int(1000000)
                                  for _ in range(2000)).encode()).hexdigest())

   The sampled audit sweep replays this stream from a seed, so any
   change to it changes which objects an auditor expects sampled. *)
let test_known_answers () =
  let stream seed expected =
    let d = Drbg.create ~seed in
    List.iter
      (fun (n, hex) ->
        Alcotest.(check string)
          (Printf.sprintf "seed %S, %d bytes" seed n)
          hex
          (Digest_algo.to_hex (Drbg.generate d n)))
      expected
  in
  stream ""
    [
      (0, "");
      (1, "bc");
      (8, "eeb9007814c47e9e");
      (32, "a64eec25a04eadce6d3ade975750f5b0e32f04179a8a7662d5afd92e91892ccc");
      (33, "25f2c4b1aca42d81e46d46ac1eb13403298f8401a0637da9e07a2ba33d98182e8f");
      ( 100,
        "e5a1af96b3d93efd6f80fdd1a889116ff8ef0c7769db2af11fc27f6868c574a2"
        ^ "d7f1a045a08d0ad1a9d5d708632cad336cbd995d3777cb6ea598b474bb08b894"
        ^ "c6a3b157d9f3462c487649d3f079b5d9950e425085e08bfc8d99fabd89bc0d8f"
        ^ "79b51583" );
    ];
  stream "kat"
    [
      (0, "");
      (1, "4c");
      (8, "fb0833581851fecb");
      (32, "7dac6029d40fa025e449b8dd07aee779a03b7ad9715a89357bcbf71f4be21f61");
      (33, "1a1982994694fb6a96eec2ef32e5c3471c9101b5e965e51241441c50d9490826b6");
      ( 100,
        "9a5430580ccfacf325f43f122f750ea78e01446a8dc365bb3a62b4dce4c4edb4"
        ^ "311d748af39647f066031d9ac38d29c3d3adb21ee1354cb3c4d6340746e7f01b"
        ^ "d8107f0691d7ea6b7cd7c3d4db9ed1a08bb5568300a40570cce7f68b2b8e8d94"
        ^ "dbbe189b" );
    ];
  let d = Drbg.create ~seed:"kat" in
  ignore (Drbg.generate d 32);
  Drbg.reseed d "extra entropy";
  Alcotest.(check string) "after reseed"
    "ead25a3ee8eb34b209d0b1846232973d8c25991781fcf8447fca350089cee608"
    (Digest_algo.to_hex (Drbg.generate d 32));
  let d = Drbg.create ~seed:"sweep" in
  let buf = Buffer.create 16_000 in
  for _ = 1 to 2000 do
    Buffer.add_string buf (string_of_int (Drbg.uniform_int d 1_000_000));
    Buffer.add_char buf '\n'
  done;
  Alcotest.(check string) "2000 uniform_int draws"
    "7e6b83126f2f78eb8c4c37d64a697797fba25cca49fe7c4bc3572864bf020c3c"
    (Sha256.hex (Buffer.contents buf))

(* A draw allocates nothing: V, the key's midstates and the scratch
   are the DRBG's own buffers.  The bound leaves room for the
   measurement itself, not for a word per draw. *)
let test_uniform_int_no_alloc () =
  let d = Drbg.create ~seed:"alloc" in
  ignore (Drbg.uniform_int d 1_000_000);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Drbg.uniform_int d 1_000_000)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10000 draws allocated %.0f minor words (at most 64)" words)
    true (words <= 64.)

(* HMAC-SHA256 composed from Block_hash: the key block (the key, then
   zeros) xor ipad and the message on one context, the key block xor
   opad and the inner digest on another. *)
let hmac key msg =
  let hash pad rest =
    let h = Block_hash.init Block_hash.sha256 in
    Block_hash.update h
      (String.init 64 (fun i ->
           Char.chr
             ((if i < String.length key then Char.code key.[i] else 0)
             lxor pad)));
    Block_hash.update h rest;
    Block_hash.final h
  in
  hash 0x5c (hash 0x36 msg)

(* The draw step on one kernel against [hmac], from a state of random
   midstates, K and V: the key schedule must replace whatever
   midstates the state held, a V step must read the key from the
   midstates alone (K is scribbled over first) and leave them and K as
   they were, and a rekey must leave V as it was and key the next V
   step with the new K. *)
let prop_step ~sha_ni =
  QCheck2.Test.make ~count:300
    ~name:
      (Printf.sprintf "draw step = Block_hash HMAC (%s kernel)"
         (if sha_ni then "sha-ni" else "portable"))
    QCheck2.Gen.(
      quad
        (string_size ~gen:char (return 64))
        (string_size ~gen:char (return 32))
        (string_size ~gen:char (return 32))
        (int_range (-1) 255))
    (fun (mids, key, v, op) ->
      let st = Bytes.of_string (mids ^ key ^ v) in
      let part off = Bytes.sub_string st off 32 in
      Drbg.step st (-2) ~sha_ni;
      let inner = part 0 and outer = part 32 in
      if op = -1 then begin
        Bytes.blit_string mids 0 st 64 32;
        Drbg.step st op ~sha_ni;
        part 96 = hmac key v
        && part 0 = inner && part 32 = outer
        && part 64 = String.sub mids 0 32
      end
      else begin
        Drbg.step st op ~sha_ni;
        let key' = hmac key (v ^ String.make 1 (Char.chr op)) in
        let keyed = part 64 = key' && part 96 = v in
        Drbg.step st (-1) ~sha_ni;
        keyed && part 96 = hmac key' v
      end)

(* Both kernels lay out the same blocks, so they leave the same bytes,
   midstates included. *)
let prop_kernels_agree =
  QCheck2.Test.make ~count:300 ~name:"draw step: sha-ni = portable"
    QCheck2.Gen.(
      pair (string_size ~gen:char (return Drbg.state_bytes)) (int_range (-2) 255))
    (fun (state, op) ->
      let a = Bytes.of_string state and b = Bytes.of_string state in
      Drbg.step a op ~sha_ni:false;
      Drbg.step b op ~sha_ni:true;
      Bytes.equal a b)

(* Without the SHA extensions that kernel cannot run: its checks are
   listed as skipped, not dropped. *)
let step_tests =
  QCheck_alcotest.to_alcotest (prop_step ~sha_ni:false)
  ::
  (if Block_hash.sha_ni then
     List.map QCheck_alcotest.to_alcotest
       [ prop_step ~sha_ni:true; prop_kernels_agree ]
   else
     [
       Alcotest.test_case "sha-ni kernel (no SHA extensions on this CPU)"
         `Quick (fun () -> Alcotest.skip ());
     ])

let () =
  Alcotest.run "drbg"
    [
      ( "unit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed separation" `Quick test_seed_separation;
          Alcotest.test_case "reseed diverges" `Quick test_reseed_diverges;
          Alcotest.test_case "lengths" `Quick test_lengths;
          Alcotest.test_case "uniform_int range" `Quick test_uniform_int_range;
          Alcotest.test_case "uniform_int coverage" `Quick
            test_uniform_int_coverage;
          Alcotest.test_case "byte distribution" `Quick test_byte_distribution;
          Alcotest.test_case "system seeding" `Quick test_system_seeding;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "uniform_int allocates nothing" `Quick
            test_uniform_int_no_alloc;
        ] );
      ("draw-step", step_tests);
    ]
