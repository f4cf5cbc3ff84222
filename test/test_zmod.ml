(* Modular arithmetic: gcd, modinv, modpow (Montgomery and naive). *)
open Tep_bignum

let nat = Alcotest.testable (Fmt.of_to_string Nat.to_decimal) Nat.equal

let n = Nat.of_int

let gen_nat bits =
  QCheck2.Gen.(
    let* s = string_size ~gen:char (return ((bits + 7) / 8)) in
    return (Nat.of_bytes_be s))

let test_gcd () =
  Alcotest.check nat "gcd(12,18)" (n 6) (Zmod.gcd (n 12) (n 18));
  Alcotest.check nat "gcd(17,31)" (n 1) (Zmod.gcd (n 17) (n 31));
  Alcotest.check nat "gcd(0,5)" (n 5) (Zmod.gcd (n 0) (n 5));
  Alcotest.check nat "gcd(5,0)" (n 5) (Zmod.gcd (n 5) (n 0))

let test_modinv_known () =
  (match Zmod.modinv (n 3) (n 7) with
  | Some x -> Alcotest.check nat "3^-1 mod 7" (n 5) x
  | None -> Alcotest.fail "expected inverse");
  (match Zmod.modinv (n 6) (n 9) with
  | Some _ -> Alcotest.fail "6 has no inverse mod 9"
  | None -> ());
  Alcotest.check_raises "modulus 1" (Invalid_argument "Zmod.modinv: modulus <= 1")
    (fun () -> ignore (Zmod.modinv (n 3) (n 1)))

let test_modpow_known () =
  Alcotest.check nat "2^10 mod 1000" (n 24) (Zmod.modpow (n 2) (n 10) (n 1000));
  Alcotest.check nat "5^0 mod 7" (n 1) (Zmod.modpow (n 5) (n 0) (n 7));
  Alcotest.check nat "0^5 mod 7" (n 0) (Zmod.modpow (n 0) (n 5) (n 7));
  (* Fermat: a^(p-1) = 1 mod p *)
  let p = Nat.of_decimal "170141183460469231731687303715884105727" in
  Alcotest.check nat "fermat" Nat.one
    (Zmod.modpow (n 123456789) (Nat.sub p Nat.one) p);
  (* even modulus falls back to the naive path *)
  Alcotest.check nat "even modulus" (n 6) (Zmod.modpow (n 6) (n 3) (n 10));
  Alcotest.check_raises "zero modulus"
    (Invalid_argument "Zmod.modpow: zero modulus") (fun () ->
      ignore (Zmod.modpow (n 2) (n 2) Nat.zero))

let lcg seed =
  let seed = ref seed in
  fun () ->
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed

let test_montgomery_vs_naive () =
  let next = lcg 99 in
  for _ = 1 to 50 do
    let b = n (next ()) and e = n (next () land 0xFFFF) in
    let m = n ((next () lor 1) + 2) in
    (* odd, > 2 *)
    let mont = Zmod.Montgomery.create m in
    Alcotest.check nat "mont = mod_mul chain"
      (Zmod.modpow b e m)
      (Zmod.Montgomery.pow mont b e)
  done

(* The windowed ladder must agree with the division-based oracle on
   the edge cases the dispatcher and window extraction handle
   specially: zero base, zero exponent, modulus 1, even moduli. *)
let test_modpow_edges () =
  let check name want b e m =
    Alcotest.check nat name want (Zmod.modpow b e m);
    Alcotest.check nat (name ^ " (naive)") want (Zmod.modpow_naive b e m)
  in
  check "m=1" Nat.zero (n 7) (n 3) Nat.one;
  check "e=0, m=1" Nat.zero (n 7) Nat.zero Nat.one;
  check "b=0" Nat.zero Nat.zero (n 9) (n 11);
  check "b=0, e=0" Nat.one Nat.zero Nat.zero (n 11);
  check "even m" (n 6) (n 6) (n 3) (n 10);
  check "b multiple of m" Nat.zero (n 22) (n 5) (n 11)

(* A uniformly-ish random [bits]-bit value from 30-bit LCG draws. *)
let rand_nat next bits =
  let x = ref Nat.zero in
  for _ = 1 to (bits + 29) / 30 do
    x := Nat.add (Nat.shift_left !x 30) (Nat.of_int (next ()))
  done;
  Nat.rem !x (Nat.shift_left Nat.one bits)

(* A value of exactly [bits] bits. *)
let rand_exponent next bits =
  Nat.add (Nat.shift_left Nat.one (bits - 1)) (rand_nat next (bits - 1))

(* An odd modulus of exactly [bits] bits. *)
let rand_odd_modulus next bits =
  let m = rand_exponent next bits in
  if Nat.is_even m then Nat.add m Nat.one else m

(* Exponent widths on both sides of every sliding-window threshold
   (k = 1, 3, 4, 5, 6). *)
let window_widths = [ 1; 2; 23; 24; 79; 80; 239; 240; 671; 672 ]

(* Exercise every window size against the binary ladder on a 512-bit
   modulus, the CRT half of a 1024-bit key. *)
let test_window_sizes () =
  let next = lcg 1234 in
  let ctx = Zmod.Montgomery.create (rand_odd_modulus next 512) in
  let b = rand_nat next 512 in
  List.iter
    (fun ebits ->
      let e = rand_exponent next ebits in
      Alcotest.check nat
        (Printf.sprintf "windowed = binary at %d-bit exponent" ebits)
        (Zmod.Montgomery.pow_binary ctx b e)
        (Zmod.Montgomery.pow ctx b e))
    (window_widths @ [ 2048 ])

(* pow = pow_binary = modpow_naive modulo [m].  Bases cover the
   reductions at the edges (0, 1, m-1, m, >= m, >= 2m) plus [extra],
   exponents the degenerate 0, 1, 2 and every window-size threshold. *)
let check_modulus ?(extra = []) next m =
  let bits = Nat.num_bits m in
  let ctx = Zmod.Montgomery.create m in
  let check what b e =
    let want = Zmod.modpow_naive b e m in
    let name =
      Printf.sprintf "%d-bit m, %s, %d-bit e" bits what (Nat.num_bits e)
    in
    Alcotest.check nat (name ^ " (pow)") want (Zmod.Montgomery.pow ctx b e);
    Alcotest.check nat (name ^ " (binary)") want
      (Zmod.Montgomery.pow_binary ctx b e)
  in
  let r = Nat.rem (rand_nat next bits) m in
  let bases =
    [
      ("b=0", Nat.zero);
      ("b=1", Nat.one);
      ("b=m-1", Nat.sub m Nat.one);
      ("b=m", m);
      ("b>=m", Nat.add m r);
      ("b>=2m", Nat.add (Nat.add m m) r);
    ]
    @ extra
  in
  List.iter
    (fun (what, b) ->
      List.iter (fun e -> check what b (n e)) [ 0; 1; 2 ];
      check what b (rand_exponent next 24))
    bases;
  let b = rand_nat next bits in
  List.iter (fun w -> check "random b" b (rand_exponent next w)) window_widths

(* Random moduli of 31k-2 .. 31k+2 bits (the limb width of Nat) and of
   64k-2 .. 64k+2 bits up to 17 words (the word width of the kernel):
   the word count ceil(bits/64) steps up between 64k and 64k+1 bits,
   so both word counts meet moduli that fill their top word, where
   values below R run past 2m. *)
let test_limb_boundaries () =
  let next = lcg 4321 in
  let around w ks =
    List.concat_map (fun k -> List.init 5 (fun d -> (w * k) - 2 + d)) ks
  in
  List.iter
    (fun bits -> check_modulus next (rand_odd_modulus next bits))
    (around 31 [ 1; 2; 3; 17; 33 ] @ around 64 (List.init 17 succ))

(* The smallest modulus, and moduli just below and above 2^62 and 2^64
   (the largest one-word modulus); the powers of 3 around 2^64 also
   take the nilpotent base 3. *)
let test_word_edges () =
  let next = lcg 2718 in
  let pow2 k = Nat.shift_left Nat.one k in
  let three = n 3 in
  List.iter (check_modulus next)
    [
      three;
      Nat.sub (pow2 62) Nat.one;
      Nat.add (pow2 62) Nat.one;
      Nat.sub (pow2 64) Nat.one;
      Nat.add (pow2 64) Nat.one;
    ];
  List.iter
    (fun a ->
      let m = Zmod.modpow_naive three (n a) (pow2 128) in
      check_modulus ~extra:[ ("b=3", three) ] next m)
    [ 39; 40; 41 ]

(* A squaring through pow: the accumulator is both operands and the
   destination of the kernel call. *)
let test_aliased_squaring () =
  let next = lcg 31337 in
  List.iter
    (fun bits ->
      let m = rand_odd_modulus next bits in
      let ctx = Zmod.Montgomery.create m in
      let b = rand_nat next bits in
      let b2 = Zmod.mod_mul b b m in
      Alcotest.check nat (Printf.sprintf "%d-bit b^2" bits) b2
        (Zmod.Montgomery.pow ctx b (n 2));
      Alcotest.check nat (Printf.sprintf "%d-bit b^4" bits)
        (Zmod.mod_mul b2 b2 m)
        (Zmod.Montgomery.pow ctx b (n 4)))
    [ 2; 62; 63; 64; 65; 512; 1024; 2046 ]

(* Nilpotent bases: modulo m = 3^a, any b with 3 | b has b^e = 0 once
   e >= a, and the ladder can then hold the zero residue lazily as m
   itself.  Only the final subtraction when leaving Montgomery form
   maps it back to 0. *)
let test_nilpotent_bases () =
  let next = lcg 777 in
  let three = n 3 in
  let m = ref three in
  for a = 1 to 70 do
    let m' = !m in
    let ctx = Zmod.Montgomery.create m' in
    List.iter
      (fun b ->
        List.iter
          (fun e ->
            let name = Printf.sprintf "3^%d, e=%s" a (Nat.to_decimal e) in
            let want = Zmod.modpow_naive b e m' in
            Alcotest.check nat (name ^ " (pow)") want (Zmod.Montgomery.pow ctx b e);
            Alcotest.check nat (name ^ " (binary)") want
              (Zmod.Montgomery.pow_binary ctx b e))
          [ n a; n (a + 1); rand_exponent next 24; rand_exponent next 80 ])
      [ three; Nat.mul three (Nat.add (rand_nat next 40) Nat.one) ];
    m := Nat.mul m' three
  done

(* The kernels of montmul.c, declared here so that each is tested
   whichever one Zmod runs on.  The portable multiply is the oracle of
   the portable squaring and of the kernels on the x86-64 BMI2/ADX
   instructions, which Zmod selects for moduli of up to 17 words when
   the CPU has them.  The ladders take six arguments, so they have
   bytecode entry points of their own. *)
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

external mont_pow_portable :
  Bytes.t -> Bytes.t -> string -> Bytes.t -> Bytes.t -> int -> unit
  = "tep_mont_pow_byte" "tep_mont_pow"
[@@noalloc]

external mont_pow_adx :
  Bytes.t -> Bytes.t -> string -> Bytes.t -> Bytes.t -> int -> unit
  = "tep_mont_pow_adx_byte" "tep_mont_pow_adx"
[@@noalloc]

external adx_available : unit -> bool = "tep_mont_adx_available" [@@noalloc]

let adx = adx_available ()

(* [x] as [nw] native-endian 64-bit words, least significant first. *)
let words nw x =
  let s = Nat.to_bytes_be_padded (8 * nw) x in
  let w = Bytes.create (8 * nw) in
  for i = 0 to nw - 1 do
    Bytes.set_int64_ne w (8 * i) (String.get_int64_be s (8 * (nw - 1 - i)))
  done;
  w

let nat_of_words w =
  let nw = Bytes.length w / 8 in
  let s = Bytes.create (8 * nw) in
  for i = 0 to nw - 1 do
    Bytes.set_int64_be s (8 * (nw - 1 - i)) (Bytes.get_int64_ne w (8 * i))
  done;
  Nat.of_bytes_be (Bytes.unsafe_to_string s)

(* The kernels' modulus buffer: [m] as [nw] words, then -m^{-1} mod 2^64. *)
let modulus_words nw m =
  let r64 = Nat.shift_left Nat.one 64 in
  let inv = Option.get (Zmod.modinv m r64) in
  Bytes.cat (words nw m) (words 1 (Nat.sub r64 inv))

(* R = 2^(64 nw). *)
let radix nw = Nat.shift_left Nat.one (64 * nw)

(* The almost-Montgomery multiply in Nat arithmetic, the contract every
   kernel implements: with U = -ab*m^{-1} mod R, T = ab + U*m is a
   multiple of R below 2R^2, and the result is T/R, less m when
   T/R >= R.  Also says whether that subtraction happened. *)
let almost_montgomery nw m a b =
  let r = radix nw in
  let ab = Nat.mul a b in
  let u =
    Nat.rem (Nat.mul (Nat.sub r (Nat.rem ab r)) (Option.get (Zmod.modinv m r))) r
  in
  let q, rest = Nat.divmod (Nat.add ab (Nat.mul u m)) r in
  assert (Nat.is_zero rest);
  if Nat.compare q r >= 0 then (Nat.sub q m, true) else (q, false)

(* m = (2R + 1)/3: odd, top bit set, and 3m = 1 (mod R), so
   m^{-1} = 3.  With a = b = R - 1, ab = 1 (mod R), U = R - 3 and
   ab + U*m = (5R^2 - 11R)/3 >= R^2: the multiply ends on the carry
   that subtracts m. *)
let carry_modulus nw =
  Nat.div (Nat.add (Nat.shift_left (radix nw) 1) Nat.one) (n 3)

(* The operand cases of one word count, from random bytes [seed].
   Moduli: a random odd one of 64n - 65 to 64n - 2 bits, the all-ones
   2^(64n-2) - 1 and one just below 2^(64n-2), then a random one of
   64n - 1 or 64n bits, R - 1, one just below R and [carry_modulus].
   Operands, below B = min(2m, R): random ones, both B - 1, low words
   all ones; and both R - 1.  For the first three moduli B = 2m, so
   the cases of a [0, 2m) operand bound stay a subset. *)
let kernel_cases nw seed =
  let below bound s = Nat.rem (Nat.of_bytes_be s) bound in
  let r = radix nw in
  let top = Nat.shift_left Nat.one ((64 * nw) - 2) in
  let odd m = if Nat.is_even m then Nat.add m Nat.one else m in
  let random_m lo hi =
    let width = lo + (Char.code seed.[0] mod (hi + 1 - lo)) in
    odd (Nat.add (Nat.shift_left Nat.one (width - 1))
           (below (Nat.shift_left Nat.one (width - 1)) seed))
  in
  let just_below x = odd (Nat.sub x (Nat.add (below (n 1000) seed) Nat.two)) in
  let moduli =
    [
      ("random m", random_m (max 2 ((64 * nw) - 65)) ((64 * nw) - 2));
      ("m = 2^(64n-2) - 1", Nat.sub top Nat.one);
      ("m just below 2^(64n-2)", just_below top);
      ("random m of 64n - 1 or 64n bits", random_m ((64 * nw) - 1) (64 * nw));
      ("m = R - 1", Nat.sub r Nat.one);
      ("m just below R", just_below r);
      ("m = (2R + 1)/3", carry_modulus nw);
    ]
  in
  List.concat_map
    (fun (what, m) ->
      let m2 = Nat.add m m in
      let bound = if Nat.compare m2 r < 0 then m2 else r in
      let ones k = Nat.sub (Nat.shift_left Nat.one (64 * k)) Nat.one in
      let low_ones = Nat.rem (ones (nw - 1)) bound in
      let b1 = Nat.sub bound Nat.one and r1 = Nat.sub r Nat.one in
      [
        (what ^ ", random a, b", m, below bound (String.sub seed 1 140),
          below bound (String.sub seed 141 140));
        (what ^ ", a = b = B - 1", m, b1, b1);
        (what ^ ", all-ones low words", m, low_ones, b1);
        (what ^ ", a = b = R - 1", m, r1, r1);
      ])
    moduli

(* One case on one kernel pair: the multiply into a fresh destination
   and with the destination aliased to a, to b and (squaring) to both;
   then the squaring kernel on a, into a fresh destination and in
   place. *)
let run_case (mul, sqr) nw (_, m, a, b) =
  let mw = modulus_words nw m and aw = words nw a and bw = words nw b in
  let t () = Bytes.create (16 * nw) in
  let dst = Bytes.create (8 * nw) in
  mul dst aw bw mw (t ());
  let dst_a = Bytes.copy aw in
  mul dst_a dst_a bw mw (t ());
  let dst_b = Bytes.copy bw in
  mul dst_b aw dst_b mw (t ());
  let sq = Bytes.copy aw in
  mul sq sq sq mw (t ());
  let sqr_fresh = Bytes.create (8 * nw) in
  sqr sqr_fresh aw mw (t ());
  let sqr_in_place = Bytes.copy aw in
  sqr sqr_in_place sqr_in_place mw (t ());
  [ dst; dst_a; dst_b; sq; sqr_fresh; sqr_in_place ]

let portable = (mont_mul_portable, mont_sqr_portable)

(* Every aliasing gives the words of the fresh multiply, and both
   squarings the words of the multiply a*a. *)
let consistent nw (what, _, _, _) = function
  | [ dst; dst_a; dst_b; sq; sqr_fresh; sqr_in_place ] ->
      (Bytes.equal dst dst_a && Bytes.equal dst dst_b && Bytes.equal sq sqr_fresh
     && Bytes.equal sq sqr_in_place)
      || QCheck2.Test.fail_reportf
           "%d words, %s: an aliased multiply or a squaring differs" nw what
  | _ -> assert false

(* The word counts of the specialised portable multiplies (4, 8, 16
   and 32), and around them ones that take its generic instance. *)
let portable_word_counts = List.init 17 succ @ [ 18; 32; 33 ]

let seed_gen = QCheck2.Gen.(string_size ~gen:char (return 281))

let prop_portable_squaring =
  QCheck2.Test.make
    ~name:"portable squaring = portable multiply a*a, any aliasing" ~count:15
    seed_gen (fun seed ->
      List.for_all
        (fun nw ->
          List.for_all
            (fun case -> consistent nw case (run_case portable nw case))
            (kernel_cases nw seed))
        portable_word_counts)

let prop_kernels_agree =
  QCheck2.Test.make
    ~name:"ADX multiply and squaring = portable multiply, 1 to 17 words"
    ~count:40 seed_gen (fun seed ->
      List.for_all
        (fun nw ->
          List.for_all
            (fun case ->
              let on_adx = run_case (mont_mul_adx, mont_sqr_adx) nw case in
              consistent nw case on_adx
              && (List.for_all2 Bytes.equal on_adx (run_case portable nw case)
                 || let what, _, _, _ = case in
                    QCheck2.Test.fail_reportf "%d words, %s: the kernels differ"
                      nw what))
            (kernel_cases nw seed))
        (List.init 17 succ))

(* The kernels' words against the Nat model of the contract, on one
   seed; the case a = b = R - 1 modulo (2R + 1)/3 must be one that
   subtracts m, so the carry-and-subtract branch is shown to run. *)
let test_contract () =
  let next = lcg 2024 in
  let seed = String.init 281 (fun _ -> Char.chr (next () land 0xff)) in
  let kernels = if adx then [ ("portable", portable);
                              ("ADX", (mont_mul_adx, mont_sqr_adx)) ]
    else [ ("portable", portable) ] in
  List.iter
    (fun nw ->
      List.iter
        (fun ((what, m, a, b) as case) ->
          let want_ab, _ = almost_montgomery nw m a b in
          let want_aa, subtracted = almost_montgomery nw m a a in
          if Nat.equal m (carry_modulus nw)
             && Nat.equal a (Nat.sub (radix nw) Nat.one)
          then
            Alcotest.(check bool)
              (Printf.sprintf "%d words, %s: subtracts m" nw what)
              true subtracted;
          List.iter
            (fun (kernel, pair) ->
              let name = Printf.sprintf "%s, %d words, %s" kernel nw what in
              List.iteri
                (fun i out ->
                  (* the three multiplies a*b, then a*a by the multiply
                     and by the two squarings *)
                  let want, form =
                    if i < 3 then (want_ab, "a*b") else (want_aa, "a*a")
                  in
                  Alcotest.check nat
                    (Printf.sprintf "%s, %s (output %d)" name form i)
                    want (nat_of_words out))
                (run_case pair nw case))
            kernels)
        (kernel_cases nw seed))
    portable_word_counts

(* The C ladder on each kernel, for every window size k from 1 to 6
   (Zmod picks one from the exponent width), against modpow_naive, with
   Zmod's pow and pow_binary beside it.  Exponents sit on both sides
   of every window threshold; the base enters in Montgomery form, plus
   m when that stays below R, so the ladder starts from an operand that
   is not reduced. *)
let test_c_ladder () =
  let next = lcg 8086 in
  let moduli =
    [ rand_odd_modulus next 512; rand_odd_modulus next 1024;
      carry_modulus 8; Nat.sub (radix 8) Nat.one ]
  in
  let ladders =
    ("portable", mont_pow_portable)
    :: (if adx then [ ("ADX", mont_pow_adx) ] else [])
  in
  List.iter
    (fun m ->
      let bits = Nat.num_bits m in
      let nw = (bits + 63) / 64 in
      let r = radix nw in
      let r_inv = Option.get (Zmod.modinv r m) in
      let ctx = Zmod.Montgomery.create m in
      let b = rand_nat next bits in
      let b_mont =
        let x = Nat.rem (Nat.mul b r) m in
        if Nat.compare (Nat.add x m) r < 0 then Nat.add x m else x
      in
      List.iter
        (fun ebits ->
          let e = rand_exponent next ebits in
          let want = Zmod.modpow_naive b e m in
          let name = Printf.sprintf "%d-bit m, %d-bit e" bits ebits in
          Alcotest.check nat (name ^ ", pow") want (Zmod.Montgomery.pow ctx b e);
          Alcotest.check nat (name ^ ", pow_binary") want
            (Zmod.Montgomery.pow_binary ctx b e);
          List.iter
            (fun (kernel, ladder) ->
              for k = 1 to 6 do
                let acc = Bytes.create (8 * nw) in
                let scratch = Bytes.create (8 * nw * (2 + (1 lsl (k - 1)))) in
                ladder acc (words nw b_mont) (Nat.to_bytes_be e)
                  (modulus_words nw m) scratch k;
                Alcotest.check nat
                  (Printf.sprintf "%s, %s ladder, k = %d" name kernel k)
                  want
                  (Nat.rem (Nat.mul (nat_of_words acc) r_inv) m)
              done)
            ladders)
        window_widths)
    moduli

(* Without BMI2 and ADX the kernels cannot run: their check is listed
   as skipped, not dropped. *)
let adx_tests =
  if adx then [ QCheck_alcotest.to_alcotest prop_kernels_agree ]
  else
    [
      Alcotest.test_case "ADX kernels (no BMI2/ADX on this CPU)" `Quick
        (fun () -> Alcotest.skip ());
    ]

let prop_modpow_vs_naive =
  QCheck2.Test.make ~name:"windowed modpow = naive oracle (any modulus)"
    ~count:150
    QCheck2.Gen.(triple (gen_nat 96) (gen_nat 64) (gen_nat 96))
    (fun (b, e, m) ->
      QCheck2.assume (not (Nat.is_zero m));
      Nat.equal (Zmod.modpow b e m) (Zmod.modpow_naive b e m))

let prop_window_vs_binary =
  QCheck2.Test.make ~name:"Montgomery.pow = pow_binary (odd moduli)"
    ~count:60
    QCheck2.Gen.(triple (gen_nat 256) (gen_nat 200) (gen_nat 256))
    (fun (b, e, m) ->
      let m = if Nat.is_even m then Nat.add m Nat.one else m in
      QCheck2.assume (Nat.compare m Nat.two > 0);
      let ctx = Zmod.Montgomery.create m in
      Nat.equal
        (Zmod.Montgomery.pow ctx b e)
        (Zmod.Montgomery.pow_binary ctx b e))

let prop_modinv =
  QCheck2.Test.make ~name:"modinv correct when gcd=1" ~count:200
    QCheck2.Gen.(pair (gen_nat 128) (gen_nat 160))
    (fun (a, m) ->
      QCheck2.assume (Nat.compare m Nat.two > 0);
      match Zmod.modinv a m with
      | Some x -> Nat.is_one (Nat.rem (Nat.mul (Nat.rem a m) x) m)
      | None -> not (Nat.is_one (Zmod.gcd a m)))

let prop_modpow_mul =
  QCheck2.Test.make ~name:"b^(e1+e2) = b^e1 * b^e2 (mod m)" ~count:100
    QCheck2.Gen.(quad (gen_nat 64) (gen_nat 16) (gen_nat 16) (gen_nat 80))
    (fun (b, e1, e2, m) ->
      QCheck2.assume (Nat.compare m Nat.two > 0);
      let lhs = Zmod.modpow b (Nat.add e1 e2) m in
      let rhs = Zmod.mod_mul (Zmod.modpow b e1 m) (Zmod.modpow b e2 m) m in
      Nat.equal lhs rhs)

let prop_gcd_divides =
  QCheck2.Test.make ~name:"gcd divides both" ~count:300
    QCheck2.Gen.(pair (gen_nat 100) (gen_nat 100))
    (fun (a, b) ->
      let g = Zmod.gcd a b in
      if Nat.is_zero g then Nat.is_zero a && Nat.is_zero b
      else Nat.is_zero (Nat.rem a g) && Nat.is_zero (Nat.rem b g))

let () =
  Alcotest.run "zmod"
    [
      ( "unit",
        [
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "modinv" `Quick test_modinv_known;
          Alcotest.test_case "modpow" `Quick test_modpow_known;
          Alcotest.test_case "montgomery vs naive" `Quick
            test_montgomery_vs_naive;
          Alcotest.test_case "modpow edge cases" `Quick test_modpow_edges;
          Alcotest.test_case "window sizes" `Quick test_window_sizes;
          Alcotest.test_case "limb boundaries" `Quick test_limb_boundaries;
          Alcotest.test_case "word edges" `Quick test_word_edges;
          Alcotest.test_case "aliased squaring" `Quick test_aliased_squaring;
          Alcotest.test_case "nilpotent bases" `Quick test_nilpotent_bases;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_modpow_vs_naive;
            prop_window_vs_binary;
            prop_modinv;
            prop_modpow_mul;
            prop_gcd_divides;
          ] );
      ( "montmul-kernels",
          Alcotest.test_case "almost-Montgomery contract" `Quick test_contract
          :: Alcotest.test_case "C ladder, every window size" `Quick
               test_c_ladder
          :: QCheck_alcotest.to_alcotest prop_portable_squaring
          :: adx_tests );
    ]
