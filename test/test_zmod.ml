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
   the 4m < R rule adds a word between 64k-2 and 64k-1 bits, so both
   word counts meet values lazily held in [0, 2m). *)
let test_limb_boundaries () =
  let next = lcg 4321 in
  let around w ks =
    List.concat_map (fun k -> List.init 5 (fun d -> (w * k) - 2 + d)) ks
  in
  List.iter
    (fun bits -> check_modulus next (rand_odd_modulus next bits))
    (around 31 [ 1; 2; 3; 17; 33 ] @ around 64 (List.init 17 succ))

(* The smallest modulus, and moduli just below and above 2^62 (the
   largest one-word modulus under 4m < R) and 2^64; the powers of 3
   around 2^64 also take the nilpotent base 3. *)
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
    ]
