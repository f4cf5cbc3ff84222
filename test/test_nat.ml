(* Unit and property tests for arbitrary-precision naturals. *)
open Tep_bignum

let nat = Alcotest.testable (Fmt.of_to_string Nat.to_decimal) Nat.equal

let check_nat = Alcotest.check nat

(* qcheck generator: random naturals up to ~600 bits. *)
let gen_nat =
  QCheck2.Gen.(
    let* nbytes = int_range 0 75 in
    let* s = string_size ~gen:char (return nbytes) in
    return (Nat.of_bytes_be s))


let test_constants () =
  check_nat "zero" Nat.zero (Nat.of_int 0);
  check_nat "one" Nat.one (Nat.of_int 1);
  check_nat "two" Nat.two (Nat.of_int 2);
  Alcotest.(check bool) "is_zero" true (Nat.is_zero Nat.zero);
  Alcotest.(check bool) "is_one" true (Nat.is_one Nat.one);
  Alcotest.(check bool) "one not zero" false (Nat.is_zero Nat.one)

let test_of_to_int () =
  List.iter
    (fun n ->
      Alcotest.(check int) (string_of_int n) n (Nat.to_int (Nat.of_int n)))
    [ 0; 1; 2; 41; 1 lsl 25; (1 lsl 26) - 1; 1 lsl 26; 123456789; max_int ];
  Alcotest.check_raises "negative" (Invalid_argument "Nat.of_int: negative")
    (fun () -> ignore (Nat.of_int (-1)))

let test_to_int_overflow () =
  let big = Nat.shift_left Nat.one 80 in
  Alcotest.(check (option int)) "overflow" None (Nat.to_int_opt big);
  Alcotest.(check (option int))
    "max_int fits" (Some max_int)
    (Nat.to_int_opt (Nat.of_int max_int))

let test_add_sub_basic () =
  let a = Nat.of_decimal "123456789012345678901234567890" in
  let b = Nat.of_decimal "987654321098765432109876543210" in
  check_nat "a+b"
    (Nat.of_decimal "1111111110111111111011111111100")
    (Nat.add a b);
  check_nat "b-a"
    (Nat.of_decimal "864197532086419753208641975320")
    (Nat.sub b a);
  check_nat "a-a" Nat.zero (Nat.sub a a);
  Alcotest.check_raises "negative sub"
    (Invalid_argument "Nat.sub: negative result") (fun () ->
      ignore (Nat.sub a b))

let test_mul_known () =
  check_nat "mul"
    (Nat.of_decimal "121932631137021795226185032733622923332237463801111263526900")
    (Nat.mul
       (Nat.of_decimal "123456789012345678901234567890")
       (Nat.of_decimal "987654321098765432109876543210"));
  check_nat "mul by zero" Nat.zero (Nat.mul Nat.zero (Nat.of_int 12345));
  check_nat "mul by one"
    (Nat.of_int 12345)
    (Nat.mul Nat.one (Nat.of_int 12345))

let test_divmod_known () =
  let q, r =
    Nat.divmod
      (Nat.of_decimal "121932631137021795226185032733622923332237463801111263526901")
      (Nat.of_decimal "987654321098765432109876543210")
  in
  check_nat "q" (Nat.of_decimal "123456789012345678901234567890") q;
  check_nat "r" Nat.one r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod Nat.one Nat.zero))

let test_shifts () =
  let a = Nat.of_decimal "123456789123456789" in
  check_nat "shl/shr" a (Nat.shift_right (Nat.shift_left a 77) 77);
  check_nat "shl 0" a (Nat.shift_left a 0);
  check_nat "shr to zero" Nat.zero (Nat.shift_right a 200);
  Alcotest.(check int) "num_bits of 2^k" 101 (Nat.num_bits (Nat.shift_left Nat.one 100));
  Alcotest.(check int) "num_bits zero" 0 (Nat.num_bits Nat.zero)

let test_testbit () =
  let a = Nat.of_int 0b1011001 in
  let bits = List.init 8 (Nat.testbit a) in
  Alcotest.(check (list bool))
    "bits"
    [ true; false; false; true; true; false; true; false ]
    bits

let test_hex_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Nat.to_hex (Nat.of_hex s)))
    [ "0"; "1"; "ff"; "deadbeef"; "123456789abcdef0123456789abcdef" ];
  check_nat "hex of 255" (Nat.of_int 255) (Nat.of_hex "FF");
  Alcotest.check_raises "bad hex" (Invalid_argument "Nat.of_hex: bad digit")
    (fun () -> ignore (Nat.of_hex "xyz"))

let test_bytes_roundtrip () =
  Alcotest.(check string) "empty" "" (Nat.to_bytes_be Nat.zero);
  Alcotest.(check string)
    "padded" "\x00\x00\x01\x02"
    (Nat.to_bytes_be_padded 4 (Nat.of_int 258));
  Alcotest.check_raises "pad too small"
    (Invalid_argument "Nat.to_bytes_be_padded: too short") (fun () ->
      ignore (Nat.to_bytes_be_padded 1 (Nat.of_int 258)))

let test_decimal () =
  Alcotest.(check string) "to_decimal" "0" (Nat.to_decimal Nat.zero);
  Alcotest.(check string)
    "roundtrip" "340282366920938463463374607431768211456"
    (Nat.to_decimal (Nat.of_decimal "340282366920938463463374607431768211456"))

let test_compare () =
  let a = Nat.of_int 5 and b = Nat.of_int 7 in
  Alcotest.(check bool) "lt" true (Nat.compare a b < 0);
  Alcotest.(check bool) "gt" true (Nat.compare b a > 0);
  Alcotest.(check bool) "eq" true (Nat.compare a a = 0);
  (* different limb counts *)
  Alcotest.(check bool)
    "big gt small" true
    (Nat.compare (Nat.shift_left Nat.one 100) (Nat.of_int max_int) > 0)

let test_wide_products_divide_back () =
  (* 70x64-limb products (over 2000 bits each) divide back exactly *)
  let src = ref 17 in
  let next () =
    src := (!src * 1103515245 + 12345) land 0x3FFFFFFF;
    !src
  in
  for _ = 1 to 20 do
    let big1 =
      Nat.of_limbs (Array.init 70 (fun _ -> next () land ((1 lsl Nat.limb_bits) - 1)))
    in
    let big2 =
      Nat.of_limbs (Array.init 64 (fun _ -> next () land ((1 lsl Nat.limb_bits) - 1)))
    in
    let p = Nat.mul big1 big2 in
    if not (Nat.is_zero big2) then begin
      let q, r = Nat.divmod p big2 in
      check_nat "p/b2 = b1" big1 q;
      check_nat "p mod b2 = 0" Nat.zero r
    end
  done

(* Property tests. *)
let prop_add_comm =
  QCheck2.Test.make ~name:"add commutative" ~count:500
    QCheck2.Gen.(pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a))

let prop_add_assoc =
  QCheck2.Test.make ~name:"add associative" ~count:500
    QCheck2.Gen.(triple gen_nat gen_nat gen_nat)
    (fun (a, b, c) ->
      Nat.equal (Nat.add a (Nat.add b c)) (Nat.add (Nat.add a b) c))

let prop_mul_comm =
  QCheck2.Test.make ~name:"mul commutative" ~count:300
    QCheck2.Gen.(pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_distrib =
  QCheck2.Test.make ~name:"mul distributes over add" ~count:300
    QCheck2.Gen.(triple gen_nat gen_nat gen_nat)
    (fun (a, b, c) ->
      Nat.equal
        (Nat.mul a (Nat.add b c))
        (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_divmod =
  QCheck2.Test.make ~name:"divmod invariant" ~count:500
    QCheck2.Gen.(pair gen_nat gen_nat)
    (fun (a, b) ->
      QCheck2.assume (not (Nat.is_zero b));
      let q, r = Nat.divmod a b in
      Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0)

let prop_sub_add =
  QCheck2.Test.make ~name:"(a+b)-b = a" ~count:500
    QCheck2.Gen.(pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal a (Nat.sub (Nat.add a b) b))

let prop_bytes_roundtrip =
  QCheck2.Test.make ~name:"bytes roundtrip" ~count:500 gen_nat (fun a ->
      Nat.equal a (Nat.of_bytes_be (Nat.to_bytes_be a)))

let prop_hex_roundtrip =
  QCheck2.Test.make ~name:"hex roundtrip" ~count:500 gen_nat (fun a ->
      Nat.equal a (Nat.of_hex (Nat.to_hex a)))

let prop_decimal_roundtrip =
  QCheck2.Test.make ~name:"decimal roundtrip" ~count:200 gen_nat (fun a ->
      Nat.equal a (Nat.of_decimal (Nat.to_decimal a)))

let prop_shift =
  QCheck2.Test.make ~name:"shift left then right" ~count:300
    QCheck2.Gen.(pair gen_nat (int_range 0 120))
    (fun (a, k) -> Nat.equal a (Nat.shift_right (Nat.shift_left a k) k))

let () =

  Alcotest.run "nat"
    [
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
          Alcotest.test_case "add/sub" `Quick test_add_sub_basic;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "divmod known" `Quick test_divmod_known;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "testbit" `Quick test_testbit;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "decimal" `Quick test_decimal;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "wide products divide back" `Quick
            test_wide_products_divide_back;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_add_comm;
            prop_add_assoc;
            prop_mul_comm;
            prop_distrib;
            prop_divmod;
            prop_sub_add;
            prop_bytes_roundtrip;
            prop_hex_roundtrip;
            prop_decimal_roundtrip;
            prop_shift;
          ] );
    ]
