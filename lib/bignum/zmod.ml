let rec gcd a b = if Nat.is_zero b then a else gcd b (Nat.rem a b)

(* Extended Euclid, tracking only the coefficient of [a] and carrying
   its sign separately (Nat has no negatives). *)
let modinv a m =
  if Nat.compare m Nat.one <= 0 then invalid_arg "Zmod.modinv: modulus <= 1";
  let a = Nat.rem a m in
  (* Invariants: r_i = s_i * a (mod m), with sign_i the sign of s_i. *)
  let rec go r0 s0 sign0 r1 s1 sign1 =
    if Nat.is_zero r1 then
      if Nat.is_one r0 then
        Some (if sign0 >= 0 then Nat.rem s0 m else Nat.sub m (Nat.rem s0 m))
      else None
    else begin
      let q, r2 = Nat.divmod r0 r1 in
      (* s2 = s0 - q*s1, with signs. *)
      let qs1 = Nat.mul q s1 in
      let s2, sign2 =
        if sign0 = sign1 || Nat.is_zero qs1 then
          if Nat.compare s0 qs1 >= 0 then (Nat.sub s0 qs1, sign0)
          else (Nat.sub qs1 s0, -sign0)
        else (Nat.add s0 qs1, sign0)
      in
      go r1 s1 sign1 r2 s2 sign2
    end
  in
  if Nat.is_zero a then None
  else go m Nat.zero 1 a Nat.one 1

let mod_mul a b m = Nat.rem (Nat.mul a b) m

module Montgomery = struct
  (* Montgomery-form values are [Bytes] of [n] native-endian 64-bit
     words, the layout the C kernels (montmul.c) read. *)
  type ctx = {
    m : Nat.t;
    n : int; (* word count, ceil(bits(m) / 64), so that m < R = 2^(64n) *)
    m_words : Bytes.t; (* m zero-padded to n words, then -m^{-1} mod 2^64 *)
    r2 : Bytes.t; (* R^2 mod m, as n words *)
    adx : bool; (* multiply on the ADX kernels *)
  }

  (* dst <- a*b*R^{-1} mod m, below R for a, b below R (almost
     Montgomery: not always below m); t is 2n words of scratch.  dst
     may alias a or b.  Every buffer is built here with the context's
     word count, which the kernels read off m_words.  Both give the
     same words (montmul.c). *)
  external mont_mul_portable :
    Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> unit
    = "tep_mont_mul"
  [@@noalloc]

  external mont_mul_adx :
    Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> unit
    = "tep_mont_mul_adx"
  [@@noalloc]

  (* acc <- base^e in Montgomery form by the sliding window of [pow],
     on the same kernel as [mul] (squarings on its squaring kernel):
     e is big-endian and non-zero, k the window size, and the scratch
     (2 + 2^(k-1))n words.  acc must not alias base. *)
  external mont_pow_portable :
    Bytes.t -> Bytes.t -> string -> Bytes.t -> Bytes.t -> int -> unit
    = "tep_mont_pow_byte" "tep_mont_pow"
  [@@noalloc]

  external mont_pow_adx :
    Bytes.t -> Bytes.t -> string -> Bytes.t -> Bytes.t -> int -> unit
    = "tep_mont_pow_adx_byte" "tep_mont_pow_adx"
  [@@noalloc]

  external adx_available : unit -> bool = "tep_mont_adx_available"
  [@@noalloc]

  (* The kernel is chosen once, here: the one on the x86-64 BMI2/ADX
     carry chains when the CPU has them, for every modulus of at most
     17 words (1,088 bits); the portable one otherwise. *)
  let adx_words = if adx_available () then 17 else 0

  let[@inline] mul ctx t dst a b =
    if ctx.adx then mont_mul_adx dst a b ctx.m_words t
    else mont_mul_portable dst a b ctx.m_words t

  let modulus ctx = ctx.m

  let buffer ctx = Bytes.create (8 * ctx.n)

  let scratch ctx = Bytes.create (16 * ctx.n)

  (* x < 2^(64n) as n words, least significant first. *)
  let words n x =
    let s = Nat.to_bytes_be_padded (8 * n) x in
    let w = Bytes.create (8 * n) in
    for i = 0 to n - 1 do
      Bytes.set_int64_ne w (8 * i) (String.get_int64_be s (8 * (n - 1 - i)))
    done;
    w

  let nat_of_words w =
    let n = Bytes.length w / 8 in
    let s = Bytes.create (8 * n) in
    for i = 0 to n - 1 do
      Bytes.set_int64_be s (8 * (n - 1 - i)) (Bytes.get_int64_ne w (8 * i))
    done;
    Nat.of_bytes_be (Bytes.unsafe_to_string s)

  (* -x^{-1} mod 2^64 for odd x by Newton iteration: y <- y(2 - xy)
     doubles the correct low bits, and the seed y = x is good to 3
     bits (x*x = 1 mod 8), so 5 steps reach 96 >= 64. *)
  let neg_inv_word x =
    let y = ref x in
    for _ = 1 to 5 do
      y := Int64.mul !y (Int64.sub 2L (Int64.mul x !y))
    done;
    Int64.neg !y

  let create m =
    if Nat.is_even m || Nat.compare m Nat.one <= 0 then
      invalid_arg "Montgomery.create: modulus must be odd and > 1";
    (* m < R is all the almost-Montgomery multiply needs (montmul.c):
       512- and 1024-bit moduli take 8 and 16 words. *)
    let n = (Nat.num_bits m + 63) / 64 in
    let m_words = Bytes.extend (words n m) 0 8 in
    Bytes.set_int64_ne m_words (8 * n)
      (neg_inv_word (Bytes.get_int64_ne m_words 0));
    let r2 = Nat.rem (Nat.shift_left Nat.one (128 * n)) m in
    { m; n; m_words; r2 = words n r2; adx = n <= adx_words }

  (* x in Montgomery form: x*R mod m, below R. *)
  let to_mont ctx t x =
    let res = words ctx.n (Nat.rem x ctx.m) in
    mul ctx t res res ctx.r2;
    res

  (* Leave Montgomery form: multiplying x < R by 1 gives
     (x + U*m)/R < 1 + m, so a value in [0, m], and the one conditional
     subtraction of the whole exponentiation maps m to 0. *)
  let from_mont ctx t x =
    let one = Bytes.make (8 * ctx.n) '\000' in
    Bytes.set_int64_ne one 0 1L;
    mul ctx t one x one;
    let r = nat_of_words one in
    if Nat.compare r ctx.m >= 0 then Nat.sub r ctx.m else r

  (* Reference left-to-right binary ladder over the per-multiply
     kernel, kept as the oracle the C sliding-window ladder (and its
     squaring kernel) is property-tested and benchmarked against. *)
  let pow_binary ctx b e =
    if Nat.is_zero e then Nat.rem Nat.one ctx.m
    else begin
      let t = scratch ctx in
      let b_mont = to_mont ctx t b in
      let acc = Bytes.copy b_mont in
      for i = Nat.num_bits e - 2 downto 0 do
        mul ctx t acc acc acc;
        if Nat.testbit e i then mul ctx t acc acc b_mont
      done;
      from_mont ctx t acc
    end

  (* Sliding-window size: the 2^(k-1) odd powers cost 2^(k-1)
     multiplies and each window of up to k bits saves multiplies over
     the binary ladder, so k grows with the exponent (5 for the 512-bit
     CRT half-exponents of a 1024-bit key; 1 is the binary ladder,
     right for short public exponents such as 65537). *)
  let window_bits ebits =
    if ebits > 671 then 6
    else if ebits > 239 then 5
    else if ebits > 79 then 4
    else if ebits > 23 then 3
    else 1

  (* The ladder is one C call (montmul.c's mont_pow): the odd-power
     table and the multiply's t in one scratch buffer, the accumulator
     in another, so that no multiply pays for an OCaml call. *)
  let pow ctx b e =
    if Nat.is_zero e then Nat.rem Nat.one ctx.m
    else begin
      let k = window_bits (Nat.num_bits e) in
      let scratch = Bytes.create (8 * ctx.n * (2 + (1 lsl (k - 1)))) in
      let base = to_mont ctx scratch b in
      let acc = buffer ctx in
      (if ctx.adx then mont_pow_adx else mont_pow_portable)
        acc base (Nat.to_bytes_be e) ctx.m_words scratch k;
      from_mont ctx scratch acc
    end
end

(* Division-based square-and-multiply, for even moduli. *)
let modpow_naive b e m =
  let b = ref (Nat.rem b m) in
  let acc = ref (Nat.rem Nat.one m) in
  for i = 0 to Nat.num_bits e - 1 do
    if Nat.testbit e i then acc := mod_mul !acc !b m;
    b := mod_mul !b !b m
  done;
  !acc

let modpow b e m =
  if Nat.is_zero m then invalid_arg "Zmod.modpow: zero modulus";
  if Nat.is_one m then Nat.zero
  else if Nat.is_even m then modpow_naive b e m
  else Montgomery.pow (Montgomery.create m) b e
