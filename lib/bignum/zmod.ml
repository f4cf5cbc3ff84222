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
     words, the layout the C kernel (montmul.c) reads. *)
  type ctx = {
    m : Nat.t;
    n : int; (* word count, chosen so that 4m < R = 2^(64n) *)
    m_words : Bytes.t; (* m zero-padded to n words, then -m^{-1} mod 2^64 *)
    r2 : Bytes.t; (* R^2 mod m, as n words *)
  }

  (* dst <- a*b*R^{-1} mod m, lazily in [0, 2m) for a, b in [0, 2m);
     t is n words of scratch.  dst may alias a or b.  Every buffer is
     built here with the context's word count, which the kernel reads
     off m_words. *)
  external mont_mul : Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> unit
    = "tep_mont_mul"
  [@@noalloc]

  let mul ctx t dst a b = mont_mul dst a b ctx.m_words t

  let modulus ctx = ctx.m

  let buffer ctx = Bytes.create (8 * ctx.n)

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
    (* Two spare bits give 4m < R, which keeps every product lazily in
       [0, 2m) with no subtraction per multiply (see montmul.c).
       512- and 1024-bit moduli get one extra word from this. *)
    let n = (Nat.num_bits m + 2 + 63) / 64 in
    let m_words = Bytes.extend (words n m) 0 8 in
    Bytes.set_int64_ne m_words (8 * n)
      (neg_inv_word (Bytes.get_int64_ne m_words 0));
    let r2 = Nat.rem (Nat.shift_left Nat.one (128 * n)) m in
    { m; n; m_words; r2 = words n r2 }

  (* x in Montgomery form: x*R mod m, in [0, 2m). *)
  let to_mont ctx t x =
    let res = words ctx.n (Nat.rem x ctx.m) in
    mul ctx t res res ctx.r2;
    res

  (* Leave Montgomery form: multiplying by 1 gives x*R^{-1} in
     [0, m] (x < 2m < R), and the one conditional subtraction of the
     whole exponentiation maps m to 0. *)
  let from_mont ctx t x =
    let one = Bytes.make (8 * ctx.n) '\000' in
    Bytes.set_int64_ne one 0 1L;
    mul ctx t one x one;
    let r = nat_of_words one in
    if Nat.compare r ctx.m >= 0 then Nat.sub r ctx.m else r

  (* Reference left-to-right binary ladder, kept as the oracle the
     sliding-window ladder is property-tested (and benchmarked)
     against. *)
  let pow_binary ctx b e =
    if Nat.is_zero e then Nat.rem Nat.one ctx.m
    else begin
      let t = buffer ctx in
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

  (* Left-to-right sliding window over odd powers: precompute
     b, b^3, ..., b^(2^k - 1) in Montgomery form; a zero bit costs one
     squaring, and a window of up to k bits that starts and ends on a
     set bit costs its squarings plus one table multiply.  The first
     window loads the table entry instead of squaring 1.  The
     accumulator squares in place (the kernel lets dst alias both
     operands), so the ladder allocates only the table and two
     buffers. *)
  let pow ctx b e =
    if Nat.is_zero e then Nat.rem Nat.one ctx.m
    else begin
      let ebits = Nat.num_bits e in
      let k = window_bits ebits in
      let t = buffer ctx in
      let table = Array.make (1 lsl (k - 1)) Bytes.empty in
      table.(0) <- to_mont ctx t b;
      if k > 1 then begin
        let b2 = buffer ctx in
        mul ctx t b2 table.(0) table.(0);
        for i = 1 to Array.length table - 1 do
          let x = buffer ctx in
          mul ctx t x table.(i - 1) b2;
          table.(i) <- x
        done
      end;
      let acc = buffer ctx in
      let first = ref true in
      let i = ref (ebits - 1) in
      while !i >= 0 do
        if not (Nat.testbit e !i) then begin
          mul ctx t acc acc acc;
          decr i
        end
        else begin
          (* the widest window e[i..l], l > i - k, with bit l set *)
          let l = ref (max 0 (!i - k + 1)) in
          while not (Nat.testbit e !l) do
            incr l
          done;
          let w = ref 0 in
          for bit = !i downto !l do
            w := (!w lsl 1) lor if Nat.testbit e bit then 1 else 0
          done;
          let entry = table.(!w lsr 1) in
          if !first then begin
            Bytes.blit entry 0 acc 0 (Bytes.length acc);
            first := false
          end
          else begin
            for _ = !l to !i do
              mul ctx t acc acc acc
            done;
            mul ctx t acc acc entry
          end;
          i := !l - 1
        end
      done;
      from_mont ctx t acc
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
