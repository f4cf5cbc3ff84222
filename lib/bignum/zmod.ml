let limb_bits = Nat.limb_bits
let base = 1 lsl limb_bits
let limb_mask = base - 1

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
  type ctx = {
    m : Nat.t;
    n : int; (* limb count, chosen so that 4m < R = base^n *)
    m_limbs : int array; (* m, zero-padded to n limbs *)
    m' : int; (* -m^{-1} mod base *)
    r2 : int array; (* R^2 mod m, as n limbs *)
  }

  let modulus ctx = ctx.m

  (* Inverse of x modulo base by Newton iteration (x odd). *)
  let inv_limb x =
    let y = ref x in
    (* y *= 2 - x*y doubles correct bits each step; the seed is good to
       3 bits (x*x = 1 mod 8 for odd x), so 5 steps reach 96 > 31. *)
    for _ = 1 to 5 do
      y := (!y * (2 - (x * !y))) land limb_mask
    done;
    !y land limb_mask

  let create m =
    if Nat.is_even m || Nat.compare m Nat.one <= 0 then
      invalid_arg "Montgomery.create: modulus must be odd and > 1";
    (* Two spare bits give 4m < R, which keeps every product lazily in
       [0, 2m) with no subtraction per multiply (see mont_mul_into).
       512- and 1024-bit moduli get no extra limb from this. *)
    let n = (Nat.num_bits m + 2 + limb_bits - 1) / limb_bits in
    let m_limbs = Array.init n (Nat.get_limb m) in
    let m' = (base - inv_limb m_limbs.(0)) land limb_mask in
    let r = Nat.shift_left Nat.one (n * limb_bits) in
    let r2 = Nat.rem (Nat.mul r r) m in
    { m; n; m_limbs; m'; r2 = Array.init n (Nat.get_limb r2) }

  (* Fused-operand-scanning Montgomery multiplication (FIOS):
     dst <- a*b*R^{-1} mod m, lazily reduced.  Inputs are limb arrays
     of length n holding values in [0, 2m); the result is again in
     [0, 2m): a*b + u*m < 4m^2 + R*m and 4m < R give (a*b + u*m)/R < 2m.
     So no multiply ever compares or subtracts; {!from_mont} does the
     one final subtraction.  [t] is caller scratch of length n
     (contents ignored).  [dst] may alias [a] or [b]: the row loop
     only writes [t], which is copied to [dst] at the end, so a whole
     exponentiation runs in fixed buffers with no allocation per
     multiply.

     Each row computes u up front from t_0 + a_i*b_0, then adds
     a_i*b and u*m in one pass with two independent carry chains,
     storing slot j at j-1 (the division by the limb base).  Every
     step is at most limb + limb*limb + limb = 2^62 - 1 = max_int, so
     nothing overflows; and the running value stays below
     t/base + 3m < 4m < R, so it fits in n limbs and the top limb
     c1 + c2 stays below base.  The unsafe accesses are bounds-safe:
     every index is below n and all five arrays have length >= n. *)
  let mont_mul_into ctx (t : int array) (dst : int array) (a : int array)
      (b : int array) : unit =
    let n = ctx.n in
    let last = n - 1 in
    let m = ctx.m_limbs and m' = ctx.m' in
    let b0 = Array.unsafe_get b 0 and m0 = Array.unsafe_get m 0 in
    Array.fill t 0 n 0;
    for i = 0 to last do
      let ai = Array.unsafe_get a i in
      let p = Array.unsafe_get t 0 + (ai * b0) in
      let u = ((p land limb_mask) * m') land limb_mask in
      (* low limb of q is zero by the choice of u: only its carry *)
      let q = (p land limb_mask) + (u * m0) in
      let c1 = ref (p lsr limb_bits) and c2 = ref (q lsr limb_bits) in
      let j = ref 1 in
      while !j < last do
        let j0 = !j in
        let p = Array.unsafe_get t j0 + (ai * Array.unsafe_get b j0) + !c1 in
        let q = (p land limb_mask) + (u * Array.unsafe_get m j0) + !c2 in
        Array.unsafe_set t (j0 - 1) (q land limb_mask);
        let j1 = j0 + 1 in
        let p =
          Array.unsafe_get t j1 + (ai * Array.unsafe_get b j1)
          + (p lsr limb_bits)
        in
        let q =
          (p land limb_mask) + (u * Array.unsafe_get m j1) + (q lsr limb_bits)
        in
        Array.unsafe_set t j0 (q land limb_mask);
        c1 := p lsr limb_bits;
        c2 := q lsr limb_bits;
        j := j0 + 2
      done;
      if !j = last then begin
        let j0 = last in
        let p = Array.unsafe_get t j0 + (ai * Array.unsafe_get b j0) + !c1 in
        let q = (p land limb_mask) + (u * Array.unsafe_get m j0) + !c2 in
        Array.unsafe_set t (j0 - 1) (q land limb_mask);
        c1 := p lsr limb_bits;
        c2 := q lsr limb_bits
      end;
      Array.unsafe_set t last (!c1 + !c2)
    done;
    Array.blit t 0 dst 0 n

  (* x in Montgomery form: x*R mod m, in [0, 2m). *)
  let to_mont ctx t x =
    let x = Nat.rem x ctx.m in
    let res = Array.init ctx.n (Nat.get_limb x) in
    mont_mul_into ctx t res res ctx.r2;
    res

  (* Leave Montgomery form: multiplying by 1 gives x*R^{-1} in
     [0, m] (x < 2m < R), and the one conditional subtraction of the
     whole exponentiation maps m to 0. *)
  let from_mont ctx t x =
    let one = Array.make ctx.n 0 in
    one.(0) <- 1;
    mont_mul_into ctx t one x one;
    let r = Nat.of_limbs one in
    if Nat.compare r ctx.m >= 0 then Nat.sub r ctx.m else r

  (* Reference left-to-right binary ladder, kept as the oracle the
     sliding-window ladder is property-tested (and benchmarked)
     against. *)
  let pow_binary ctx b e =
    if Nat.is_zero e then Nat.rem Nat.one ctx.m
    else begin
      let t = Array.make ctx.n 0 in
      let b_mont = to_mont ctx t b in
      let acc = Array.copy b_mont in
      for i = Nat.num_bits e - 2 downto 0 do
        mont_mul_into ctx t acc acc acc;
        if Nat.testbit e i then mont_mul_into ctx t acc acc b_mont
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
     accumulator squares in place via {!mont_mul_into} (dst aliasing
     is safe there), so the ladder allocates only the table and two
     buffers. *)
  let pow ctx b e =
    if Nat.is_zero e then Nat.rem Nat.one ctx.m
    else begin
      let n = ctx.n in
      let ebits = Nat.num_bits e in
      let k = window_bits ebits in
      let t = Array.make n 0 in
      let table = Array.make (1 lsl (k - 1)) [||] in
      table.(0) <- to_mont ctx t b;
      if k > 1 then begin
        let b2 = Array.make n 0 in
        mont_mul_into ctx t b2 table.(0) table.(0);
        for i = 1 to Array.length table - 1 do
          let x = Array.make n 0 in
          mont_mul_into ctx t x table.(i - 1) b2;
          table.(i) <- x
        done
      end;
      let acc = Array.make n 0 in
      let first = ref true in
      let i = ref (ebits - 1) in
      while !i >= 0 do
        if not (Nat.testbit e !i) then begin
          mont_mul_into ctx t acc acc acc;
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
            Array.blit entry 0 acc 0 n;
            first := false
          end
          else begin
            for _ = !l to !i do
              mont_mul_into ctx t acc acc acc
            done;
            mont_mul_into ctx t acc acc entry
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
