(* Arbitrary-precision naturals, base 2^31 little-endian limbs.

   Invariant: a value is either [||] (zero) or has a non-zero most
   significant limb.  All limbs lie in [0, base).

   31 is the widest limb a 63-bit OCaml int supports: every kernel
   below accumulates at most one limb product plus two limb-sized
   addends per step, and (2^31-1)^2 + 2*(2^31-1) = 2^62 - 1 = max_int
   exactly.  Wider limbs overflow; narrower ones (the old 26) pay
   ~40% more multiply work for the same modulus. *)

let limb_bits = 31
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let get_limb (a : t) i = if i < Array.length a then a.(i) else 0

(* Drop leading (most-significant) zero limbs to restore the invariant. *)
let normalize (a : int array) : t =
  let n = Array.length a in
  let top = ref n in
  while !top > 0 && a.(!top - 1) = 0 do
    decr top
  done;
  if !top = n then a else Array.sub a 0 !top

let of_limbs limbs =
  Array.iter
    (fun l ->
      if l < 0 || l >= base then invalid_arg "Nat.of_limbs: limb out of range")
    limbs;
  normalize (Array.copy limbs)

let is_zero (a : t) = Array.length a = 0
let is_one (a : t) = Array.length a = 1 && a.(0) = 1
let is_even (a : t) = Array.length a = 0 || a.(0) land 1 = 0

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else begin
    let rec count acc n = if n = 0 then acc else count (acc + 1) (n lsr limb_bits) in
    let len = count 0 n in
    let a = Array.make len 0 in
    let rec fill i n =
      if n <> 0 then begin
        a.(i) <- n land limb_mask;
        fill (i + 1) (n lsr limb_bits)
      end
    in
    fill 0 n;
    a
  end

let to_int_opt (a : t) =
  (* max_int is 2^62 - 1: at most 3 limbs (78 bits) could overflow. *)
  let rec go i acc =
    if i < 0 then Some acc
    else if acc > (max_int - a.(i)) lsr limb_bits then None
    else go (i - 1) ((acc lsl limb_bits) lor a.(i))
  in
  go (Array.length a - 1) 0

let to_int a =
  match to_int_opt a with
  | Some n -> n
  | None -> failwith "Nat.to_int: overflow"

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s = get_limb a i + get_limb b i + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(lr - 1) <- !carry;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - get_limb b i - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul_int (a : t) (k : int) : t =
  if k < 0 || k >= base then invalid_arg "Nat.mul_int: multiplier out of range";
  if k = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * k) + !carry in
      r.(i) <- p land limb_mask;
      carry := p lsr limb_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

(* Schoolbook product of limb arrays; result length la+lb, unnormalised.
   Every slot of [r] read by the inner loop must already be masked to
   [limb_bits]: ai*b.(j) + r + carry then peaks at exactly 2^62-1.  The
   carry written past the inner loop therefore cannot be left unmasked
   (as it could at narrower limb widths) — its overflow bit goes one
   slot higher, which is virgin (zero) until the next outer iteration. *)
let mul_school (a : int array) (b : int array) : int array =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let p =
          (ai * Array.unsafe_get b j) + Array.unsafe_get r (i + j) + !carry
        in
        Array.unsafe_set r (i + j) (p land limb_mask);
        carry := p lsr limb_bits
      done;
      let s = Array.unsafe_get r (i + lb) + !carry in
      Array.unsafe_set r (i + lb) (s land limb_mask);
      if s lsr limb_bits <> 0 then
        (* Only reachable when i < la-1: the full product fits la+lb
           limbs, so the top slot's carry-out is always zero. *)
        Array.unsafe_set r (i + lb + 1)
          (Array.unsafe_get r (i + lb + 1) + (s lsr limb_bits))
    end
  done;
  r

let mul (a : t) (b : t) : t =
  if is_zero a || is_zero b then zero else normalize (mul_school a b)

let shift_left (a : t) bits : t =
  if bits < 0 then invalid_arg "Nat.shift_left";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land limb_mask);
      r.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right (a : t) bits : t =
  if bits < 0 then invalid_arg "Nat.shift_right";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let lr = la - limb_shift in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

let num_bits (a : t) =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
    ((la - 1) * limb_bits) + width 0 top
  end

let testbit (a : t) i =
  if i < 0 then invalid_arg "Nat.testbit";
  let limb = i / limb_bits and bit = i mod limb_bits in
  (get_limb a limb lsr bit) land 1 = 1

(* Knuth Algorithm D.  Normalises so the divisor's top limb >= base/2,
   then estimates each quotient limb from the top two/three limbs. *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    (* Single-limb divisor: simple left-to-right division. *)
    let d = b.(0) in
    let la = Array.length a in
    let q = Array.make la 0 in
    let r = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!r lsl limb_bits) lor a.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (normalize q, of_int !r)
  end
  else begin
    (* Normalise: shift so divisor's msb limb has its top bit set. *)
    let shift =
      let top = b.(Array.length b - 1) in
      let rec go s v = if v land (base lsr 1) <> 0 then s else go (s + 1) (v lsl 1) in
      go 0 top
    in
    let u = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u - n in
    (* Working copy of u with one extra high limb. *)
    let w = Array.make (Array.length u + 1) 0 in
    Array.blit u 0 w 0 (Array.length u);
    let vn1 = v.(n - 1) in
    let vn2 = v.(n - 2) in
    let q = Array.make (m + 1) 0 in
    for j = m downto 0 do
      let top2 = (w.(j + n) lsl limb_bits) lor w.(j + n - 1) in
      let qhat = ref (top2 / vn1) in
      let rhat = ref (top2 mod vn1) in
      let adjust () =
        (* While qhat*vn2 > rhat*base + w[j+n-2], decrement qhat. *)
        while
          !qhat >= base
          || !qhat * vn2 > (!rhat lsl limb_bits) lor w.(j + n - 2)
        do
          decr qhat;
          rhat := !rhat + vn1;
          if !rhat >= base then begin
            (* rhat*base would overflow further comparisons only when
               rhat >= base, at which point qhat is certainly small
               enough. *)
            rhat := max_int lsr limb_bits (* force loop exit *)
          end
        done
      in
      adjust ();
      (* Multiply-subtract qhat*v from w[j .. j+n]. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr limb_bits;
        let d = w.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin
          w.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          w.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = w.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add v back and decrement qhat. *)
        w.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = w.(i + j) + v.(i) + !c in
          w.(i + j) <- s land limb_mask;
          c := s lsr limb_bits
        done;
        w.(j + n) <- (w.(j + n) + !c) land limb_mask
      end
      else w.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub w 0 n) in
    (normalize q, shift_right r shift)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let of_bytes_be (s : string) : t =
  let len = String.length s in
  if len = 0 then zero
  else begin
    let nbits = len * 8 in
    let nlimbs = ((nbits + limb_bits - 1) / limb_bits) in
    let r = Array.make nlimbs 0 in
    (* Bit position of byte i (from the end) is (len-1-i)*8. *)
    for i = 0 to len - 1 do
      let byte = Char.code s.[i] in
      let bitpos = (len - 1 - i) * 8 in
      let limb = bitpos / limb_bits and off = bitpos mod limb_bits in
      r.(limb) <- r.(limb) lor ((byte lsl off) land limb_mask);
      if off > limb_bits - 8 && limb + 1 < nlimbs then
        r.(limb + 1) <- r.(limb + 1) lor (byte lsr (limb_bits - off))
    done;
    normalize r
  end

let to_bytes_be (a : t) : string =
  let nbits = num_bits a in
  if nbits = 0 then ""
  else begin
    let len = (nbits + 7) / 8 in
    let buf = Bytes.make len '\000' in
    for i = 0 to len - 1 do
      let bitpos = (len - 1 - i) * 8 in
      let limb = bitpos / limb_bits and off = bitpos mod limb_bits in
      let v =
        (get_limb a limb lsr off)
        lor
        (if off > limb_bits - 8 then get_limb a (limb + 1) lsl (limb_bits - off)
         else 0)
      in
      Bytes.set buf i (Char.chr (v land 0xff))
    done;
    Bytes.unsafe_to_string buf
  end

let to_bytes_be_padded len a =
  let s = to_bytes_be a in
  let sl = String.length s in
  if sl > len then invalid_arg "Nat.to_bytes_be_padded: too short";
  String.make (len - sl) '\000' ^ s

let of_hex (s : string) : t =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Nat.of_hex: bad digit"
  in
  let r = ref zero in
  String.iter (fun c -> r := add (shift_left !r 4) (of_int (digit c))) s;
  !r

let to_hex (a : t) : string =
  if is_zero a then "0"
  else begin
    let nbits = num_bits a in
    let ndigits = (nbits + 3) / 4 in
    let buf = Bytes.create ndigits in
    for i = 0 to ndigits - 1 do
      let bitpos = (ndigits - 1 - i) * 4 in
      let limb = bitpos / limb_bits and off = bitpos mod limb_bits in
      let v =
        (get_limb a limb lsr off)
        lor
        (if off > limb_bits - 4 then get_limb a (limb + 1) lsl (limb_bits - off)
         else 0)
      in
      Bytes.set buf i "0123456789abcdef".[v land 0xf]
    done;
    Bytes.unsafe_to_string buf
  end

let of_decimal (s : string) : t =
  if s = "" then invalid_arg "Nat.of_decimal: empty";
  let r = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
          r := add (mul_int !r 10) (of_int (Char.code c - Char.code '0'))
      | _ -> invalid_arg "Nat.of_decimal: bad digit")
    s;
  !r

let to_decimal (a : t) : string =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let ten = of_int 10 in
    let rec go n =
      if not (is_zero n) then begin
        let q, r = divmod n ten in
        go q;
        Buffer.add_char buf (Char.chr (Char.code '0' + to_int r))
      end
    in
    go a;
    Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_decimal a)
