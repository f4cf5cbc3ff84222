(** Modular arithmetic over {!Nat.t}.

    Provides the number-theoretic operations RSA needs: GCD, modular
    inverse, and modular exponentiation.  Exponentiation over odd
    moduli uses a lazily reduced Montgomery kernel on 64-bit words
    (fused operand scanning in C, values kept in [\[0, 2m)]) under a
    sliding-window ladder; even moduli fall back to division-based
    reduction.  See DESIGN.md §9.2. *)

val gcd : Nat.t -> Nat.t -> Nat.t
(** Greatest common divisor; [gcd 0 b = b]. *)

val modinv : Nat.t -> Nat.t -> Nat.t option
(** [modinv a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1], and [None] otherwise.
    @raise Invalid_argument if [m <= 1]. *)

val modpow : Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [modpow b e m] is [b^e mod m].  Odd moduli use the sliding-window
    Montgomery ladder ({!Montgomery.pow}) with a context built for
    this call; even moduli fall back to {!modpow_naive}.
    @raise Invalid_argument if [m] is zero. *)

val modpow_naive : Nat.t -> Nat.t -> Nat.t -> Nat.t
(** Division-based right-to-left square-and-multiply.  Works for any
    modulus (including even); slow — kept as the property-test oracle
    for the Montgomery ladders and as the even-modulus fallback.
    [modpow_naive b e 0] loops on [Nat.rem _ 0]; callers guard [m]. *)

val mod_mul : Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [mod_mul a b m = (a*b) mod m]. *)

(** Reusable Montgomery context for repeated exponentiation modulo the
    same odd modulus (RSA-CRT signing keeps one per prime, verify one
    per public modulus).  The results are exact: any base, including
    [b >= m], and any exponent give the unique [b^e mod m]. *)
module Montgomery : sig
  type ctx

  val create : Nat.t -> ctx
  (** [create m] precomputes [-m^{-1} mod 2^64] and [R^2 mod m] (one
      long division) for R = 2^(64n), where n = ⌈(bits(m) + 2) / 64⌉
      words makes [4m < R]: that bound lets every intermediate value
      stay in [\[0, 2m)] with no per-multiply subtraction.  A context
      is immutable and may be shared between domains.
      @raise Invalid_argument if the modulus is even or [<= 1]. *)

  val modulus : ctx -> Nat.t

  val pow : ctx -> Nat.t -> Nat.t -> Nat.t
  (** [pow ctx b e = b^e mod (modulus ctx)] via a left-to-right
      sliding window over the odd powers [b, b^3, ..., b^(2^k - 1)],
      with k picked from [e]'s bit length (1 up to 23 bits, then 3,
      4, 5 from 240 bits, 6 from 672 bits).  A zero bit costs one
      squaring, a window its squarings plus one table multiply.  Not
      constant-time. *)

  val pow_binary : ctx -> Nat.t -> Nat.t -> Nat.t
  (** Reference left-to-right binary square-and-multiply over the same
      kernel.  Same results as {!pow}; kept as oracle and benchmark
      baseline. *)
end
