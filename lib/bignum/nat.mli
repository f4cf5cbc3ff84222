(** Arbitrary-precision natural numbers.

    Values are immutable.  The representation uses base-[2^limb_bits] limbs
    stored little-endian in an [int array], which keeps every
    intermediate product of two limbs, plus carries, inside OCaml's
    63-bit native integers.

    This module is the foundation of the from-scratch RSA
    implementation in {!Tep_crypto.Rsa}; see DESIGN.md (system
    inventory #1). *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t

(** {1 Construction and conversion} *)

val of_int : int -> t
(** [of_int n] converts a non-negative [int].
    @raise Invalid_argument if [n < 0]. *)

val to_int : t -> int
(** @raise Failure if the value does not fit in a native [int]. *)

val to_int_opt : t -> int option

val of_bytes_be : string -> t
(** Interpret a big-endian byte string as a natural number.  The empty
    string maps to {!zero}. *)

val to_bytes_be : t -> string
(** Minimal big-endian byte encoding; [to_bytes_be zero = ""]. *)

val to_bytes_be_padded : int -> t -> string
(** [to_bytes_be_padded len n] is the big-endian encoding left-padded
    with zero bytes to exactly [len] bytes.
    @raise Invalid_argument if [n] needs more than [len] bytes. *)

val of_hex : string -> t
(** Parse a hexadecimal string (no ["0x"] prefix, case-insensitive).
    @raise Invalid_argument on non-hex characters. *)

val to_hex : t -> string
(** Lowercase minimal hexadecimal encoding; [to_hex zero = "0"]. *)

val of_decimal : string -> t
(** Parse a decimal string. @raise Invalid_argument on bad input. *)

val to_decimal : t -> string

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool

(** {1 Arithmetic} *)

val add : t -> t -> t

val sub : t -> t -> t
(** Truncated subtraction. @raise Invalid_argument if the result would
    be negative. *)

val mul : t -> t -> t
(** Schoolbook multiplication.  With the default 1024-bit keys the RSA
    code multiplies 17-limb operands (p, q and the CRT products), too
    short for Karatsuba to pay off. *)

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r] and [0 <= r < b]
    (Knuth Algorithm D). @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

(** {1 Bit operations} *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

val testbit : t -> int -> bool
(** [testbit n i] is bit [i] (little-endian bit order) of [n]. *)

(** {1 Internals exposed for tests} *)

val limb_bits : int
(** Bits per limb (31). *)

val of_limbs : int array -> t
(** Build from little-endian limbs (each in [[0, 2^31)]); trailing
    zero limbs are normalised away.  The array is copied. *)
