(** Provenance polynomials: the free commutative semiring ℕ[X] over
    integer-named variables (record / row / object identifiers).

    A polynomial is kept in a canonical sorted normal form, so
    structural equality is semiring equality and the byte encoding of
    equal polynomials is identical — that canonical encoding is what
    {!Annot} digests and signs to make query lineage tamper-evident.

    Being the {e free} semiring, a polynomial evaluates into any other
    commutative semiring by substituting values for variables
    ({!eval}); specialised evaluations for the three stock instances
    are provided. *)

type t

val zero : t
val one : t

val var : int -> t
(** The polynomial [x_v].  @raise Invalid_argument on a negative id. *)

val of_const : int -> t
(** [n] as a polynomial (n-fold [one]).
    @raise Invalid_argument on a negative constant. *)

val plus : t -> t -> t
val times : t -> t -> t
val sum : t list -> t
val product : t list -> t

val equal : t -> t -> bool
val compare : t -> t -> int

val is_zero : t -> bool
val is_one : t -> bool

val vars : t -> int list
(** Every variable appearing in the polynomial, sorted, de-duplicated. *)

val degree : t -> int
(** Total degree (0 for constants; -1 for {!zero} by convention). *)

(** {1 Evaluation} *)

val eval : (module Semiring.S with type t = 'a) -> (int -> 'a) -> t -> 'a
(** [eval (module S) f p] is the image of [p] under the unique
    semiring homomorphism extending [f] — coefficients become n-fold
    sums, exponents n-fold products. *)

val count : (int -> int) -> t -> int
(** {!Semiring.Counting} evaluation: the number of derivations when
    [f] gives each base variable its multiplicity. *)

val holds : (int -> bool) -> t -> bool
(** {!Semiring.Boolean} evaluation: does some derivation use only
    variables that [f] trusts?  (Why-provenance membership.) *)

val min_support : t -> int
(** {!Semiring.Tropical} evaluation with every variable at cost 1: the
    size (with multiplicity) of the smallest monomial — the cheapest
    derivation.  [Semiring.Tropical.inf] for {!zero}. *)

(** {1 Canonical serialization} *)

val encode : Buffer.t -> t -> unit
(** Deterministic bytes: equal polynomials encode identically (the
    normal form is sorted), which is what makes digests over encoded
    annotations well-defined. *)

val decode : string -> int -> t * int
(** [decode s off] returns the polynomial and the offset just past
    it, re-normalising on the way in so a decoded value is always
    canonical.  @raise Failure on malformed input. *)

val encoded : t -> string

val pp : ?name:(int -> string) -> Format.formatter -> t -> unit
(** Renders e.g. [x2*x5 + 2*x7^2]; [name] overrides the default
    [x<id>] variable rendering (lineage uses [o<oid>]). *)

val to_string : ?name:(int -> string) -> t -> string
