(* Provenance polynomials in canonical normal form.

   Representation: a sorted association list of monomials to positive
   coefficients.  A monomial is a sorted association list of variable
   ids to positive exponents.  [zero] is the empty sum, [one] the
   empty product with coefficient 1.  Every constructor and operation
   preserves the invariants, so [Stdlib.compare]-style structural
   comparison is semantic comparison and the byte encoding is
   canonical. *)

open Tep_store

type mono = (int * int) list (* (var, exponent>0), vars strictly increasing *)
type t = (mono * int) list (* (monomial, coeff>0), monomials strictly increasing *)

let zero : t = []
let one : t = [ ([], 1) ]

let var v : t =
  if v < 0 then invalid_arg "Polynomial.var: negative id";
  [ ([ (v, 1) ], 1) ]

let of_const n : t =
  if n < 0 then invalid_arg "Polynomial.of_const: negative"
  else if n = 0 then zero
  else [ ([], n) ]

(* monomials compare by total degree first, then lexicographically on
   the factor list — a graded order, so [min_support] is just the
   first term's degree under no weighting *)
let mono_degree (m : mono) = List.fold_left (fun a (_, e) -> a + e) 0 m

let compare_mono (a : mono) (b : mono) =
  let c = compare (mono_degree a) (mono_degree b) in
  if c <> 0 then c else compare a b

(* merge two sorted term lists, summing coefficients *)
let rec plus (a : t) (b : t) : t =
  match (a, b) with
  | [], p | p, [] -> p
  | (ma, ca) :: ra, (mb, cb) :: rb -> (
      match compare_mono ma mb with
      | 0 -> (ma, ca + cb) :: plus ra rb
      | c when c < 0 -> (ma, ca) :: plus ra b
      | _ -> (mb, cb) :: plus a rb)

let rec mono_times (a : mono) (b : mono) : mono =
  match (a, b) with
  | [], m | m, [] -> m
  | (va, ea) :: ra, (vb, eb) :: rb ->
      if va = vb then (va, ea + eb) :: mono_times ra rb
      else if va < vb then (va, ea) :: mono_times ra b
      else (vb, eb) :: mono_times a rb

let times (a : t) (b : t) : t =
  List.fold_left
    (fun acc (ma, ca) ->
      plus acc (List.map (fun (mb, cb) -> (mono_times ma mb, ca * cb)) b
                |> List.sort (fun (x, _) (y, _) -> compare_mono x y)))
    zero a

let sum ps = List.fold_left plus zero ps
let product ps = List.fold_left times one ps

let equal (a : t) (b : t) = a = b
let is_zero p = p = zero

let vars (p : t) =
  List.concat_map (fun (m, _) -> List.map fst m) p |> List.sort_uniq Stdlib.compare

let degree (p : t) =
  List.fold_left (fun acc (m, _) -> max acc (mono_degree m)) (-1) p

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let eval (type a) (module S : Semiring.S with type t = a) (f : int -> a)
    (p : t) : a =
  let rec npow acc base n =
    if n = 0 then acc else npow (S.times acc base) base (n - 1)
  in
  let rec nsum acc v n = if n = 0 then acc else nsum (S.plus acc v) v (n - 1) in
  List.fold_left
    (fun acc (m, c) ->
      let mv = List.fold_left (fun a (v, e) -> npow a (f v) e) S.one m in
      S.plus acc (nsum S.zero mv c))
    S.zero p

let count f p = eval (module Semiring.Counting) f p
let holds f p = eval (module Semiring.Boolean) f p
let min_support p = eval (module Semiring.Tropical) (fun _ -> 1) p

(* ------------------------------------------------------------------ *)
(* Canonical serialization                                             *)
(* ------------------------------------------------------------------ *)

let encode buf (p : t) =
  Value.add_varint buf (List.length p);
  List.iter
    (fun (m, c) ->
      Value.add_varint buf c;
      Value.add_varint buf (List.length m);
      List.iter
        (fun (v, e) ->
          Value.add_varint buf v;
          Value.add_varint buf e)
        m)
    p

(* Sorted (key, n) pairs, n > 0, with the ns of equal keys summed; a
   sum past [max_int] is malformed, not wrapped. *)
let rec merge_sorted r ~same what = function
  | (k, a) :: (k', b) :: rest when same k k' ->
      if a + b <= 0 then Codec.fail r "%s overflow" what;
      merge_sorted r ~same what ((k, a + b) :: rest)
  | x :: rest -> x :: merge_sorted r ~same what rest
  | [] -> []

(* A decoded term is re-normalised so a non-canonical (or adversarial)
   byte string still yields a canonical value: its factors are sorted
   and equal variables merged into one monomial.  An exponent is kept
   as a number, never expanded into that many factors — a varint
   exponent can be near 2^62. *)
let read_term r =
  let c = Codec.varint r in
  let factors =
    Codec.list r (fun r ->
        let v = Codec.varint r in
        let e = Codec.varint r in
        if v < 0 then Codec.fail r "negative var %d" v;
        if e <= 0 then Codec.fail r "non-positive exponent %d" e;
        (v, e))
  in
  if c <= 0 then Codec.fail r "non-positive coefficient %d" c;
  let factors = List.sort (fun (a, _) (b, _) -> Int.compare a b) factors in
  (merge_sorted r ~same:Int.equal "exponent" factors, c)

(* The terms are sorted and equal monomials summed, as [sum] would,
   in O(n log n) rather than one merge per term. *)
let read r : t =
  let terms = Codec.list r read_term in
  merge_sorted r
    ~same:(fun a b -> compare_mono a b = 0)
    "coefficient"
    (List.sort (fun (a, _) (b, _) -> compare_mono a b) terms)

let decode = Codec.at ~what:"Polynomial.decode" read

let encoded p =
  let buf = Buffer.create 64 in
  encode buf p;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let default_name v = "x" ^ string_of_int v

let pp ?(name = default_name) fmt (p : t) =
  match p with
  | [] -> Format.pp_print_string fmt "0"
  | terms ->
      let term (m, c) =
        let factors =
          List.map
            (fun (v, e) ->
              if e = 1 then name v else Printf.sprintf "%s^%d" (name v) e)
            m
        in
        match (factors, c) with
        | [], c -> string_of_int c
        | fs, 1 -> String.concat "*" fs
        | fs, c -> string_of_int c ^ "*" ^ String.concat "*" fs
      in
      Format.pp_print_string fmt (String.concat " + " (List.map term terms))

let to_string ?name p = Format.asprintf "%a" (pp ?name) p
