type t = int

let compare = Int.compare
let equal (a : t) b = a = b
let hash (a : t) = Hashtbl.hash a
let to_int t = t

let of_int i =
  if i < 0 then invalid_arg "Oid.of_int: negative";
  i

let read r =
  let n = Tep_store.Codec.varint r in
  if n < 0 then Tep_store.Codec.fail r "negative oid %d" n;
  n

let to_string t = "#" ^ string_of_int t
let pp fmt t = Format.pp_print_string fmt (to_string t)

type gen = { mutable next : int }

let gen () = { next = 0 }

let fresh g =
  let v = g.next in
  g.next <- v + 1;
  v

let next_value g = g.next
let bump_past g oid = if oid >= g.next then g.next <- oid + 1

module Map = Map.Make (Int)
module Set = Set.Make (Int)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
