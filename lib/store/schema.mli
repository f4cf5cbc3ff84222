(** Table schemas: ordered, named, typed columns. *)

type column = { name : string; ty : Value.ty; nullable : bool }

type t

val make : column list -> t
(** @raise Invalid_argument on duplicate or empty column names, or an
    empty column list. *)

val columns : t -> column list
val arity : t -> int

val column_at : t -> int -> column
(** @raise Invalid_argument if out of range. *)

val column_index : t -> string -> int option

val validate_row : t -> Value.t array -> (unit, string) result
(** Check arity, types, and nullability. *)

val to_string : t -> string
val encode : Buffer.t -> t -> unit
val decode : string -> int -> t * int

val all_int : string list -> t
(** Convenience: non-nullable integer columns with the given names
    (the paper's synthetic tables are all-integer). *)
