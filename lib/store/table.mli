(** A mutable relational table: schema + rows addressed by stable
    integer row ids. *)

type row = { id : int; cells : Value.t array }

type t

val create : name:string -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

val insert : t -> Value.t array -> (int, string) result
(** Insert a row; returns the fresh row id.  Fails (with a message) if
    the row does not validate against the schema. *)

val insert_with_id : t -> int -> Value.t array -> (unit, string) result
(** Insert with a caller-chosen id (WAL replay / snapshot load).
    Fails if the id is taken.  Bumps the id allocator past [id]. *)

val delete : t -> int -> bool
(** [delete t id] removes a row; [false] if absent. *)

val get : t -> int -> row option

val update_cell : t -> int -> int -> Value.t -> (Value.t, string) result
(** [update_cell t row_id col_idx v] sets one cell and returns the
    previous value. *)

val row_count : t -> int

val iter : (row -> unit) -> t -> unit
(** Iterate in increasing row-id order (deterministic). *)

val fold : ('a -> row -> 'a) -> 'a -> t -> 'a
val rows : t -> row list
(** In increasing id order. *)

val row_ids : t -> int list

val encode : Buffer.t -> t -> unit
val decode : string -> int -> t * int
