(** A named collection of tables — the "back-end database" of the
    paper's experimental setup (and also the provenance database). *)

type t

val create : name:string -> t
val name : t -> string

val create_table : t -> name:string -> Schema.t -> (Table.t, string) result
val get_table : t -> string -> Table.t option
val get_table_exn : t -> string -> Table.t
(** @raise Not_found *)

val table_names : t -> string list
(** Sorted, deterministic. *)

val tables : t -> Table.t list
(** In name order. *)

val total_rows : t -> int

val node_count : t -> int
(** Number of nodes in the depth-4 tree view (1 root + tables + rows +
    cells), as counted by Table 1(b) of the paper. *)

val encode : Buffer.t -> t -> unit
val decode : string -> int -> t * int
