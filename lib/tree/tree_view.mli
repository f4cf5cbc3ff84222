(** The depth-4 tree view of a relational database (Section 5.1):
    root → tables → rows → cells.

    [build] materialises the view inside a {!Forest} with a
    deterministic oid layout; {!Streaming} reproduces the same root
    hash without materialising anything.  Internal nodes carry
    descriptive values (database / table names, row ids), leaves carry
    the cell values. *)

type location =
  | Root
  | Table of string
  | Row of string * int  (** table, row id *)
  | Cell of string * int * int  (** table, row id, column index *)

type mapping

val build : Forest.t -> Tep_store.Database.t -> mapping
(** Insert the whole tree view into the forest (which should be
    freshly created): the root, then one {!mirror}ed [Create_table]
    per table and one [Insert_row] per row.  Oids are therefore
    assigned root-first, tables in name order, rows in id order, cells
    in column order — the layout {!Streaming} assumes. *)

val mirror :
  ?touch:(direct:bool -> Oid.t -> unit) ->
  ?created:(Oid.t -> unit) ->
  Forest.t ->
  mapping ->
  Tep_store.Wal.entry ->
  (unit, string) result
(** Apply the tree side of one journaled mutation: insert, delete or
    update the forest nodes of a [Create_table], [Insert_row],
    [Delete_row] or [Update_cell] and (un)register them in the
    mapping, or redo an [Aggregate] with {!Forest.aggregate}.  Control
    entries are no-ops.  The engine, crash recovery and {!build} all
    go through here, which is what makes a replay assign the oids the
    engine assigned.

    [touch ~direct oid] runs before an existing node (or a new node's
    parent) changes: [~direct:true] for the deleted row or updated
    cell, [false] for the parent an insert grows.  [created oid] runs
    after each inserted node, and after an aggregate's new root only
    (not its copies).  The backend is not touched: callers apply the
    entry there themselves ({!Tep_store.Wal.apply}).  [Error] when the
    entry names a table, row or cell the mapping lacks, or the forest
    refuses a step. *)

val root : mapping -> Oid.t
val table_oid : mapping -> string -> Oid.t option
val row_oid : mapping -> string -> int -> Oid.t option
val cell_oid : mapping -> string -> int -> int -> Oid.t option
val locate : mapping -> Oid.t -> location option

val unregister : mapping -> Oid.t -> unit
(** Forget the location of an object the engine deleted outside
    {!mirror} (the engine's [delete_object]). *)

(** {1 Persistence} *)

val encode : Buffer.t -> mapping -> unit
(** Entries in oid order: equal mappings encode to equal bytes. *)

val decode : string -> int -> mapping * int

val root_value : Tep_store.Database.t -> Tep_store.Value.t
val table_value : string -> Tep_store.Value.t
val row_value : int -> Tep_store.Value.t
