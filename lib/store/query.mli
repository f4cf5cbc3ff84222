(** A small predicate/query layer over {!Table}: filtered scans and
    the aggregate functions the provenance engine's [Aggregate]
    operation uses. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | True
  | Cmp of string * cmp * Value.t  (** column-name comparison *)
  | IsNull of string
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

val select : Table.t -> pred -> (Table.row list, string) result
(** Rows matching the predicate, in row-id order. *)

val count : Table.t -> pred -> (int, string) result

(** {1 Aggregates} *)

type agg = Count | Sum of string | Avg of string | Min of string | Max of string

val aggregate : Table.t -> pred -> agg -> (Value.t, string) result
(** [Sum]/[Avg] require numeric columns; [Null] cells are skipped (SQL
    semantics).  Empty input yields [Int 0] for [Count], [Null]
    otherwise. *)

val aggregate_rows : Schema.t -> Table.row list -> agg -> (Value.t, string) result
(** {!aggregate} over an already-selected row list — the annotated
    evaluator reuses this so plain and provenance-carrying aggregation
    cannot drift apart. *)

val pp_pred : Format.formatter -> pred -> unit

(** {1 Predicate text syntax}

    [pred_of_string] is the inverse of {!pp_pred} and also accepts the
    unparenthesised infix form users type on the command line
    ([not] binds tightest, then [and], then [or], parentheses
    override):

    {v age >= 42 and (name = 'Alice' or name is not null) v}

    Values parse untyped: unquoted literals become [NULL], booleans,
    ints, floats, [0x…] blobs or text, in that order; quote a literal
    (['42']) to force text.  Run the result through {!coerce_pred} to
    retype literals against a table's schema. *)

val pred_of_string : string -> (pred, string) result
val pred_to_string : pred -> string

val coerce_pred : Schema.t -> pred -> pred
(** Retype comparison literals to their column's declared type where a
    faithful conversion exists (["5"] → [Int 5] for an int column,
    [Int 5] → [Float 5.] for a float column, anything → its
    {!Value.to_string} for a text column).  Literals that do not
    convert are left untouched. *)

val agg_to_string : agg -> string
(** ["count"], ["sum(col)"], … — inverse of {!agg_of_string}. *)

val agg_of_string : string -> (agg, string) result
