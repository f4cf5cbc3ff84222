(** Annotation-carrying query evaluation.

    The same plans {!Tep_store.Query} runs — select, count, the
    aggregate functions — evaluated so every result additionally
    carries a provenance polynomial over row variables: each matching
    row contributes its variable, a count sums them (each row is an
    alternative derivation of the tally), and a value aggregate
    multiplies them (the result uses all its inputs jointly).

    Row variables default to table row ids; inside an engine pass
    {!row_var} so variables are forest oids and lineage queries can
    chase them through the provenance DAG.

    Result rows are exactly what the plain evaluator returns — the
    annotated path reuses {!Tep_store.Query.aggregate_rows} and the
    plain scan, so the two cannot disagree on values, only add
    polynomials. *)

open Tep_store

(** {1 Predicate pruning}

    Niu/Glavic-style static pruning: branches that cannot contribute
    are rewritten away before the scan, and a contradictory predicate
    skips the scan (and all annotation work) entirely. *)

val simplify : Query.pred -> Query.pred
(** Constant-fold [and]/[or]/[not] and collapse contradictory
    conjunctions (two different equalities on one column, an equality
    its sibling comparison rejects, [is null] alongside any comparison
    on the same column — SQL comparisons never match [NULL]).  An
    unsatisfiable predicate simplifies to [Not True].

    Best-effort and sound for well-formed predicates: a pruned branch
    can only have matched nothing.  (Unknown-column errors inside a
    branch pruned by contradiction are elided — the scan that would
    have reported them never runs.) *)

val never_matches : Query.pred -> bool
(** [simplify p = Not True]: no row can satisfy [p]. *)

val pruned_scans : unit -> int
(** How many scans pruning skipped outright since start (or the last
    {!reset_pruned_scans}) — observability for tests and the bench. *)

val reset_pruned_scans : unit -> unit

(** {1 Annotated evaluation} *)

val row_var : Tep_tree.Tree_view.mapping -> string -> Table.row -> int
(** The forest row oid of a row of the named table, falling back to
    the table-local row id when the mapping has no entry (tables not
    under provenance tracking). *)

val select :
  ?var:(Table.row -> Polynomial.t) ->
  Table.t ->
  Query.pred ->
  ((Table.row * Polynomial.t) list, string) result
(** Matching rows in row-id order, each annotated with [var row]
    (default: the polynomial variable of the row's table-local id). *)

val count :
  ?var:(Table.row -> Polynomial.t) ->
  Table.t ->
  Query.pred ->
  (int * Polynomial.t, string) result
(** The count and the sum of the matching rows' annotations. *)

val aggregate :
  ?var:(Table.row -> Polynomial.t) ->
  Table.t ->
  Query.pred ->
  Query.agg ->
  (Value.t * Polynomial.t, string) result
(** The aggregate value and its annotation: the sum of row annotations
    for [Count], their product for the value aggregates. *)

(** {1 The annotated query}

    What the service and [provdb lineage select] both evaluate. *)

type query_error = Parse of string | Eval of string

type answer = {
  q_pred : Query.pred;  (** [where], coerced to the table's schema *)
  q_rows : (Table.row * int * Polynomial.t) list;  (** row, variable, annotation *)
  q_value : Value.t option;  (** the aggregate, when asked for *)
}

val query :
  var:(Table.row -> int) ->
  Table.t ->
  where:string ->
  agg:string option ->
  (answer, query_error) result
(** Parse and coerce [where], {!select} with variables [var] (pass
    {!row_var}), then parse and apply [agg].  A malformed [where] or
    unknown aggregate is [Parse]; a failed evaluation is [Eval]. *)
