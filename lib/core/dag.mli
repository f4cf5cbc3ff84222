(** Explicit provenance DAGs (Definition 1 / Figure 2).

    A provenance object is a set of records partially ordered by
    [seq_id]; the checksum back-links make the DAG explicit.  This
    module reconstructs that graph from a record list for querying
    and rendering. *)

type t

val build : Record.t list -> t
(** Nodes are indexed in [seq_id] order.  Predecessor edges follow
    [prev_checksums]; edges whose target checksum is not present in
    the list are recorded as {!dangling}. *)

val size : t -> int

val dangling : t -> (int * string) list
(** (node index, missing predecessor checksum) pairs — evidence of
    removed records. *)

val roots : t -> int list
(** Nodes with no predecessors (inserts / imports). *)

val is_linear : t -> bool
(** True when the DAG is a single chain — the Hasan et al. special
    case. *)

val records_of_participant : t -> string -> Record.t list

val depth : t -> int
(** Longest path length (1 for a single record).  @raise Failure on a
    cycle (which only a malformed/tampered provenance object can
    contain). *)

val to_dot : t -> string
(** Graphviz rendering (records as nodes, labelled with participant,
    kind, seq). *)
