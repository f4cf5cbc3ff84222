(** Synthetic back-end databases — Table 1 of the paper.

    Table 1(a): four all-integer tables
      (8 attrs × 4000 rows), (9 × 3000), (10 × 2000), (5 × 5000).
    Table 1(b): cumulative databases with node counts
      36002 / 66000 / 88004 / 118006 (1 root + per-table 1 + rows +
    cells). *)

open Tep_store

type table_spec = { name : string; attrs : int; rows : int }

val paper_tables : table_spec list
(** The four specs of Table 1(a), named ["t1".."t4"]. *)

val paper_node_counts : int list
(** [36002; 66003; 88004; 118005].  Table 1(b) of the paper prints
    36002 / 66000 / 88004 / 118006, but those four values are
    mutually inconsistent: with the Table 1(a) specs, every counting
    rule that yields 36002 and 88004 (1 root + per table: 1 + rows x
    (1 + attrs)) necessarily yields 66003 and 118005 for the other
    two.  We use the consistent rule; the two paper values that
    disagree (off by 3 and 1) are evidently typos.  See
    EXPERIMENTS.md. *)

val scale : float -> table_spec -> table_spec
(** Scale a spec's row count (for reduced-scale benching). *)

val build_database :
  ?name:string -> seed:string -> table_spec list -> Database.t
(** Deterministic synthetic database from a seed. *)

val paper_database : ?scale_factor:float -> int -> Database.t
(** [paper_database n] is the database made of the first [n] paper
    tables (n in 1..4), matching a row of Table 1(b).  With
    [scale_factor] < 1 the row counts shrink proportionally. *)

val build_title_database : rows:int -> Database.t
(** The "Title" table of the large-database experiment: DocumentID an
    int column, Title a text column; the paper used 18,962,041 rows. *)
