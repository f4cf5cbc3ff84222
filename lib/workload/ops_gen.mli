(** Synthetic complex operations — Table 2 of the paper.

    Setup A: pure-update operations with growing update counts
    (Figure 7).  Setup B: all-deletes / all-inserts / all-updates
    (Figures 8–9).  Setup C: 500-op mixes with varying delete
    percentages (Figures 10–11). *)

open Tep_store
open Tep_core

type primitive =
  | Update_cell of { table : string; row : int; col : int; value : Value.t }
  | Insert_row of { table : string; cells : Value.t array }
  | Delete_row of { table : string; row : int }

type complex_op = primitive list
(** One complex operation = primitives executed in one provenance
    batch (Section 4.4). *)

val apply :
  Engine.t -> Participant.t -> complex_op -> (Engine.metrics, string) result
(** Run one complex operation through the engine. *)

(** {1 Setup A (Figure 7)} *)

val setup_a_points : int list
(** Cell-update counts: 1, 400..4000 step 400, 8000..32000 step 4000 —
    the x-axis of Figure 7. *)

val updates_spread :
  Tep_crypto.Drbg.t ->
  Database.t ->
  table:string ->
  cells:int ->
  max_rows:int ->
  complex_op
(** One complex op of [cells] single-cell updates spread over at most
    [max_rows] distinct rows (Setup A updates [400n] cells in [400n]
    rows, then [4000n] cells in 4000 rows). *)

(** {1 Setup B (Figures 8–9)} *)

val all_deletes : Database.t -> table:string -> count:int -> complex_op
val all_inserts : Tep_crypto.Drbg.t -> Database.t -> table:string -> count:int -> complex_op

val all_updates :
  Tep_crypto.Drbg.t ->
  Database.t ->
  table:string ->
  cells:int ->
  rows:int ->
  complex_op

(** {1 Setup C (Figures 10–11)} *)

type mix = { deletes_pct : float; inserts_pct : float; updates_pct : float }

val paper_mixes : mix list
(** The four mixes of Table 2 Setup C: 19.2/37.8/43, 36.6/30.4/33,
    57/21.2/21.8, 78.2/9.8/12 (% deletes/inserts/updates). *)

val mixed_ops :
  Tep_crypto.Drbg.t ->
  Database.t ->
  table:string ->
  total:int ->
  mix ->
  complex_op
(** [total] primitives drawn per the mix, targeting random live rows
    (deletes and updates pick rows that previous primitives in the op
    have not deleted). *)
