(* Seeded workload inputs.  Everything the daemon receives is drawn
   here from the run's seed before any request is sent, so the same
   seed gives the same op streams whatever the timing. *)

module Message = Tep_wire.Message
module Value = Tep_store.Value

let columns = 5

let rng ~seed ~stream ~part = Random.State.make [| seed; Hashtbl.hash stream; part |]

let cell_value st = Value.Int (Random.State.int st 1_000_000)
let row_values st = Array.init columns (fun _ -> cell_value st)

(* The paper's Setup C, mix 1: 19.2 % delete, 37.8 % insert, 43 % cell
   update, in per-mille thresholds. *)
let delete_below = 192
let insert_below = 192 + 378

(* A stream of writes over [tables].  Deletes and updates only target
   the preloaded rows in [rows] (this connection's partition, per
   table), so no op depends on the row id another connection's insert
   received.  Rows in [pinned] are updated but never deleted: readers
   prove their cells while the writes run. *)
let writes st ~tables ~rows ~pinned n =
  let alive = Array.map (fun r -> ref (Array.copy r)) rows in
  let live_count = Array.map (fun r -> ref (Array.length r)) rows in
  let pick_table () = Random.State.int st (Array.length tables) in
  let update k =
    let nrows = !(live_count.(k)) + Array.length pinned.(k) in
    if nrows = 0 then Message.Op_insert { table = tables.(k); cells = row_values st }
    else
      let i = Random.State.int st nrows in
      let row =
        if i < !(live_count.(k)) then !(alive.(k)).(i) else pinned.(k).(i - !(live_count.(k)))
      in
      Message.Op_update
        { table = tables.(k); row; col = Random.State.int st columns; value = cell_value st }
  in
  Array.init n (fun _ ->
      let k = pick_table () in
      let u = Random.State.int st 1000 in
      if u < delete_below && !(live_count.(k)) > 0 then begin
        let i = Random.State.int st !(live_count.(k)) in
        let a = !(alive.(k)) in
        let row = a.(i) in
        a.(i) <- a.(!(live_count.(k)) - 1);
        decr live_count.(k);
        Message.Op_delete { table = tables.(k); row }
      end
      else if u < insert_below then Message.Op_insert { table = tables.(k); cells = row_values st }
      else update k)

type read =
  | Prove of { table : string; row : int; col : int }
  | Lineage of int (* row id; its oid comes from the base's tree view *)

(* [n] reads over a [rows] x [columns] table: 90 % cell proofs drawn
   uniformly, 10 % why-lineage of a uniformly drawn row. *)
let reads st ~table ~rows n =
  Array.init n (fun _ ->
      let row = Random.State.int st rows in
      if Random.State.int st 10 = 0 then Lineage row
      else Prove { table; row; col = Random.State.int st columns })

(* [per_table] distinct rows of each table, one random column each:
   the hot cells the mixed workload's reader keeps proving. *)
let hot_cells st ~tables ~rows ~per_table =
  Array.map
    (fun table ->
      let chosen = Hashtbl.create per_table in
      let rec draw acc k =
        if k = 0 then List.rev acc
        else
          let row = Random.State.int st rows in
          if Hashtbl.mem chosen row then draw acc k
          else begin
            Hashtbl.replace chosen row ();
            draw ((table, row, Random.State.int st columns) :: acc) (k - 1)
          end
      in
      draw [] per_table)
    tables
  |> Array.to_list |> List.concat |> Array.of_list

let audit_seeds ~seed n = Array.init n (fun i -> Printf.sprintf "provbench-%d-%d" seed (i + 1))

(* ------------------------------------------------------------------ *)
(* Bases and per-workload streams                                      *)
(* ------------------------------------------------------------------ *)

(* Base sizes.  The smoke test shrinks them; every run reads them
   through these cells. *)
let b1_rows = ref 2000
let b1_updates = ref 2000
let b4_rows = ref 250
let hot_per_table = 16

(* The first table names t0, t1, ... that the stable routing hash
   sends to each of the 4 shards: one table per shard. *)
let b4_tables =
  lazy
    (let chosen = Array.make 4 None in
     let i = ref 0 in
     while Array.exists Option.is_none chosen do
       let name = Printf.sprintf "t%d" !i in
       let k = Tep_core.Shards.shard_of_table ~shards:4 name in
       if chosen.(k) = None then chosen.(k) <- Some name;
       incr i
     done;
     Array.map Option.get chosen)

type streams =
  | Ingest of Message.op array array (* one stream per connection *)
  | Verify_read of read array array (* one stream per connection *)
  | Mixed of {
      writes : Message.op array;
      hot : (string * int * int) array;
      picks : Random.State.t; (* the reader's draws over [hot] *)
    }
  | Audit of string array (* sweep seeds *)

(* The streams of workload [name] with [ops] operations, from [seed]
   alone.  The untraced run and the traced replay both call this, so
   they see the same inputs. *)
let streams ~name ~seed ~ops =
  match name with
  | "ingest" ->
      Ingest
        (Array.init 2 (fun k ->
             let rows = Array.of_list (List.filter (fun r -> r mod 2 = k) (List.init !b1_rows Fun.id)) in
             writes (rng ~seed ~stream:name ~part:k) ~tables:[| "t" |] ~rows:[| rows |]
               ~pinned:[| [||] |] (ops / 2)))
  | "verify_read" ->
      Verify_read
        (Array.init 2 (fun k -> reads (rng ~seed ~stream:name ~part:k) ~table:"t" ~rows:!b1_rows (ops / 2)))
  | "mixed_sharded" ->
      let tables = Lazy.force b4_tables in
      let st = rng ~seed ~stream:name ~part:0 in
      let hot = hot_cells st ~tables ~rows:!b4_rows ~per_table:(min hot_per_table !b4_rows) in
      let pinned =
        Array.map
          (fun t ->
            Array.of_list
              (List.filter_map (fun (t', r, _) -> if t' = t then Some r else None) (Array.to_list hot)))
          tables
      in
      let rows =
        Array.map
          (fun p -> Array.of_list (List.filter (fun r -> not (Array.mem r p)) (List.init !b4_rows Fun.id)))
          pinned
      in
      Mixed { writes = writes st ~tables ~rows ~pinned ops; hot; picks = rng ~seed ~stream:name ~part:1 }
  | _ -> Audit (audit_seeds ~seed ops)
