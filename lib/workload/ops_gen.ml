open Tep_store
open Tep_core

type primitive =
  | Update_cell of { table : string; row : int; col : int; value : Value.t }
  | Insert_row of { table : string; cells : Value.t array }
  | Delete_row of { table : string; row : int }

type complex_op = primitive list

let apply engine p op =
  match
    Engine.complex_op engine p (fun () ->
        let rec go = function
          | [] -> Ok ()
          | prim :: rest -> (
              let r =
                match prim with
                | Update_cell { table; row; col; value } ->
                    Engine.update_cell engine p ~table ~row ~col value
                | Insert_row { table; cells } -> (
                    match Engine.insert_row engine p ~table cells with
                    | Ok _ -> Ok ()
                    | Error e -> Error e)
                | Delete_row { table; row } ->
                    Engine.delete_row engine p ~table row
              in
              match r with Ok () -> go rest | Error e -> Error e)
        in
        go op)
  with
  | Ok ((), m) -> Ok m
  | Error e -> Error e

let setup_a_points =
  (1 :: List.init 10 (fun n -> 400 * (n + 1)))
  @ List.init 7 (fun n -> 4000 * (n + 2))

let live_rows db ~table =
  match Database.get_table db table with
  | None -> [||]
  | Some tbl -> Array.of_list (Table.row_ids tbl)

let arity db ~table =
  match Database.get_table db table with
  | None -> 0
  | Some tbl -> Schema.arity (Table.schema tbl)

let updates_spread drbg db ~table ~cells ~max_rows =
  let rows = live_rows db ~table in
  let nattr = arity db ~table in
  if Array.length rows = 0 || nattr = 0 then []
  else begin
    let nrows = min max_rows (Array.length rows) in
    List.init cells (fun i ->
        let row = rows.(i mod nrows) in
        let col =
          if cells <= nrows then Tep_crypto.Drbg.uniform_int drbg nattr
          else (i / nrows) mod nattr
        in
        Update_cell
          {
            table;
            row;
            col;
            value = Value.Int (Tep_crypto.Drbg.uniform_int drbg 1_000_000);
          })
  end

let all_deletes db ~table ~count =
  let rows = live_rows db ~table in
  let n = min count (Array.length rows) in
  List.init n (fun i -> Delete_row { table; row = rows.(i) })

let random_cells drbg n =
  Array.init n (fun _ -> Value.Int (Tep_crypto.Drbg.uniform_int drbg 1_000_000))

let all_inserts drbg db ~table ~count =
  let nattr = arity db ~table in
  List.init count (fun _ -> Insert_row { table; cells = random_cells drbg nattr })

let all_updates drbg db ~table ~cells ~rows =
  updates_spread drbg db ~table ~cells ~max_rows:rows

type mix = { deletes_pct : float; inserts_pct : float; updates_pct : float }

let paper_mixes =
  [
    { deletes_pct = 19.2; inserts_pct = 37.8; updates_pct = 43.0 };
    { deletes_pct = 36.6; inserts_pct = 30.4; updates_pct = 33.0 };
    { deletes_pct = 57.0; inserts_pct = 21.2; updates_pct = 21.8 };
    { deletes_pct = 78.2; inserts_pct = 9.8; updates_pct = 12.0 };
  ]

let mixed_ops drbg db ~table ~total mix =
  let nattr = arity db ~table in
  let live = ref (Array.to_list (live_rows db ~table)) in
  let n_del = int_of_float (float_of_int total *. mix.deletes_pct /. 100.) in
  let n_ins = int_of_float (float_of_int total *. mix.inserts_pct /. 100.) in
  let n_upd = total - n_del - n_ins in
  (* Interleave kinds deterministically from the drbg so deletes are
     spread through the operation. *)
  let kinds =
    Array.concat
      [
        Array.make n_del `Del; Array.make n_ins `Ins; Array.make n_upd `Upd;
      ]
  in
  (* Fisher-Yates with drbg. *)
  for i = Array.length kinds - 1 downto 1 do
    let j = Tep_crypto.Drbg.uniform_int drbg (i + 1) in
    let tmp = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- tmp
  done;
  let pick_live () =
    match !live with
    | [] -> None
    | l ->
        let n = List.length l in
        let i = Tep_crypto.Drbg.uniform_int drbg n in
        Some (List.nth l i)
  in
  Array.to_list kinds
  |> List.filter_map (fun kind ->
         match kind with
         | `Del -> (
             match pick_live () with
             | None -> None
             | Some row ->
                 live := List.filter (fun r -> r <> row) !live;
                 Some (Delete_row { table; row }))
         | `Ins -> Some (Insert_row { table; cells = random_cells drbg nattr })
         | `Upd -> (
             match pick_live () with
             | None -> None
             | Some row ->
                 Some
                   (Update_cell
                      {
                        table;
                        row;
                        col = Tep_crypto.Drbg.uniform_int drbg nattr;
                        value =
                          Value.Int (Tep_crypto.Drbg.uniform_int drbg 1_000_000);
                      })))
