type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | True
  | Cmp of string * cmp * Value.t
  | IsNull of string
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

let cmp_ok op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let rec matches schema pred (row : Table.row) =
  match pred with
  | True -> Ok true
  | Cmp (col, op, v) -> (
      match Schema.column_index schema col with
      | None -> Error (Printf.sprintf "unknown column %s" col)
      | Some i ->
          let cell = row.Table.cells.(i) in
          if cell = Value.Null then Ok false (* SQL: NULL compares unknown *)
          else Ok (cmp_ok op (Value.compare cell v)))
  | IsNull col -> (
      match Schema.column_index schema col with
      | None -> Error (Printf.sprintf "unknown column %s" col)
      | Some i -> Ok (row.Table.cells.(i) = Value.Null))
  | And (a, b) -> (
      match matches schema a row with
      | Ok true -> matches schema b row
      | r -> r)
  | Or (a, b) -> (
      match matches schema a row with
      | Ok false -> matches schema b row
      | r -> r)
  | Not a -> (
      match matches schema a row with Ok b -> Ok (not b) | Error e -> Error e)

let scan table pred f =
  let schema = Table.schema table in
  let err = ref None in
  Table.iter
    (fun row ->
      if !err = None then
        match matches schema pred row with
        | Ok true -> f row
        | Ok false -> ()
        | Error e -> err := Some e)
    table;
  match !err with None -> Ok () | Some e -> Error e

let select table pred =
  let acc = ref [] in
  match scan table pred (fun r -> acc := r :: !acc) with
  | Ok () -> Ok (List.rev !acc)
  | Error e -> Error e

let count table pred =
  let n = ref 0 in
  match scan table pred (fun _ -> incr n) with
  | Ok () -> Ok !n
  | Error e -> Error e

type agg = Count | Sum of string | Avg of string | Min of string | Max of string

let numeric v =
  match v with
  | Value.Int i -> Some (float_of_int i)
  | Value.Float f -> Some f
  | _ -> None

let aggregate_rows schema rows agg =
  let col_values col =
        match Schema.column_index schema col with
        | None -> Error (Printf.sprintf "unknown column %s" col)
        | Some i ->
            Ok
              (List.filter_map
                 (fun r ->
                   let v = r.Table.cells.(i) in
                   if v = Value.Null then None else Some v)
                 rows)
      in
      match agg with
      | Count -> Ok (Value.Int (List.length rows))
      | Sum col -> (
          match col_values col with
          | Error e -> Error e
          | Ok [] -> Ok Value.Null
          | Ok vs -> (
              match List.map numeric vs with
              | nums when List.for_all Option.is_some nums ->
                  let total =
                    List.fold_left (fun a n -> a +. Option.get n) 0. nums
                  in
                  (* Preserve int-ness when all inputs are ints. *)
                  if List.for_all (function Value.Int _ -> true | _ -> false) vs
                  then Ok (Value.Int (int_of_float total))
                  else Ok (Value.Float total)
              | _ -> Error (Printf.sprintf "column %s is not numeric" col)))
      | Avg col -> (
          match col_values col with
          | Error e -> Error e
          | Ok [] -> Ok Value.Null
          | Ok vs -> (
              match List.map numeric vs with
              | nums when List.for_all Option.is_some nums ->
                  let total =
                    List.fold_left (fun a n -> a +. Option.get n) 0. nums
                  in
                  Ok (Value.Float (total /. float_of_int (List.length vs)))
              | _ -> Error (Printf.sprintf "column %s is not numeric" col)))
      | Min col -> (
          match col_values col with
          | Error e -> Error e
          | Ok [] -> Ok Value.Null
          | Ok (v :: vs) ->
              Ok (List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v vs))
      | Max col -> (
          match col_values col with
          | Error e -> Error e
          | Ok [] -> Ok Value.Null
          | Ok (v :: vs) ->
              Ok (List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v vs))

let aggregate table pred agg =
  match select table pred with
  | Error e -> Error e
  | Ok rows -> aggregate_rows (Table.schema table) rows agg

let cmp_name = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp_pred fmt = function
  | True -> Format.pp_print_string fmt "true"
  | Cmp (c, op, v) -> Format.fprintf fmt "%s %s %a" c (cmp_name op) Value.pp v
  | IsNull c -> Format.fprintf fmt "%s is null" c
  | And (a, b) -> Format.fprintf fmt "(%a and %a)" pp_pred a pp_pred b
  | Or (a, b) -> Format.fprintf fmt "(%a or %a)" pp_pred a pp_pred b
  | Not a -> Format.fprintf fmt "not %a" pp_pred a

let pred_to_string p = Format.asprintf "%a" pp_pred p

(* ------------------------------------------------------------------ *)
(* Parsing: the inverse of [pp_pred], plus the unparenthesised         *)
(* conjunction syntax users type on the command line.                  *)
(* ------------------------------------------------------------------ *)

let cmp_of_name = function
  | "=" -> Some Eq
  | "<>" | "!=" -> Some Ne
  | "<" -> Some Lt
  | "<=" -> Some Le
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | _ -> None

type token = Word of string | Quoted of string | Lparen | Rparen

exception Parse_error of string

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Word (Buffer.contents buf) :: !toks;
      Buffer.clear buf
    end
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | ' ' | '\t' | '\n' | '\r' -> flush ()
    | '(' ->
        flush ();
        toks := Lparen :: !toks
    | ')' ->
        flush ();
        toks := Rparen :: !toks
    | ('\'' | '"') as q ->
        flush ();
        let j = ref (!i + 1) in
        while !j < n && s.[!j] <> q do
          incr j
        done;
        if !j >= n then raise (Parse_error "unterminated quote");
        toks := Quoted (String.sub s (!i + 1) (!j - !i - 1)) :: !toks;
        i := !j
    | c -> Buffer.add_char buf c);
    incr i
  done;
  flush ();
  List.rev !toks

let keyword = function
  | Word w -> Some (String.lowercase_ascii w)
  | _ -> None

let value_of_word w =
  if w = "NULL" || String.lowercase_ascii w = "null" then Value.Null
  else
    match w with
    | "true" -> Value.Bool true
    | "false" -> Value.Bool false
    | _ -> (
        match int_of_string_opt w with
        | Some i -> Value.Int i
        | None -> (
            match float_of_string_opt w with
            | Some f -> Value.Float f
            | None ->
                if
                  String.length w > 2
                  && String.sub w 0 2 = "0x"
                then
                  try
                    Value.Blob
                      (Tep_crypto.Digest_algo.of_hex
                         (String.sub w 2 (String.length w - 2)))
                  with Invalid_argument _ -> Value.Text w
                else Value.Text w))

(* A value runs to the next token the predicate grammar owns. *)
let rec take_value acc toks =
  match toks with
  | [] | Rparen :: _ -> (List.rev acc, toks)
  | t :: _ when keyword t = Some "and" || keyword t = Some "or" ->
      (List.rev acc, toks)
  | t :: rest -> take_value (t :: acc) rest

let parse_value toks =
  match take_value [] toks with
  | [], _ -> raise (Parse_error "expected a value")
  | [ Quoted s ], rest -> (Value.Text s, rest)
  | words, rest ->
      let text =
        String.concat " "
          (List.map
             (function
               | Word w -> w
               | Quoted s -> s
               | Lparen -> "("
               | Rparen -> ")")
             words)
      in
      ((match words with [ Word w ] -> value_of_word w | _ -> Value.Text text),
       rest)

let rec parse_or toks =
  let left, toks = parse_and toks in
  match toks with
  | t :: rest when keyword t = Some "or" ->
      let right, toks = parse_or rest in
      (Or (left, right), toks)
  | _ -> (left, toks)

and parse_and toks =
  let left, toks = parse_unary toks in
  match toks with
  | t :: rest when keyword t = Some "and" ->
      let right, toks = parse_and rest in
      (And (left, right), toks)
  | _ -> (left, toks)

and parse_unary toks =
  match toks with
  | t :: rest when keyword t = Some "not" ->
      let p, toks = parse_unary rest in
      (Not p, toks)
  | Lparen :: rest -> (
      let p, toks = parse_or rest in
      match toks with
      | Rparen :: rest -> (p, rest)
      | _ -> raise (Parse_error "expected )"))
  | Word "true" :: ((([] | Rparen :: _) as rest)) -> (True, rest)
  | Word "true" :: (t :: _ as rest)
    when keyword t = Some "and" || keyword t = Some "or" ->
      (True, rest)
  | Word col :: rest -> (
      match rest with
      | t :: rest' when keyword t = Some "is" -> (
          match rest' with
          | u :: rest'' when keyword u = Some "null" -> (IsNull col, rest'')
          | u :: v :: rest''
            when keyword u = Some "not" && keyword v = Some "null" ->
              (Not (IsNull col), rest'')
          | _ -> raise (Parse_error "expected null after is"))
      | Word op :: rest' when cmp_of_name op <> None ->
          let v, toks = parse_value rest' in
          (Cmp (col, Option.get (cmp_of_name op), v), toks)
      | _ ->
          raise
            (Parse_error
               (Printf.sprintf "expected comparison after column %s" col)))
  | _ -> raise (Parse_error "expected a predicate")

let pred_of_string s =
  match
    let toks = tokenize s in
    if toks = [] then Ok True
    else
      let p, rest = parse_or toks in
      if rest = [] then Ok p else Error "trailing input after predicate"
  with
  | r -> r
  | exception Parse_error e -> Error ("predicate: " ^ e)

(* Predicate literals parse untyped ("5" is an [Int] even when the
   column holds floats); retype them against the schema so comparisons
   land in the column's domain.  Unconvertible literals are left
   alone — [matches] then compares across types, which is simply
   never-equal. *)
let coerce_value ty (v : Value.t) =
  match (ty, v) with
  | _, Value.Null -> v
  | Value.TInt, Value.Float f when Float.is_integer f ->
      Value.Int (int_of_float f)
  | Value.TInt, Value.Text s -> (
      match int_of_string_opt s with Some i -> Value.Int i | None -> v)
  | Value.TFloat, Value.Int i -> Value.Float (float_of_int i)
  | Value.TFloat, Value.Text s -> (
      match float_of_string_opt s with Some f -> Value.Float f | None -> v)
  | Value.TBool, Value.Text s -> (
      match bool_of_string_opt s with Some b -> Value.Bool b | None -> v)
  | Value.TText, (Value.Bool _ | Value.Int _ | Value.Float _ | Value.Blob _) ->
      Value.Text (Value.to_string v)
  | Value.TBlob, Value.Text s
    when String.length s > 2 && String.sub s 0 2 = "0x" -> (
      try Value.Blob (Tep_crypto.Digest_algo.of_hex (String.sub s 2 (String.length s - 2)))
      with Invalid_argument _ -> v)
  | _ -> v

let rec coerce_pred schema p =
  match p with
  | True | IsNull _ -> p
  | Cmp (col, op, v) -> (
      match Schema.column_index schema col with
      | Some i -> Cmp (col, op, coerce_value (Schema.column_at schema i).Schema.ty v)
      | None -> p)
  | And (a, b) -> And (coerce_pred schema a, coerce_pred schema b)
  | Or (a, b) -> Or (coerce_pred schema a, coerce_pred schema b)
  | Not a -> Not (coerce_pred schema a)

(* ------------------------------------------------------------------ *)
(* Aggregate names                                                     *)
(* ------------------------------------------------------------------ *)

let agg_to_string = function
  | Count -> "count(*)"
  | Sum c -> Printf.sprintf "sum(%s)" c
  | Avg c -> Printf.sprintf "avg(%s)" c
  | Min c -> Printf.sprintf "min(%s)" c
  | Max c -> Printf.sprintf "max(%s)" c

let agg_of_string s =
  let s = String.trim s in
  let lower = String.lowercase_ascii s in
  if lower = "count" || lower = "count(*)" then Ok Count
  else
    match (String.index_opt s '(', String.rindex_opt s ')') with
    | Some l, Some r when r = String.length s - 1 && l < r ->
        let f = String.lowercase_ascii (String.sub s 0 l) in
        let col = String.trim (String.sub s (l + 1) (r - l - 1)) in
        if col = "" then Error "aggregate: empty column"
        else (
          match f with
          | "sum" -> Ok (Sum col)
          | "avg" -> Ok (Avg col)
          | "min" -> Ok (Min col)
          | "max" -> Ok (Max col)
          | "count" -> Ok Count
          | _ -> Error (Printf.sprintf "aggregate: unknown function %s" f))
    | _ ->
        Error
          (Printf.sprintf
             "aggregate: expected count, sum(col), avg(col), min(col) or \
              max(col), got %s"
             s)
