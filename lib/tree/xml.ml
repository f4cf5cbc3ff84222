open Tep_store

type node =
  | Element of string * (string * string) list * node list
  | Text of string

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent over a small XML subset)                 *)
(* ------------------------------------------------------------------ *)

type parser_state = { src : string; mutable pos : int }

exception Parse_error of string

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let error p msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let skip_ws p =
  while
    match peek p with
    | Some (' ' | '\t' | '\n' | '\r') -> true
    | _ -> false
  do
    advance p
  done

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

let read_name p =
  let start = p.pos in
  while (match peek p with Some c when is_name_char c -> true | _ -> false) do
    advance p
  done;
  if p.pos = start then error p "expected a name";
  String.sub p.src start (p.pos - start)

let expect p c =
  match peek p with
  | Some x when x = c -> advance p
  | _ -> error p (Printf.sprintf "expected %c" c)

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '&' then begin
      let semi =
        match String.index_from_opt s !i ';' with
        | Some j when j - !i <= 6 -> j
        | _ -> raise (Parse_error "bad entity")
      in
      (match String.sub s (!i + 1) (semi - !i - 1) with
      | "amp" -> Buffer.add_char buf '&'
      | "lt" -> Buffer.add_char buf '<'
      | "gt" -> Buffer.add_char buf '>'
      | "quot" -> Buffer.add_char buf '"'
      | "apos" -> Buffer.add_char buf '\''
      | e -> raise (Parse_error ("unknown entity &" ^ e ^ ";")));
      i := semi + 1
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let read_attr_value p =
  let quote =
    match peek p with
    | Some ('"' as q) | Some ('\'' as q) ->
        advance p;
        q
    | _ -> error p "expected quoted attribute value"
  in
  let start = p.pos in
  while (match peek p with Some c when c <> quote -> true | _ -> false) do
    advance p
  done;
  let v = String.sub p.src start (p.pos - start) in
  expect p quote;
  unescape v

let rec read_element p =
  expect p '<';
  let name = read_name p in
  let rec read_attrs acc =
    skip_ws p;
    match peek p with
    | Some '>' ->
        advance p;
        (List.rev acc, `Open)
    | Some '/' ->
        advance p;
        expect p '>';
        (List.rev acc, `SelfClosed)
    | Some c when is_name_char c ->
        let attr = read_name p in
        skip_ws p;
        expect p '=';
        skip_ws p;
        let v = read_attr_value p in
        read_attrs ((attr, v) :: acc)
    | _ -> error p "malformed attribute list"
  in
  let attrs, style = read_attrs [] in
  match style with
  | `SelfClosed -> Element (name, attrs, [])
  | `Open ->
      let children = read_content p [] in
      (* closing tag *)
      let close = read_name p in
      if close <> name then
        error p (Printf.sprintf "mismatched </%s> for <%s>" close name);
      skip_ws p;
      expect p '>';
      Element (name, attrs, children)

and read_content p acc =
  (* read until </ *)
  match peek p with
  | None -> error p "unexpected end of input"
  | Some '<' ->
      if p.pos + 1 < String.length p.src && p.src.[p.pos + 1] = '/' then begin
        advance p;
        advance p;
        List.rev acc
      end
      else read_content p (read_element p :: acc)
  | Some _ ->
      let start = p.pos in
      while (match peek p with Some c when c <> '<' -> true | _ -> false) do
        advance p
      done;
      let raw = String.sub p.src start (p.pos - start) in
      let text = unescape raw in
      if String.trim text = "" then read_content p acc
      else read_content p (Text (String.trim text) :: acc)

let parse s =
  let p = { src = s; pos = 0 } in
  try
    skip_ws p;
    (* optional declaration *)
    if
      p.pos + 1 < String.length s
      && s.[p.pos] = '<'
      && s.[p.pos + 1] = '?'
    then begin
      match String.index_from_opt s p.pos '>' with
      | Some j -> p.pos <- j + 1
      | None -> error p "unterminated declaration"
    end;
    skip_ws p;
    let doc = read_element p in
    skip_ws p;
    if p.pos <> String.length s then error p "trailing content";
    Ok doc
  with Parse_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string ?(indent = false) node =
  let buf = Buffer.create 256 in
  let rec go depth node =
    let pad = if indent then String.make (depth * 2) ' ' else "" in
    let nl = if indent then "\n" else "" in
    match node with
    | Text t -> Buffer.add_string buf (pad ^ escape t ^ nl)
    | Element (name, attrs, children) ->
        let attrs_s =
          String.concat ""
            (List.map (fun (k, v) -> Printf.sprintf " %s=\"%s\"" k (escape v)) attrs)
        in
        if children = [] then
          Buffer.add_string buf (Printf.sprintf "%s<%s%s/>%s" pad name attrs_s nl)
        else begin
          Buffer.add_string buf (Printf.sprintf "%s<%s%s>%s" pad name attrs_s nl);
          List.iter (go (depth + 1)) children;
          Buffer.add_string buf (Printf.sprintf "%s</%s>%s" pad name nl)
        end
  in
  go 0 node;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Forest mapping                                                      *)
(* ------------------------------------------------------------------ *)

let element_value name = Value.Text ("<" ^ name ^ ">")
let attribute_value k v = Value.Text (Printf.sprintf "@%s=%s" k v)
let text_value t = Value.Text t

let rec to_forest forest ?parent node =
  match node with
  | Text t -> Forest.insert ?parent forest (text_value t)
  | Element (name, attrs, children) -> (
      match Forest.insert ?parent forest (element_value name) with
      | Error e -> Error e
      | Ok oid ->
          let rec add_all = function
            | [] -> Ok oid
            | `Attr (k, v) :: rest -> (
                match Forest.insert ~parent:oid forest (attribute_value k v) with
                | Ok _ -> add_all rest
                | Error e -> Error e)
            | `Child c :: rest -> (
                match to_forest forest ~parent:oid c with
                | Ok _ -> add_all rest
                | Error e -> Error e)
          in
          add_all
            (List.map (fun (k, v) -> `Attr (k, v)) attrs
            @ List.map (fun c -> `Child c) children))

let classify_value v =
  match v with
  | Value.Text s when String.length s >= 2 && s.[0] = '<' && s.[String.length s - 1] = '>'
    ->
      `Element (String.sub s 1 (String.length s - 2))
  | Value.Text s when String.length s >= 1 && s.[0] = '@' -> (
      match String.index_opt s '=' with
      | Some i ->
          `Attr (String.sub s 1 (i - 1), String.sub s (i + 1) (String.length s - i - 1))
      | None -> `Bad)
  | Value.Text s -> `Text s
  | _ -> `Bad

let rec node_of_subtree (t : Subtree.t) =
  match classify_value t.Subtree.value with
  | `Text s ->
      if t.Subtree.children <> [] then Error "text node with children"
      else Ok (Text s)
  | `Attr _ -> Error "attribute outside an element"
  | `Bad -> Error "not an XML-mapped subtree"
  | `Element name ->
      let rec split attrs children = function
        | [] -> Ok (List.rev attrs, List.rev children)
        | (c : Subtree.t) :: rest -> (
            match classify_value c.Subtree.value with
            | `Attr (k, v) ->
                if c.Subtree.children <> [] then Error "attribute with children"
                else split ((k, v) :: attrs) children rest
            | _ -> (
                match node_of_subtree c with
                | Ok n -> split attrs (n :: children) rest
                | Error e -> Error e))
      in
      (match split [] [] t.Subtree.children with
      | Ok (attrs, children) -> Ok (Element (name, attrs, children))
      | Error e -> Error e)

let of_forest forest oid =
  match Forest.subtree forest oid with
  | Error e -> Error e
  | Ok t -> node_of_subtree t
