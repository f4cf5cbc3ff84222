open Tep_store

type children = Merkle.children =
  | Flat of (Oid.t * string) list
  | Chunked of { count : int; chunks : (Oid.t * string) list list }

type step = { node_oid : Oid.t; node_value : Value.t; children : children }

type t = { leaf_oid : Oid.t; leaf_value : Value.t; path : step list }

let ( let* ) = Result.bind

let prove cache forest oid =
  match Forest.info forest oid with
  | None -> Error (Printf.sprintf "no object %s" (Oid.to_string oid))
  | Some info when info.Forest.children <> [] ->
      Error
        (Printf.sprintf "%s is not atomic; deliver its subtree instead"
           (Oid.to_string oid))
  | Some info ->
      let rec steps child = function
        | [] -> Ok []
        | parent :: rest -> (
            match Forest.info forest parent with
            | None -> Error "Proof.prove: broken parent link"
            | Some p ->
                let* children = Merkle.children_proof cache parent ~child in
                let* tl = steps parent rest in
                Ok
                  ({ node_oid = parent; node_value = p.Forest.value; children }
                  :: tl))
      in
      let* path = steps oid (Forest.ancestors forest oid) in
      Ok { leaf_oid = oid; leaf_value = info.Forest.value; path }

let root_oid t =
  match List.rev t.path with
  | [] -> t.leaf_oid
  | last :: _ -> last.node_oid

(* ---- verification ---- *)

let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> assert false

(* Entries must be strictly oid-sorted (canonical form, no duplicate
   games) and carry hashes of the algorithm's width (keeps the frames
   injective). *)
let check_entries ~width entries =
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> Oid.compare a b < 0 && sorted rest
    | _ -> true
  in
  if not (sorted entries) then Error "proof: unsorted children"
  else if List.exists (fun (_, h) -> String.length h <> width) entries then
    Error "proof: hash of the wrong width"
  else Ok ()

let member ~parent (oid, h) entries =
  match List.assoc_opt oid entries with
  | None ->
      Error
        (Printf.sprintf "proof: %s is not a child of %s" (Oid.to_string oid)
           (Oid.to_string parent))
  | Some listed ->
      if String.equal listed h then Ok () else Error "proof: child hash mismatch"

(* The boundary rule of a level-[level] chunk: only its last entry
   closes (or is the node's last child), and above level 0 every key
   is the last key of a chunk on each level below. *)
let check_boundaries ~level ~last_key entries =
  let final k = Oid.equal k last_key in
  let rec below k j = j >= level || (Merkle.closes ~level:j k && below k (j + 1)) in
  let rec inner = function
    | [] -> Ok ()
    | [ (k, _) ] ->
        if Merkle.closes ~level k || final k then Ok ()
        else Error "proof: chunk ends off a boundary"
    | (k, _) :: rest ->
        if Merkle.closes ~level k then Error "proof: boundary inside a chunk"
        else inner rest
  in
  if List.exists (fun (k, _) -> not (final k || below k 0)) entries then
    Error "proof: entry is not a chunk key of the level below"
  else inner entries

(* Climb a wide node's chunk path from [cur] (the child) to the top
   chunk's digest. *)
let climb_chunks algo ~width ~parent ~count chunks cur =
  let nlevels = List.length chunks in
  if count <= Merkle.wide_threshold then
    Error "proof: chunked step for a narrow node"
  else if nlevels = 0 || nlevels > Merkle.max_levels then
    Error "proof: bad chunk depth"
  else if List.exists (fun e -> e = [] || List.length e > count) chunks then
    Error "proof: bad chunk size"
  else
    let last_key = fst (last (last chunks)) in
    let rec go level cur = function
      | [] -> Ok (snd cur)
      | entries :: rest ->
          let* () = check_entries ~width entries in
          let* () = member ~parent cur entries in
          let* () = check_boundaries ~level ~last_key entries in
          let top = rest = [] in
          if top && level = 0 && List.length entries <> count then
            Error "proof: single chunk does not hold every child"
          else if top && level > 0 && List.length entries < 2 then
            Error "proof: top chunk with a single entry"
          else
            go (level + 1)
              (fst (last entries), Merkle.chunk_digest algo ~level entries)
              rest
    in
    go 0 cur chunks

let verify algo ~root_hash t =
  (* Leaf hash: atomic node, no children. *)
  let leaf_hash = Merkle.node_hash algo t.leaf_oid t.leaf_value [] in
  let width = String.length leaf_hash in
  let rec climb ((_, current_hash) as cur) = function
    | [] ->
        if String.equal current_hash root_hash then Ok ()
        else Error "proof: root hash mismatch"
    | step :: rest ->
        let parent = step.node_oid in
        let* h =
          match step.children with
          | Flat entries ->
              if List.length entries > Merkle.wide_threshold then
                Error "proof: flat step for a wide node"
              else
                let* () = member ~parent cur entries in
                let* () = check_entries ~width entries in
                Ok (Merkle.node_hash algo parent step.node_value entries)
          | Chunked { count; chunks } ->
              let* top = climb_chunks algo ~width ~parent ~count chunks cur in
              Ok (Merkle.wide_digest algo parent step.node_value ~count top)
        in
        climb (parent, h) rest
  in
  climb (t.leaf_oid, leaf_hash) t.path

(* ---- encoding ----

   'Q' | varint leaf oid | leaf value | varint steps | step*
   step = varint oid | value | varint k | body
   body = k × entry                         when k <= 32 (flat)
        | varint levels | (varint m | m × entry) per level  otherwise
   entry = varint oid | string hash

   The child count decides the body's shape, so no step tag is
   needed.  'P' was the magic of the flat-only format. *)

let magic = 'Q'

let add_entries buf entries =
  List.iter
    (fun (o, h) ->
      Value.add_varint buf (Oid.to_int o);
      Value.add_string buf h)
    entries

let encode buf t =
  Buffer.add_char buf magic;
  Value.add_varint buf (Oid.to_int t.leaf_oid);
  Value.encode buf t.leaf_value;
  Value.add_varint buf (List.length t.path);
  List.iter
    (fun s ->
      Value.add_varint buf (Oid.to_int s.node_oid);
      Value.encode buf s.node_value;
      match s.children with
      | Flat entries ->
          Value.add_varint buf (List.length entries);
          add_entries buf entries
      | Chunked { count; chunks } ->
          Value.add_varint buf count;
          Value.add_varint buf (List.length chunks);
          List.iter
            (fun entries ->
              Value.add_varint buf (List.length entries);
              add_entries buf entries)
            chunks)
    t.path

(* Every count is checked against the bytes actually remaining (each
   element costs at least one byte) before List.init allocates. *)
let read_count s off =
  let n, off = Value.read_varint s off in
  if n > String.length s - off then failwith "Proof.decode: implausible size";
  (n, off)

let read_entries s off n =
  let off = ref off in
  let entries =
    List.init n (fun _ ->
        let c, o = Value.read_varint s !off in
        let h, o = Value.read_string s o in
        off := o;
        (Oid.of_int c, h))
  in
  (entries, !off)

let decode s off =
  if off >= String.length s || s.[off] <> magic then
    failwith "Proof.decode: bad magic";
  let leaf_oid, off = Value.read_varint s (off + 1) in
  let leaf_value, off = Value.decode s off in
  let nsteps, off = read_count s off in
  let off = ref off in
  let path =
    List.init nsteps (fun _ ->
        let node_oid, o = Value.read_varint s !off in
        let node_value, o = Value.decode s o in
        let k, o = Value.read_varint s o in
        let children, o =
          if k <= Merkle.wide_threshold then
            let entries, o = read_entries s o k in
            (Flat entries, o)
          else
            let nlevels, o = read_count s o in
            let o = ref o in
            let chunks =
              List.init nlevels (fun _ ->
                  let m, o' = read_count s !o in
                  let entries, o' = read_entries s o' m in
                  o := o';
                  entries)
            in
            (Chunked { count = k; chunks }, !o)
        in
        off := o;
        { node_oid = Oid.of_int node_oid; node_value; children })
  in
  ({ leaf_oid = Oid.of_int leaf_oid; leaf_value; path }, !off)

let size_bytes t =
  let buf = Buffer.create 256 in
  encode buf t;
  Buffer.length buf

let to_string t =
  let buf = Buffer.create 256 in
  encode buf t;
  Buffer.contents buf

let of_encoded s =
  match decode s 0 with
  | t, off when off = String.length s -> Ok t
  | _ -> Error "proof: trailing bytes after proof frame"
  | exception Failure e -> Error e
  | exception Invalid_argument _ -> Error "proof: truncated frame"
