open Tep_store
module Digest_algo = Tep_crypto.Digest_algo

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

(* Narrow node, k <= wide_threshold children c1..ck (oid-sorted):
     'N' | varint oid | value | varint k | c1.oid .. ck.oid | h(c1) .. h(ck)
   Wide node, k > wide_threshold:
     'W' | varint oid | value | varint k | top chunk digest
   Chunk of a wide node's chunk tree, m entries:
     'C' | varint level | varint m | (varint key | hash) * m
   Every field is self-delimiting (varints, Value.encode, hashes of the
   algorithm's fixed width) and the tag bytes are pairwise distinct
   and distinct from the 'A' and 'S' frames, so distinct inputs give
   distinct frames. *)

let wide_threshold = 32

(* Fan-out 16: an entry closes its level-l chunk when 4-bit digit l of
   [mix key] is zero.  A 63-bit mix holds 15 whole digits; the last
   level (15) never closes on a digit, so the tree stops there. *)
let digit_bits = 4
let max_levels = 16

(* Fixed 63-bit finaliser (xorshift-multiply rounds in the style of
   MurmurHash3's fmix64, odd multipliers below 2^62): sequential oids
   get independent-looking digits. *)
let mix oid =
  let x = Oid.to_int oid in
  let x = x lxor (x lsr 31) in
  let x = x * 0x3c79ac492ba7b653 in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1c69b3f74ac4ae35 in
  (x lxor (x lsr 32)) land max_int

let closes ~level key =
  level < max_levels - 1
  && (mix key lsr (digit_bits * level)) land ((1 lsl digit_bits) - 1) = 0

let narrow_digest algo oid value (children : (Oid.t * string) list) =
  let k = List.length children in
  let buf = Buffer.create (32 + (32 * k)) in
  Buffer.add_char buf 'N';
  Value.add_varint buf (Oid.to_int oid);
  Value.encode buf value;
  Value.add_varint buf k;
  List.iter (fun (c, _) -> Value.add_varint buf (Oid.to_int c)) children;
  List.iter (fun (_, h) -> Buffer.add_string buf h) children;
  Digest_algo.digest algo (Buffer.contents buf)

let chunk_digest algo ~level (entries : (Oid.t * string) list) =
  let m = List.length entries in
  let buf = Buffer.create (16 + (32 * m)) in
  Buffer.add_char buf 'C';
  Value.add_varint buf level;
  Value.add_varint buf m;
  List.iter
    (fun (k, h) ->
      Value.add_varint buf (Oid.to_int k);
      Buffer.add_string buf h)
    entries;
  Digest_algo.digest algo (Buffer.contents buf)

let wide_digest algo oid value ~count top =
  let buf = Buffer.create 64 in
  Buffer.add_char buf 'W';
  Value.add_varint buf (Oid.to_int oid);
  Value.encode buf value;
  Value.add_varint buf count;
  Buffer.add_string buf top;
  Digest_algo.digest algo (Buffer.contents buf)

let hash_value algo oid value =
  let buf = Buffer.create 32 in
  Buffer.add_char buf 'A';
  Value.add_varint buf (Oid.to_int oid);
  Value.encode buf value;
  Digest_algo.digest algo (Buffer.contents buf)

(* Root-of-roots frame: 'S' | varint n | (varint len | hash)*.  The
   'S' prefix domain-separates it from node and chunk frames, and the
   length prefixes keep the encoding injective even if shard roots
   ever had different digest widths. *)
let root_of_roots algo shard_roots =
  let buf = Buffer.create 64 in
  Buffer.add_char buf 'S';
  Value.add_varint buf (List.length shard_roots);
  List.iter (Value.add_string buf) shard_roots;
  Digest_algo.digest algo (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Chunk trees                                                         *)
(* ------------------------------------------------------------------ *)

(* One chunk of a wide node's chunk tree.  Level-0 keys are child
   oids; the level-(l+1) key [keys.(i)] is the last key of the level-l
   chunk [subs.(i)].  [digest] is the memoised chunk digest; [None]
   means it must be recomputed. *)
type chunk = {
  level : int;
  keys : Oid.t array;
  subs : chunk array;  (* [||] at level 0 *)
  mutable digest : string option;
}

(* [levels.(l)] holds the level-l chunks in key order; the last level
   holds the single top chunk. *)
type wide = {
  mutable count : int;
  mutable levels : chunk array array;
  mutable pending : Oid.t list;
      (* children invalidated since the last hash: the candidates for
         a changed child set *)
  mutable npending : int;
}

(* Past this many pending children the tree is rebuilt rather than
   spliced child by child. *)
let pending_cap = 64

let last_key ch = ch.keys.(Array.length ch.keys - 1)
let top w = w.levels.(Array.length w.levels - 1).(0)

(* Index of the first of [chunks] whose last key is >= [key] (the
   chunk covering [key]), or the length when [key] is past them all. *)
let covering chunks key =
  let lo = ref 0 and hi = ref (Array.length chunks) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Oid.to_int (last_key chunks.(mid)) < Oid.to_int key then lo := mid + 1
    else hi := mid
  done;
  !lo

(* Cut one level's entries (key order) into chunks: an entry closes its
   chunk when [closes] holds, and when [ends_level] the final entry
   closes too.  Entries that end off a boundary mean the caller's view
   of the level is inconsistent: [Exit]. *)
let cut ~level ~ends_level keys subs =
  let n = Array.length keys in
  let acc = ref [] and start = ref 0 in
  for i = 0 to n - 1 do
    if closes ~level keys.(i) || (ends_level && i = n - 1) then begin
      let len = i + 1 - !start in
      let sub = if level = 0 then [||] else Array.sub subs !start len in
      acc :=
        { level; keys = Array.sub keys !start len; subs = sub; digest = None }
        :: !acc;
      start := i + 1
    end
  done;
  if !start <> n then raise Exit;
  Array.of_list (List.rev !acc)

(* The levels from [level] up, given the level-[level] chunks. *)
let rec levels_from level chunks =
  if Array.length chunks <= 1 then [ chunks ]
  else
    let keys = Array.map last_key chunks in
    chunks :: levels_from (level + 1) (cut ~level:(level + 1) ~ends_level:true keys chunks)

let fresh ~count kids =
  let level0 = cut ~level:0 ~ends_level:true (Array.of_list kids) [||] in
  { count; levels = Array.of_list (levels_from 0 level0); pending = []; npending = 0 }

let holds w key =
  let l0 = w.levels.(0) in
  let i = covering l0 key in
  i < Array.length l0 && Array.exists (Oid.equal key) l0.(i).keys

(* The chunks on [key]'s path, level 0 first. *)
let path w key =
  let rec go level key acc =
    if level = Array.length w.levels then List.rev acc
    else
      let chunks = w.levels.(level) in
      let i = covering chunks key in
      if i = Array.length chunks then List.rev acc
      else go (level + 1) (last_key chunks.(i)) (chunks.(i) :: acc)
  in
  go 0 key []

(* Replace the level-[level] entries keyed [removed], add the [added]
   (key, sub-chunk) entries, and re-cut only the chunks they touch.
   Returns the new level and the change it makes one level up: the
   keys of the replaced chunks and the entries of their replacements. *)
let splice ~level chunks ~removed ~added =
  let m = Array.length chunks in
  let readded k = List.exists (fun (a, _) -> Oid.equal a k) added in
  let hit = Array.make m false in
  let mark k = hit.(min (covering chunks k) (m - 1)) <- true in
  Oid.Set.iter mark removed;
  List.iter (fun (k, _) -> mark k) added;
  (* a chunk whose closing entry goes away runs on into the next *)
  for i = 0 to m - 2 do
    let k = last_key chunks.(i) in
    if hit.(i) && Oid.Set.mem k removed && not (readded k) then
      hit.(i + 1) <- true
  done;
  let entries = ref added and kept = ref [] and gone = ref Oid.Set.empty in
  for i = m - 1 downto 0 do
    let ch = chunks.(i) in
    if hit.(i) then begin
      gone := Oid.Set.add (last_key ch) !gone;
      Array.iteri
        (fun j k ->
          if not (Oid.Set.mem k removed) then
            entries :=
              (k, if level = 0 then None else Some ch.subs.(j)) :: !entries)
        ch.keys
    end
    else kept := ch :: !kept
  done;
  let entries =
    Array.of_list (List.sort (fun (a, _) (b, _) -> Oid.compare a b) !entries)
  in
  let keys = Array.map fst entries in
  let subs = if level = 0 then [||] else Array.map (fun (_, s) -> Option.get s) entries in
  let fresh = cut ~level ~ends_level:hit.(m - 1) keys subs in
  let merged =
    List.merge
      (fun a b -> Oid.compare (last_key a) (last_key b))
      !kept (Array.to_list fresh)
  in
  ( Array.of_list merged,
    !gone,
    Array.to_list (Array.map (fun ch -> (last_key ch, Some ch)) fresh) )

(* Apply a change of the child set level by level, up to the top. *)
let rec respl w level ~removed ~added =
  let chunks, removed, added =
    splice ~level w.levels.(level) ~removed ~added
  in
  if Array.length chunks = 0 then raise Exit;
  if Array.length chunks = 1 then begin
    w.levels.(level) <- chunks;
    w.levels <- Array.sub w.levels 0 (level + 1)
  end
  else if level + 1 < Array.length w.levels then begin
    w.levels.(level) <- chunks;
    respl w (level + 1) ~removed ~added
  end
  else
    w.levels <-
      Array.append (Array.sub w.levels 0 level)
        (Array.of_list (levels_from level chunks))

(* Drop the memoised digests on [key]'s path. *)
let dirty w key = List.iter (fun ch -> ch.digest <- None) (path w key)

(* Children are hashed in key order ([Array.init] applies in order),
   which [node_hash]'s cursor relies on.  [tick] counts chunks
   digested. *)
let rec chunk_hash ?(tick = ignore) algo child_hash ch =
  match ch.digest with
  | Some d -> d
  | None ->
      let entry i =
        let k = ch.keys.(i) in
        ( k,
          if ch.level = 0 then child_hash k
          else chunk_hash ~tick algo child_hash ch.subs.(i) )
      in
      tick ();
      let d =
        chunk_digest algo ~level:ch.level
          (Array.to_list (Array.init (Array.length ch.keys) entry))
      in
      ch.digest <- Some d;
      d

(* The node digest: every hashing path goes through here (or, for a
   narrow node whose child hashes are already listed, straight to
   [narrow_digest]).  [structure] supplies the chunk tree of a wide
   node, fresh or the cache's memoised one; it is returned with the
   digest. *)
let node_digest ?tick algo ~structure ~child_hash oid value kids =
  let count = List.length kids in
  if count <= wide_threshold then
    (narrow_digest algo oid value (List.map (fun k -> (k, child_hash k)) kids), None)
  else
    let w = structure ~count kids in
    ( wide_digest algo oid value ~count (chunk_hash ?tick algo child_hash (top w)),
      Some w )

let node_hash algo oid value (children : (Oid.t * string) list) =
  if List.compare_length_with children wide_threshold <= 0 then
    narrow_digest algo oid value children
  else
  let rest = ref children in
  let child_hash k =
    match !rest with
    | (o, h) :: tl when Oid.equal o k ->
        rest := tl;
        h
    | _ -> invalid_arg "Merkle.node_hash: children visited out of order"
  in
  fst
    (node_digest algo ~structure:fresh ~child_hash oid value
       (List.map fst children))

let rec hash_subtree algo (t : Subtree.t) =
  node_hash algo t.Subtree.oid t.Subtree.value
    (List.map
       (fun c -> (c.Subtree.oid, hash_subtree algo c))
       t.Subtree.children)

(* ------------------------------------------------------------------ *)
(* Cached (Economical) hashing                                         *)
(* ------------------------------------------------------------------ *)

type stats = {
  nodes_hashed : int;
  chunks_hashed : int;
  cache_hits : int;
  invalidations : int;
}

type cache = {
  algo : Digest_algo.algo;
  forest : Forest.t;
  tbl : string Oid.Tbl.t;
  wides : wide Oid.Tbl.t;  (* chunk trees of the wide nodes *)
  mutable nodes_hashed : int;
  mutable chunks_hashed : int;
  mutable cache_hits : int;
  mutable invalidations : int;
}

let invalidate c oid =
  let drop o =
    if Oid.Tbl.mem c.tbl o then begin
      Oid.Tbl.remove c.tbl o;
      c.invalidations <- c.invalidations + 1
    end
  in
  let note parent child =
    match Oid.Tbl.find_opt c.wides parent with
    | None -> ()
    | Some w ->
        dirty w child;
        if w.npending <= pending_cap then begin
          w.pending <- child :: w.pending;
          w.npending <- w.npending + 1
        end
  in
  drop oid;
  ignore
    (List.fold_left
       (fun child p ->
         drop p;
         note p child;
         p)
       oid
       (Forest.ancestors c.forest oid))

let create_cache algo forest =
  let c =
    {
      algo;
      forest;
      tbl = Oid.Tbl.create 4096;
      wides = Oid.Tbl.create 16;
      nodes_hashed = 0;
      chunks_hashed = 0;
      cache_hits = 0;
      invalidations = 0;
    }
  in
  Forest.on_change forest (fun oid -> invalidate c oid);
  c

let algo c = c.algo

(* Bring the memoised chunk tree of [oid] up to date.  Every insert
   or delete of a child is an invalidation that left the child in
   [pending], so the child set changed exactly by the pending children
   that are in the tree but no longer children (removed) or children
   but not in the tree (added); those are spliced in.  Past
   [pending_cap], or if the splice finds the tree inconsistent, the
   tree is rebuilt. *)
let cached_structure c oid ~count kids =
  let update w =
    let removed = ref Oid.Set.empty and added = ref Oid.Set.empty in
    List.iter
      (fun k ->
        let inside = holds w k
        and child =
          match Forest.parent c.forest k with
          | Some p -> Oid.equal p oid
          | None -> false
        in
        if inside && not child then removed := Oid.Set.add k !removed
        else if child && not inside then added := Oid.Set.add k !added)
      w.pending;
    if not (Oid.Set.is_empty !removed && Oid.Set.is_empty !added) then begin
      respl w 0 ~removed:!removed
        ~added:(List.map (fun k -> (k, None)) (Oid.Set.elements !added));
      w.count <-
        w.count - Oid.Set.cardinal !removed + Oid.Set.cardinal !added
    end;
    w.pending <- [];
    w.npending <- 0;
    if w.count <> count then raise Exit;
    w
  in
  match Oid.Tbl.find_opt c.wides oid with
  | Some w when w.npending <= pending_cap -> (
      try update w with Exit -> fresh ~count kids)
  | _ -> fresh ~count kids

let store c oid (h, w) =
  Oid.Tbl.replace c.tbl oid h;
  match w with
  | Some w -> Oid.Tbl.replace c.wides oid w
  | None -> if Oid.Tbl.length c.wides > 0 then Oid.Tbl.remove c.wides oid

let missing oid = failwith (Printf.sprintf "no object %s" (Oid.to_string oid))

let info c oid =
  match Forest.info c.forest oid with None -> missing oid | Some i -> i

(* Digest [oid] and record it (and its chunk tree) in the cache. *)
let hash_node c ~structure ~child_hash oid =
  let i = info c oid in
  let r =
    node_digest ~tick:(fun () -> c.chunks_hashed <- c.chunks_hashed + 1)
      c.algo ~structure ~child_hash oid i.Forest.value i.Forest.children
  in
  c.nodes_hashed <- c.nodes_hashed + 1;
  store c oid r;
  fst r

(* ------------------------------------------------------------------ *)
(* Domain-parallel subtree hashing                                     *)
(* ------------------------------------------------------------------ *)

(* Below this many forest nodes the frontier bookkeeping costs more
   than it saves; stay sequential. *)
let par_threshold = 256

(* Pure hash of a subtree: touches no cache state (safe across
   domains).  Computed (oid, hash, chunk tree) triples accumulate in
   [acc] for a later single-domain cache merge; [chunks] counts chunk
   digests. *)
let rec pure_hash c acc chunks oid =
  let i = info c oid in
  let ((h, _) as r) =
    node_digest ~tick:(fun () -> incr chunks) c.algo ~structure:fresh
      ~child_hash:(pure_hash c acc chunks) oid i.Forest.value
      i.Forest.children
  in
  acc := (oid, r) :: !acc;
  h

(* Split the subtree under [root] into interior levels (hashed
   sequentially afterwards, deepest level first) and a frontier of
   disjoint subtree roots (hashed in parallel), aiming for [target]
   frontier tasks. *)
let split_frontier c root target =
  let rec go levels frontier cur =
    if cur = [] || List.length frontier + List.length cur >= target then
      (levels, frontier @ cur)
    else begin
      let leaves, internals =
        List.partition (fun o -> Forest.children c.forest o = []) cur
      in
      if internals = [] then (levels, frontier @ leaves)
      else
        go (internals :: levels) (frontier @ leaves)
          (List.concat_map (Forest.children c.forest) internals)
    end
  in
  go [] [] [ root ]

(* Rehash the whole subtree under [root] across the pool, ignoring
   (and overwriting) whatever the cache holds for it. *)
let hash_par pool c root =
  let levels, frontier =
    split_frontier c root (4 * Tep_parallel.Pool.size pool)
  in
  let results =
    Tep_parallel.Pool.map_chunked ~chunk:1 pool
      (fun oid ->
        let acc = ref [] and chunks = ref 0 in
        let (_ : string) = pure_hash c acc chunks oid in
        (!acc, !chunks))
      (Array.of_list frontier)
  in
  (* Merge task results into the cache on the calling domain only. *)
  Array.iter
    (fun (computed, chunks) ->
      List.iter (fun (o, r) -> store c o r) computed;
      c.nodes_hashed <- c.nodes_hashed + List.length computed;
      c.chunks_hashed <- c.chunks_hashed + chunks)
    results;
  (* Interior spine, bottom-up: every child hash is now in the cache. *)
  let cached o =
    match Oid.Tbl.find_opt c.tbl o with Some h -> h | None -> missing o
  in
  List.iter
    (List.iter (fun oid ->
         ignore (hash_node c ~structure:fresh ~child_hash:cached oid)))
    levels;
  cached root

(* The pool only pays for itself on a cold pass (start-up, Basic
   mode, [hash_basic]); a warm rehash touches one dirty path. *)
let use_pool pool c =
  match pool with
  | Some p
    when Tep_parallel.Pool.size p > 1
         && Forest.node_count c.forest >= par_threshold ->
      Some p
  | _ -> None

let hash ?pool c oid =
  let rec go oid =
    match Oid.Tbl.find_opt c.tbl oid with
    | Some h ->
        c.cache_hits <- c.cache_hits + 1;
        h
    | None ->
        hash_node c ~structure:(cached_structure c oid) ~child_hash:go oid
  in
  let compute () =
    match use_pool pool c with
    | Some p when Oid.Tbl.length c.tbl = 0 -> hash_par p c oid
    | _ -> go oid
  in
  match compute () with h -> Ok h | exception Failure e -> Error e

let hash_basic ?pool c oid =
  let rec go oid = hash_node c ~structure:fresh ~child_hash:go oid in
  let compute () =
    match use_pool pool c with Some p -> hash_par p c oid | None -> go oid
  in
  match compute () with h -> Ok h | exception Failure e -> Error e

(* ------------------------------------------------------------------ *)
(* Proof material                                                      *)
(* ------------------------------------------------------------------ *)

type children =
  | Flat of (Oid.t * string) list
  | Chunked of { count : int; chunks : (Oid.t * string) list list }

let children_proof c parent ~child =
  let get o =
    match hash c o with Ok h -> h | Error e -> failwith e
  in
  let compute () =
    let (_ : string) = get parent in
    let kids = (info c parent).Forest.children in
    match Oid.Tbl.find_opt c.wides parent with
    | Some w when List.length kids > wide_threshold ->
        (* one chunk per level on [child]'s path, level 0 first *)
        let entries ch =
          List.init (Array.length ch.keys) (fun i ->
              let k = ch.keys.(i) in
              (k, if ch.level = 0 then get k else chunk_hash c.algo get ch.subs.(i)))
        in
        Chunked { count = w.count; chunks = List.map entries (path w child) }
    | _ -> Flat (List.map (fun k -> (k, get k)) kids)
  in
  match compute () with r -> Ok r | exception Failure e -> Error e

let clear c =
  Oid.Tbl.reset c.tbl;
  Oid.Tbl.reset c.wides

let stats c =
  {
    nodes_hashed = c.nodes_hashed;
    chunks_hashed = c.chunks_hashed;
    cache_hits = c.cache_hits;
    invalidations = c.invalidations;
  }

let reset_stats c =
  c.nodes_hashed <- 0;
  c.chunks_hashed <- 0;
  c.cache_hits <- 0;
  c.invalidations <- 0
