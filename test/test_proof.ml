(* Merkle membership proofs. *)
open Tep_store
open Tep_tree

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let algo = Tep_crypto.Digest_algo.SHA1

let build_forest () =
  let f = Forest.create () in
  let root = ok (Forest.insert f (Value.Text "db")) in
  let t1 = ok (Forest.insert ~parent:root f (Value.Text "t1")) in
  let rows =
    List.init 5 (fun i ->
        let r = ok (Forest.insert ~parent:t1 f (Value.Int i)) in
        let cells =
          List.init 3 (fun c ->
              ok (Forest.insert ~parent:r f (Value.Int ((i * 10) + c))))
        in
        (r, cells))
  in
  let cache = Merkle.create_cache algo f in
  let root_hash = ok (Merkle.hash cache root) in
  (f, cache, root, root_hash, rows)

let test_prove_verify () =
  let f, cache, _, root_hash, rows = build_forest () in
  List.iter
    (fun (_, cells) ->
      List.iter
        (fun cell ->
          let p = ok (Proof.prove cache f cell) in
          (match Proof.verify algo ~root_hash p with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          Alcotest.(check int) "path depth" 3 (List.length p.Proof.path))
        cells)
    rows

let test_proof_of_root_leaf () =
  let f = Forest.create () in
  let lone = ok (Forest.insert f (Value.Int 42)) in
  let cache = Merkle.create_cache algo f in
  let h = ok (Merkle.hash cache lone) in
  let p = ok (Proof.prove cache f lone) in
  Alcotest.(check int) "empty path" 0 (List.length p.Proof.path);
  Alcotest.(check bool) "root is self" true (Oid.equal (Proof.root_oid p) lone);
  match Proof.verify algo ~root_hash:h p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_compound_rejected () =
  let f, cache, _, _, rows = build_forest () in
  let row, _ = List.hd rows in
  match Proof.prove cache f row with
  | Ok _ -> Alcotest.fail "compound object proven as atomic"
  | Error _ -> ()

let test_wrong_value_rejected () =
  let f, cache, _, root_hash, rows = build_forest () in
  let _, cells = List.hd rows in
  let p = ok (Proof.prove cache f (List.hd cells)) in
  let forged = { p with Proof.leaf_value = Value.Int 999_999 } in
  match Proof.verify algo ~root_hash forged with
  | Ok () -> Alcotest.fail "forged value accepted"
  | Error _ -> ()

let test_wrong_root_rejected () =
  let f, cache, _, _, rows = build_forest () in
  let _, cells = List.hd rows in
  let p = ok (Proof.prove cache f (List.hd cells)) in
  match Proof.verify algo ~root_hash:(String.make 20 'x') p with
  | Ok () -> Alcotest.fail "wrong root accepted"
  | Error _ -> ()

let test_sibling_swap_rejected () =
  let f, cache, _, root_hash, rows = build_forest () in
  let _, cells = List.hd rows in
  let p = ok (Proof.prove cache f (List.hd cells)) in
  (* perturb a sibling hash in the first step *)
  let forged =
    match p.Proof.path with
    | s :: rest ->
        let children =
          match s.Proof.children with
          | Proof.Flat entries ->
              Proof.Flat
                (List.map
                   (fun (o, h) ->
                     if Oid.equal o p.Proof.leaf_oid then (o, h)
                     else
                       (o, String.map (fun c -> Char.chr (Char.code c lxor 1)) h))
                   entries)
          | Proof.Chunked _ -> Alcotest.fail "expected a flat first step"
        in
        { p with Proof.path = { s with Proof.children } :: rest }
    | [] -> Alcotest.fail "expected a path"
  in
  match Proof.verify algo ~root_hash forged with
  | Ok () -> Alcotest.fail "sibling forgery accepted"
  | Error _ -> ()

let test_codec_roundtrip () =
  let f, cache, _, root_hash, rows = build_forest () in
  let _, cells = List.nth rows 2 in
  let p = ok (Proof.prove cache f (List.nth cells 1)) in
  let buf = Buffer.create 256 in
  Proof.encode buf p;
  let p', off = Proof.decode (Buffer.contents buf) 0 in
  Alcotest.(check int) "consumed" (Buffer.length buf) off;
  (match Proof.verify algo ~root_hash p' with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "size_bytes" (Buffer.length buf) (Proof.size_bytes p)

(* Truncated encodings: every strict prefix of a valid proof encoding
   must be rejected by the decoder or decode to a proof that fails
   verification — no prefix may survive as a verifying proof. *)
let test_codec_truncated () =
  let f, cache, _, root_hash, rows = build_forest () in
  let _, cells = List.nth rows 2 in
  let p = ok (Proof.prove cache f (List.nth cells 1)) in
  let buf = Buffer.create 256 in
  Proof.encode buf p;
  let s = Buffer.contents buf in
  for cut = 0 to String.length s - 1 do
    match Proof.decode (String.sub s 0 cut) 0 with
    | exception (Failure _ | Invalid_argument _) -> ()
    | p', _ -> (
        match Proof.verify algo ~root_hash p' with
        | Error _ -> ()
        | Ok () ->
            Alcotest.failf "prefix of %d/%d bytes decoded to a verifying proof"
              cut (String.length s))
  done

(* ---- wide nodes: chunked steps ---- *)

(* db -> t (300 rows, above the 32-child threshold) and s (20 rows),
   each row with two cells. *)
let wide_fixture () =
  let f = Forest.create () in
  let root = ok (Forest.insert f (Value.Text "db")) in
  let table name rows =
    let t = ok (Forest.insert ~parent:root f (Value.Text name)) in
    for i = 0 to rows - 1 do
      let r = ok (Forest.insert ~parent:t f (Value.Int i)) in
      ignore (ok (Forest.insert ~parent:r f (Value.Int (i * 10))));
      ignore (ok (Forest.insert ~parent:r f (Value.Int ((i * 10) + 1))))
    done;
    t
  in
  let t = table "t" 300 in
  let (_ : Oid.t) = table "s" 20 in
  let cache = Merkle.create_cache algo f in
  let root_hash = ok (Merkle.hash cache root) in
  (f, cache, root_hash, t)

let rejected what root_hash p =
  match Proof.verify algo ~root_hash p with
  | Ok () -> Alcotest.failf "%s accepted" what
  | Error e -> e

let test_wide_every_leaf_verifies () =
  let f, cache, root_hash, _ = wide_fixture () in
  let n = ref 0 in
  Forest.iter_preorder f (Oid.of_int 0) (fun o _ ->
      if Forest.is_leaf f o then begin
        let p = ok (Proof.prove cache f o) in
        (match Proof.verify algo ~root_hash p with
        | Ok () -> ()
        | Error e -> Alcotest.failf "leaf %s: %s" (Oid.to_string o) e);
        let p' = ok (Proof.of_encoded (Proof.to_string p)) in
        (match Proof.verify algo ~root_hash p' with
        | Ok () -> ()
        | Error e -> Alcotest.failf "decoded leaf %s: %s" (Oid.to_string o) e);
        incr n
      end);
  Alcotest.(check int) "all leaves" 640 !n

(* A proof of a cell under [t]'s row [row] and its chunked step. *)
let wide_proof f cache t row =
  let r = List.nth (Forest.children f t) row in
  let p = ok (Proof.prove cache f (List.hd (Forest.children f r))) in
  match p.Proof.path with
  | [ row_step; ({ Proof.children = Proof.Chunked { count; chunks }; _ } as s); root_step ] ->
      (p, r, row_step, s, (count, chunks), root_step)
  | _ -> Alcotest.fail "expected cell -> row -> chunked table -> root"

let with_chunks (p, _, row_step, s, (count, _), root_step) chunks =
  {
    p with
    Proof.path =
      [ row_step; { s with Proof.children = Proof.Chunked { count; chunks } }; root_step ];
  }

let flip h = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) h

let test_wide_forgeries_rejected () =
  let f, cache, root_hash, t = wide_fixture () in
  let ((p, r, _, _, (_, chunks), _) as w) = wide_proof f cache t 150 in
  (match Proof.verify algo ~root_hash p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let level0, above =
    match chunks with l0 :: up -> (l0, up) | [] -> assert false
  in
  Alcotest.(check bool) "chunk tree has levels above 0" true (above <> []);
  let siblings = List.filter (fun (o, _) -> not (Oid.equal o r)) level0 in
  Alcotest.(check bool) "level-0 chunk has siblings" true (siblings <> []);
  let sib, _ = List.hd siblings in
  let map0 g = with_chunks w (g level0 :: above) in
  (* flipped sibling hash *)
  ignore
    (rejected "flipped sibling" root_hash
       (map0 (List.map (fun (o, h) -> if Oid.equal o sib then (o, flip h) else (o, h)))));
  (* flipped hash one level up *)
  (match above with
  | l1 :: rest ->
      ignore
        (rejected "flipped level-1 entry" root_hash
           (with_chunks w
              (level0 :: List.map (fun (o, h) -> (o, flip h)) l1 :: rest)))
  | [] -> ());
  (* dropped entry *)
  ignore
    (rejected "dropped entry" root_hash
       (map0 (List.filter (fun (o, _) -> not (Oid.equal o sib)))));
  (* duplicated entry *)
  let e =
    rejected "duplicated entry" root_hash
      (map0 (List.concat_map (fun ((o, _) as x) -> if Oid.equal o sib then [ x; x ] else [ x ])))
  in
  Alcotest.(check string) "duplicate is non-canonical" "proof: unsorted children" e;
  (* reordered entries *)
  ignore
    (rejected "reordered entries" root_hash (map0 (fun l -> List.rev l)));
  (* truncated level: the top chunk dropped *)
  ignore
    (rejected "truncated level" root_hash
       (with_chunks w (List.filteri (fun i _ -> i < List.length chunks - 1) chunks)));
  (* a wrong-width hash *)
  ignore
    (rejected "short hash" root_hash
       (map0 (List.map (fun (o, h) -> if Oid.equal o sib then (o, String.sub h 0 19) else (o, h)))));
  (* an honest proof's bytes under the flat-only format's 'P' magic,
     and every strict prefix of them *)
  let bytes = Proof.to_string p in
  for cut = 0 to String.length bytes - 1 do
    match Proof.of_encoded (String.sub bytes 0 cut) with
    | Error _ -> ()
    | Ok p' -> ignore (rejected (Printf.sprintf "%d-byte prefix" cut) root_hash p')
  done;
  (match Proof.of_encoded ("P" ^ String.sub bytes 1 (String.length bytes - 1)) with
  | Ok _ -> Alcotest.fail "old 'P' magic accepted"
  | Error _ -> ());
  (* a wide step presented flat, a narrow one presented chunked *)
  let _, _, row_step, s, _, root_step = w in
  ignore
    (rejected "flat step for a wide node" root_hash
       {
         p with
         Proof.path =
           [
             row_step;
             { s with Proof.children = Proof.Flat (List.concat chunks) };
             root_step;
           ];
       });
  match row_step.Proof.children with
  | Proof.Flat cells ->
      ignore
        (rejected "chunked step for a narrow node" root_hash
           {
             p with
             Proof.path =
               { row_step with Proof.children = Proof.Chunked { count = 2; chunks = [ cells ] } }
               :: List.tl p.Proof.path;
           })
  | Proof.Chunked _ -> Alcotest.fail "row step must be flat"

(* Moving an entry across a chunk boundary breaks the boundary rule,
   whichever side of the boundary the proven row sits on. *)
let test_wide_boundary_moves_rejected () =
  let f, cache, root_hash, t = wide_fixture () in
  let rows = Array.of_list (Forest.children f t) in
  let row_hashes = Array.map (fun r -> ok (Merkle.hash cache r)) rows in
  (* an interior level-0 boundary: row i closes its chunk, i+1 opens the next *)
  let i =
    let rec find i =
      if i >= Array.length rows - 2 then Alcotest.fail "no interior boundary"
      else if Merkle.closes ~level:0 rows.(i) && i > 0 then i
      else find (i + 1)
    in
    find 1
  in
  let check_boundary what e =
    let contains s sub =
      let n = String.length sub in
      let rec go k = k + n <= String.length s && (String.sub s k n = sub || go (k + 1)) in
      go 0
    in
    if not (contains e "boundary") then
      Alcotest.failf "%s rejected for the wrong reason: %s" what e
  in
  (* proof for row i-1: its chunk loses its closing entry (row i) *)
  let w = wide_proof f cache t (i - 1) in
  let _, _, _, _, (_, chunks), _ = w in
  let level0, above = (List.hd chunks, List.tl chunks) in
  check_boundary "closing entry moved out"
    (rejected "closing entry moved out" root_hash
       (with_chunks w
          (List.filter (fun (o, _) -> not (Oid.equal o rows.(i))) level0 :: above)));
  (* proof for row i+1: its chunk gains row i in front *)
  let w = wide_proof f cache t (i + 1) in
  let _, _, _, _, (_, chunks), _ = w in
  let level0, above = (List.hd chunks, List.tl chunks) in
  check_boundary "closing entry moved in"
    (rejected "closing entry moved in" root_hash
       (with_chunks w (((rows.(i), row_hashes.(i)) :: level0) :: above)))

let () =
  Alcotest.run "proof"
    [
      ( "merkle-proofs",
        [
          Alcotest.test_case "prove & verify all cells" `Quick
            test_prove_verify;
          Alcotest.test_case "root leaf" `Quick test_proof_of_root_leaf;
          Alcotest.test_case "compound rejected" `Quick test_compound_rejected;
          Alcotest.test_case "wrong value" `Quick test_wrong_value_rejected;
          Alcotest.test_case "wrong root" `Quick test_wrong_root_rejected;
          Alcotest.test_case "sibling forgery" `Quick
            test_sibling_swap_rejected;
          Alcotest.test_case "codec" `Quick test_codec_roundtrip;
          Alcotest.test_case "codec truncated" `Quick test_codec_truncated;
        ] );
      ( "wide",
        [
          Alcotest.test_case "every leaf verifies" `Quick
            test_wide_every_leaf_verifies;
          Alcotest.test_case "forgeries rejected" `Quick
            test_wide_forgeries_rejected;
          Alcotest.test_case "boundary moves rejected" `Quick
            test_wide_boundary_moves_rejected;
        ] );
    ]
