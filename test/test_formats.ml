(* Every binary format, two ways.

   Known answers: one DRBG seed and 512-bit keys build a small
   workspace, and every file format it can write is pinned by the
   SHA-256 of its bytes.  Each file must also decode and re-encode to
   the same bytes, so a change to any encoder or decoder that alters a
   single byte on disk fails here.

   Damage: for seeded valid encodings of every format (a fixed random
   seed, so a failure reproduces), every strict prefix and every
   single-byte flip goes through the format's total
   entry point and its [decode s off] form.  A prefix is always an
   [Error]; so is a flip of a SHA-256-sealed file; nothing raises but
   [Failure] from [decode]; and decoding allocates at most a fixed
   multiple of its input plus a constant.  WAL salvage (a torn tail is
   its contract) and [Frame.parse] ([Need_more]) are not held to
   this. *)
open Tep_store
open Tep_tree
open Tep_core
open Tep_prov
module Message = Tep_wire.Message

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A scratch directory, removed at exit. *)
let fresh_dir () =
  let dir = Filename.temp_file "tep_formats" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  at_exit (fun () -> rm_rf dir);
  dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sha_hex s = Tep_crypto.Sha256.hex s

(* The workspace: two participants, two tables over every value type,
   inserts, updates, a delete and an aggregate, all journaled. *)
type fixture = {
  eng : Engine.t;
  dir : Participant.Directory.t;
  alice : Participant.t;
  wal : Wal.t;
}

let build ws =
  let drbg = Tep_crypto.Drbg.create ~seed:"file-format-kat" in
  let ca = Tep_crypto.Pki.create_ca ~bits:512 ~name:"CA" drbg in
  let dir =
    Participant.Directory.create ~ca_key:(Tep_crypto.Pki.ca_public_key ca)
  in
  let alice = Participant.create ~bits:512 ~ca ~name:"alice" drbg in
  let bob = Participant.create ~bits:512 ~ca ~name:"bob" drbg in
  Participant.Directory.register dir alice;
  Participant.Directory.register dir bob;
  let wal = Wal.open_file (Filename.concat ws "wal.log") in
  let eng = Engine.create ~wal ~directory:dir (Database.create ~name:"kat") in
  let col name ty nullable = { Schema.name; ty; nullable } in
  ok
    (Engine.create_table eng alice ~name:"stock"
       (Schema.make
          [
            col "sku" Value.TText false;
            col "qty" Value.TInt false;
            col "price" Value.TFloat true;
            col "tag" Value.TBlob true;
            col "live" Value.TBool true;
          ]));
  ok
    (Engine.create_table eng bob ~name:"orders"
       (Schema.all_int [ "id"; "amount" ]));
  let r0 =
    ok
      (Engine.insert_row eng alice ~table:"stock"
         [| Value.Text "WIDGET-1"; Value.Int 100; Value.Float 2.5;
            Value.Blob "\x00\xff"; Value.Bool true |])
  in
  let r1 =
    ok
      (Engine.insert_row eng bob ~table:"stock"
         [| Value.Text "WIDGET-2"; Value.Int (-7); Value.Null; Value.Null;
            Value.Bool false |])
  in
  let order p id amount =
    ok
      (Engine.insert_row eng p ~table:"orders"
         [| Value.Int id; Value.Int amount |])
  in
  let _ = order bob 1 250 in
  let o1 = order alice 2 40 in
  ok (Engine.update_cell eng bob ~table:"stock" ~row:r0 ~col:1 (Value.Int 90));
  ok
    (Engine.update_cell eng alice ~table:"stock" ~row:r1 ~col:2
       (Value.Float (-0.125)));
  ok (Engine.delete_row eng bob ~table:"orders" o1);
  let view = Engine.mapping eng in
  let row_oid id =
    match Tree_view.row_oid view "stock" id with
    | Some o -> o
    | None -> Alcotest.fail "no row oid"
  in
  let _ =
    ok
      (Engine.aggregate_objects eng alice ~value:(Value.Int 83)
         [ row_oid r0; row_oid r1 ])
  in
  ok (Wal.flush wal);
  { eng; dir; alice; wal }

let annotations f =
  let x = Polynomial.var in
  [
    Annot.make ~id:"a1" ~table:"stock" ~pred:"qty > 0" ~agg:"sum(qty)"
      ~rows:
        [
          (2, Polynomial.times (x 2) (x 3));
          ( 5,
            Polynomial.plus (Polynomial.of_const 2)
              (Polynomial.times (x 5) (x 5)) );
        ]
      ~value:(Some (Value.Int 83))
      ~root:(Engine.root_hash f.eng) f.alice;
    Annot.make ~id:"a2" ~table:"orders" ~pred:"" ~agg:"" ~rows:[] ~value:None
      ~root:(Engine.root_hash f.eng) f.alice;
  ]

let encode_with enc v =
  let buf = Buffer.create 256 in
  enc buf v;
  Buffer.contents buf

(* name, pinned SHA-256, bytes, bytes after a decode/re-encode *)
let check name pinned bytes reencoded =
  Alcotest.(check string) (name ^ " pinned") pinned (sha_hex bytes);
  Alcotest.(check string)
    (name ^ " re-encodes") (sha_hex bytes) (sha_hex reencoded)

let test_known_answers () =
  let ws = fresh_dir () in
  let f = build ws in
  let wal_path = Filename.concat ws "wal.log" in
  let wal_bytes = read_file wal_path in
  let wal_again =
    let copy = Filename.concat ws "wal-copy.log" in
    let w = Wal.open_file copy in
    List.iter (fun e -> ok (Wal.append w e)) (Wal.read_file wal_path);
    ok (Wal.flush w);
    Wal.close w;
    read_file copy
  in
  check "TEPWAL2 log"
    "4d15cdc100857ae9591e5b8531046551da709ab7d7f433cd65891c167f722197"
    wal_bytes wal_again;
  let db = Engine.backend f.eng in
  let snap = Snapshot.to_string db in
  check "TEPSNAP1 snapshot"
    "bb36734e5a53569c6edb073f4e7361f59250ccf596111d73eb7c26194fe3ee6a"
    snap
    (Snapshot.to_string (ok (Snapshot.of_string snap)));
  let prov = Provstore.to_string (Engine.provstore f.eng) in
  check "TEPPROV1 store"
    "6f87c619c538faa05383caff28dbd1683069589961f540060e57c11081f7ff59"
    prov
    (Provstore.to_string (ok (Provstore.of_string prov)));
  let forest = encode_with Forest.encode (Engine.forest f.eng) in
  check "forest"
    "445726ee2b849a5b662423376b7c7fce7e82fca90333bed03387fbb562ca8118"
    forest
    (encode_with Forest.encode (fst (Forest.decode forest 0)));
  let view = encode_with Tree_view.encode (Engine.mapping f.eng) in
  check "view"
    "803f8cb9cd13a2c6949b40f25bc22a66f3e24b72291d0e3b6ef48d841bf69ba5"
    view
    (encode_with Tree_view.encode (fst (Tree_view.decode view 0)));
  let _, marks =
    Audit.full_audit ~directory:f.dir
      (Engine.provstore f.eng)
  in
  let aud = Audit.to_string marks in
  check "TEPAUD2 marks"
    "05c53a5a326ebe9b8eb8e2851d6b1bbae18327bc7ba2cae8f7aed5bf1c290401"
    aud (Audit.to_string (ok (Audit.of_string aud)));
  let anns = Annot.list_to_string (annotations f) in
  check "TEPANNOTS1 annotations"
    "71eb15e8290a3fdb5fa4157d9c774d70a8a003e1c3670a71e2e0ebed9764c407"
    anns
    (Annot.list_to_string (ok (Annot.list_of_string anns)));
  let bundle =
    Bundle.to_string (ok (Bundle.create f.eng (Engine.root_oid f.eng)))
  in
  check "TEPBNDL1 bundle"
    "f9308164bcae397c6d3030a568ec47554d129a1bf3a3ead5a229b288591cddce"
    bundle
    (Bundle.to_string (ok (Bundle.of_string bundle)));
  (* a checkpoint generation, and the one a recovery from it writes
     into a fresh directory *)
  let ckdir = Filename.concat ws "checkpoints" in
  let gen = ok (Recovery.checkpoint ~dir:ckdir ~wal:f.wal f.eng) in
  let ckpt = read_file (Recovery.generation_path ~dir:ckdir gen) in
  Wal.close f.wal;
  let eng', wal', _ =
    ok
      (Recovery.recover ~final_checkpoint:false ~wal_path ~dir:ckdir
         ~directory:f.dir ())
  in
  let ckdir' = Filename.concat ws "checkpoints-again" in
  let gen' = ok (Recovery.checkpoint ~dir:ckdir' ~wal:wal' eng') in
  Wal.close wal';
  check "TEPCKPT1 generation"
    "96d363d749256f3296bbe0c24e05d6f4601b9be8a7d8617492f4fb50645cf163"
    ckpt
    (read_file (Recovery.generation_path ~dir:ckdir' gen'))

(* ------------------------------------------------------------------ *)
(* Damage                                                              *)
(* ------------------------------------------------------------------ *)

(* Decoding n damaged bytes may allocate [alloc_per_byte * n +
   alloc_const] bytes: the constant covers the hash tables a forest or
   a store starts with, the multiple what a record or a tree node costs
   per byte of its encoding.  A count that escapes its bound (an array
   sized by a flipped varint) overshoots it. *)
let alloc_per_byte = 32.
let alloc_const = 32768.

type format = {
  name : string;
  gen : string QCheck2.Gen.t;  (** valid encodings *)
  total : string -> (unit, string) result;
  decode : (string -> int -> unit) option;  (** may raise [Failure] only *)
  sealed : bool;  (** a SHA-256 trailer: every flip is refused *)
  count : int;  (** encodings to draw: 1 for a fixed one *)
}

(* Bytes allocated so far.  Across a minor collection on OCaml 5,
   [Gc.allocated_bytes] can jump by a minor heap's worth, so the minor
   words come from [Gc.minor_words] and the direct major allocations
   from [Gc.counters]. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float (Sys.word_size / 8)

let exact what read s = Result.map ignore (Codec.exact ~what read s)

let flip s pos mask =
  String.mapi
    (fun i c -> if i = pos then Char.chr (Char.code c lxor mask) else c)
    s

let survives_damage fmt s =
  let fail fmt' = QCheck2.Test.fail_reportf ("%s: " ^^ fmt') fmt.name in
  (match fmt.total s with
  | Ok () -> ()
  | Error e -> fail "a valid encoding was refused: %s" e);
  let damaged what input =
    let before = allocated () in
    let result =
      match fmt.total input with
      | r -> r
      | exception e -> fail "%s raised %s" what (Printexc.to_string e)
    in
    let alloc = allocated () -. before in
    if alloc > (alloc_per_byte *. float (String.length input)) +. alloc_const
    then
      fail "%s of %d bytes allocated %.0f bytes" what (String.length input)
        alloc;
    (match fmt.decode with
    | None -> ()
    | Some decode -> (
        match decode input 0 with
        | () | (exception Failure _) -> ()
        | exception e ->
            fail "decode of %s raised %s" what (Printexc.to_string e)));
    result
  in
  for cut = 0 to String.length s - 1 do
    match damaged "a prefix" (String.sub s 0 cut) with
    | Ok () ->
        fail "a prefix of %d/%d bytes was accepted" cut (String.length s)
    | Error _ -> ()
  done;
  (* every other value of each byte of a short encoding; the low bit,
     the continuation bit and all bits of each byte of a long one *)
  let masks =
    if String.length s <= 64 then List.init 255 succ else [ 0x01; 0x80; 0xff ]
  in
  for pos = 0 to String.length s - 1 do
    List.iter
      (fun mask ->
        let what = Printf.sprintf "a flip at byte %d (xor %#x)" pos mask in
        match damaged what (flip s pos mask) with
        | Ok () when fmt.sealed -> fail "%s was accepted" what
        | Ok () | Error _ -> ())
      masks
  done;
  true

let of_decode decode s =
  match decode s 0 with
  | _, n when n = String.length s -> Ok ()
  | _ -> Error "trailing bytes"
  | exception Failure e -> Error e

let unit_decode decode s off = ignore (decode s off)

let gen_value =
  QCheck2.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Text s) string_small;
        map (fun s -> Value.Blob s) string_small;
      ])

let gen_schema =
  QCheck2.Gen.(
    map
      (fun cols ->
        Schema.make
          (List.mapi
             (fun i (ty, nullable) ->
               { Schema.name = Printf.sprintf "c%d" i; ty; nullable })
             cols))
      (list_size (int_range 1 5)
         (pair
            (oneofl Value.[ TBool; TInt; TFloat; TText; TBlob ])
            bool)))

let gen_poly =
  QCheck2.Gen.(
    map Polynomial.sum
      (list_size (int_range 0 4)
         (map
            (fun (c, vs) ->
              Polynomial.product
                (Polynomial.of_const c :: List.map Polynomial.var vs))
            (pair (int_range 1 9)
               (list_size (int_range 0 3) (int_range 0 300))))))

let gen_entry =
  let ints = QCheck2.Gen.(list_size (int_range 0 4) small_nat) in
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Wal.Create_table ("t", s)) gen_schema;
        map
          (fun (id, cells) -> Wal.Insert_row ("t", id, cells))
          (pair small_nat (array_size (int_range 0 4) gen_value));
        map (fun id -> Wal.Delete_row ("t", id)) small_nat;
        map (fun v -> Wal.Update_cell ("orders", 3, 1, v)) gen_value;
        map (fun (v, l) -> Wal.Aggregate (v, l)) (pair gen_value ints);
        map (fun h -> Wal.Commit h) string_small;
        map (fun p -> Wal.Blob p) string_small;
        map (fun (t, h) -> Wal.Prepare (t, h)) (pair string_small string_small);
        map (fun (t, l) -> Wal.Decide (t, l)) (pair string_small ints);
      ])

(* Encodings the workspace fixture writes, the sealed ones included. *)
type samples = {
  s_db : Database.t;
  s_eng : Engine.t;
  s_records : Record.t list;
  s_annots : Annot.t list;
  s_proofs : string list;
  s_ckpt : string;
  s_dir : Participant.Directory.t;
}

let samples =
  lazy
    (let ws = fresh_dir () in
     let f = build ws in
     let ckdir = Filename.concat ws "checkpoints" in
     let gen = ok (Recovery.checkpoint ~dir:ckdir ~wal:f.wal f.eng) in
     let leaves =
       List.filter
         (fun o -> Forest.is_leaf (Engine.forest f.eng) o)
         (Provstore.objects (Engine.provstore f.eng))
     in
     {
       s_db = Engine.backend f.eng;
       s_eng = f.eng;
       s_records = Provstore.all (Engine.provstore f.eng);
       s_annots = annotations f;
       s_proofs =
         List.map (fun o -> Proof.to_string (ok (Engine.prove f.eng o))) leaves;
       s_ckpt = read_file (Recovery.generation_path ~dir:ckdir gen);
       s_dir = f.dir;
     })

(* One encoding of the fixture, or a draw among several. *)
let from_samples pick =
  QCheck2.Gen.(map (fun () -> pick (Lazy.force samples)) unit)

let one_of pick =
  QCheck2.Gen.(unit >>= fun () -> oneofl (pick (Lazy.force samples)))

(* A checkpoint generation has no decoder of its own outside recovery:
   each input becomes the only generation of one scratch directory. *)
let recover_dir = lazy (fresh_dir ())

let recover_from ckpt =
  let ws = Lazy.force recover_dir in
  let oc = open_out_bin (Recovery.generation_path ~dir:ws 0) in
  output_string oc ckpt;
  close_out oc;
  Recovery.recover ~final_checkpoint:false
    ~wal_path:(Filename.concat ws "wal.log") ~dir:ws
    ~directory:(Lazy.force samples).s_dir ()
  |> Result.map (fun (_, wal, _) -> Wal.close wal)

let formats =
  let enc f v = encode_with f v in
  let sample_request s =
    let r0 = List.hd s.s_records in
    Message.
      [
        Hello { name = "alice"; nonce = "0123" };
        Query (Some r0.Record.output_oid);
        Submit_idem
          {
            rid = "r1";
            op = Op_insert { table = "stock"; cells = [| Value.Int 3; Null |] };
          };
        Submit_idem
          {
            rid = "r2";
            op =
              Op_aggregate
                { inputs = [ r0.Record.output_oid ]; value = Value.Text "x" };
          };
        Lineage { kind = L_impact; oid = r0.Record.output_oid };
        Prove { table = "stock"; row = 1; col = Some 2 };
        Audit_sample { seed = "s"; alpha_ppm = 250_000 };
      ]
    |> List.map Message.request_to_string
  in
  let sample_response s =
    let records = List.filteri (fun i _ -> i < 3) s.s_records in
    let report =
      {
        Message.rp_records = 3;
        rp_objects = 2;
        rp_signatures = 3;
        rp_violations = [ "v" ];
      }
    in
    Message.
      [
        Records records;
        Verified { report; store_audit = Some report };
        Proof_resp
          {
            shard = 0;
            shard_roots = [ Engine.root_hash s.s_eng ];
            items = [ (List.hd s.s_proofs, records) ];
          };
        Annotated_resp
          {
            arows =
              [
                ( 2,
                  [| Value.Int 1; Value.Float 0.5 |],
                  Polynomial.encoded (Polynomial.var 2) );
              ];
            avalue = Some (Value.Int 1);
            annot = Annot.encoded (List.hd s.s_annots);
          };
        Shard_stats_resp [];
        Error_resp { code = Message.Not_found; message = "no" };
      ]
    |> List.map Message.response_to_string
  in
  [
    {
      name = "value";
      gen = QCheck2.Gen.map Value.encoded gen_value;
      total = exact "value" Value.read;
      decode = Some (unit_decode Value.decode);
      sealed = false;
      count = 20;
    };
    {
      name = "schema";
      gen = QCheck2.Gen.map (enc Schema.encode) gen_schema;
      total = exact "schema" Schema.read;
      decode = Some (unit_decode Schema.decode);
      sealed = false;
      count = 20;
    };
    {
      name = "table";
      gen =
        one_of (fun s -> List.map (enc Table.encode) (Database.tables s.s_db));
      total = exact "table" Table.read;
      decode = Some (unit_decode Table.decode);
      sealed = false;
      count = 4;
    };
    {
      name = "database";
      gen = from_samples (fun s -> enc Database.encode s.s_db);
      total = exact "database" Database.read;
      decode = Some (unit_decode Database.decode);
      sealed = false;
      count = 1;
    };
    {
      name = "TEPSNAP1 snapshot";
      gen = from_samples (fun s -> Snapshot.to_string s.s_db);
      total = (fun s -> Result.map ignore (Snapshot.of_string s));
      decode = None;
      sealed = true;
      count = 1;
    };
    {
      name = "WAL entry";
      gen = QCheck2.Gen.map (enc Wal.encode_entry) gen_entry;
      total = of_decode Wal.decode_entry;
      decode = Some (unit_decode Wal.decode_entry);
      sealed = false;
      count = 20;
    };
    {
      name = "subtree";
      gen =
        from_samples (fun s ->
            let data, _ =
              ok (Engine.deliver s.s_eng (Engine.root_oid s.s_eng))
            in
            enc Subtree.encode data);
      total = exact "subtree" Subtree.read;
      decode = Some (unit_decode Subtree.decode);
      sealed = false;
      count = 1;
    };
    {
      name = "forest";
      gen = from_samples (fun s -> enc Forest.encode (Engine.forest s.s_eng));
      total = exact "forest" Forest.read;
      decode = Some (unit_decode Forest.decode);
      sealed = false;
      count = 1;
    };
    {
      name = "view";
      gen =
        from_samples (fun s -> enc Tree_view.encode (Engine.mapping s.s_eng));
      total = exact "view" Tree_view.read;
      decode = Some (unit_decode Tree_view.decode);
      sealed = false;
      count = 1;
    };
    {
      name = "record";
      gen = one_of (fun s -> List.map Record.encoded s.s_records);
      total = exact "record" Record.read;
      decode = Some (unit_decode Record.decode);
      sealed = false;
      count = 4;
    };
    {
      name = "proof";
      gen = one_of (fun s -> s.s_proofs);
      total = (fun s -> Result.map ignore (Proof.of_encoded s));
      decode = Some (unit_decode Proof.decode);
      sealed = false;
      count = 4;
    };
    {
      name = "TEPPROV1 store";
      gen =
        from_samples (fun s -> Provstore.to_string (Engine.provstore s.s_eng));
      total = (fun s -> Result.map ignore (Provstore.of_string s));
      decode = None;
      sealed = false;
      count = 1;
    };
    {
      name = "TEPAUD2 marks";
      gen =
        from_samples (fun s ->
            let _, marks =
              Audit.full_audit ~directory:s.s_dir
                (Engine.provstore s.s_eng)
            in
            Audit.to_string marks);
      total = (fun s -> Result.map ignore (Audit.of_string s));
      decode = None;
      sealed = false;
      count = 1;
    };
    {
      name = "TEPBNDL1 bundle";
      gen =
        one_of (fun s ->
            List.map
              (fun o -> Bundle.to_string (ok (Bundle.create s.s_eng o)))
              [
                Engine.root_oid s.s_eng;
                (List.hd s.s_records).Record.output_oid;
              ]);
      total = (fun s -> Result.map ignore (Bundle.of_string s));
      decode = None;
      sealed = true;
      count = 2;
    };
    {
      name = "TEPCKPT1 generation";
      gen = from_samples (fun s -> s.s_ckpt);
      total = recover_from;
      decode = None;
      sealed = true;
      count = 1;
    };
    {
      name = "polynomial";
      gen = QCheck2.Gen.map Polynomial.encoded gen_poly;
      total = exact "polynomial" Polynomial.read;
      decode = Some (unit_decode Polynomial.decode);
      sealed = false;
      count = 20;
    };
    {
      name = "annotation";
      gen = one_of (fun s -> List.map Annot.encoded s.s_annots);
      total = (fun s -> Result.map ignore (Annot.of_encoded s));
      decode = Some (unit_decode Annot.decode);
      sealed = false;
      count = 4;
    };
    {
      name = "TEPANNOTS1 annotations";
      gen = from_samples (fun s -> Annot.list_to_string s.s_annots);
      total = (fun s -> Result.map ignore (Annot.list_of_string s));
      decode = None;
      sealed = false;
      count = 1;
    };
    {
      name = "request";
      gen = one_of sample_request;
      total = (fun s -> Result.map ignore (Message.decode_request_exact s 0));
      decode = Some (unit_decode Message.decode_request);
      sealed = false;
      count = 4;
    };
    {
      name = "response";
      gen = one_of sample_response;
      total = (fun s -> Result.map ignore (Message.decode_response_exact s 0));
      decode = Some (unit_decode Message.decode_response);
      sealed = false;
      count = 4;
    };
  ]

(* One root with thousands of children, as a wide table's forest has
   rows: decoding stays within the same allocation budget.  Inserting
   each child into its parent's sorted list once copied the list, so
   this cost grew with the square of the width. *)
let test_wide_forest () =
  let f = Forest.create () in
  let root = ok (Forest.insert f (Value.Text "db")) in
  for i = 1 to 4000 do
    ignore (ok (Forest.insert ~parent:root f (Value.Int i)))
  done;
  let s = encode_with Forest.encode f in
  let before = allocated () in
  let f' = ok (Codec.exact ~what:"forest" Forest.read s) in
  let alloc = allocated () -. before in
  Alcotest.(check int) "children" 4000 (List.length (Forest.children f' root));
  if alloc > (alloc_per_byte *. float (String.length s)) +. alloc_const then
    Alcotest.failf "%d bytes allocated %.0f bytes" (String.length s) alloc

let damage_properties =
  List.map
    (fun fmt ->
      QCheck2.Test.make ~name:fmt.name ~count:fmt.count
        ~print:(fun s -> Printf.sprintf "%S" s)
        fmt.gen (survives_damage fmt))
    formats

let () =
  Alcotest.run "formats"
    [
      ( "files",
        [ Alcotest.test_case "known answers" `Quick test_known_answers ] );
      ( "damage",
        Alcotest.test_case "wide forest" `Quick test_wide_forest
        :: List.map
             (fun p ->
               QCheck_alcotest.to_alcotest
                 ~rand:(Random.State.make [| 27 |])
                 p)
             damage_properties );
    ]
