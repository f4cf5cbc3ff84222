open Tep_store
open Tep_tree

type t = {
  algo : Tep_crypto.Digest_algo.algo;
  by_object : Record.t list ref Oid.Tbl.t; (* newest first *)
  (* The keys of [by_object], in two ordered parts: [newest] holds,
     descending, each object whose oid was above every object's before
     it; [older], the rest (late objects: mostly imports of objects
     older than the store).  Oids are allocated in increasing order,
     so most objects go on [newest] in O(1). *)
  mutable newest : Oid.t list;
  mutable older : Oid.Set.t;
  by_checksum : (string, Record.t) Hashtbl.t;
  aggregated_into : Oid.t list Oid.Tbl.t;
      (* aggregate input -> outputs citing it, each once, newest first *)
  mutable arrival : Record.t list; (* newest first *)
  mutable count : int;
}

let relation_schema =
  Schema.make
    [
      { Schema.name = "SeqID"; ty = Value.TInt; nullable = false };
      { Schema.name = "Participant"; ty = Value.TInt; nullable = false };
      { Schema.name = "Oid"; ty = Value.TInt; nullable = false };
      { Schema.name = "Checksum"; ty = Value.TBlob; nullable = false };
    ]

let create ?(algo = Tep_crypto.Digest_algo.SHA1) () =
  {
    algo;
    by_object = Oid.Tbl.create 1024;
    newest = [];
    older = Oid.Set.empty;
    by_checksum = Hashtbl.create 1024;
    aggregated_into = Oid.Tbl.create 256;
    arrival = [];
    count = 0;
  }

let algo t = t.algo

let aggregated_into t oid =
  Option.value (Oid.Tbl.find_opt t.aggregated_into oid) ~default:[]

let append t (r : Record.t) =
  let chain =
    match Oid.Tbl.find_opt t.by_object r.Record.output_oid with
    | Some c -> c
    | None ->
        let c = ref [] in
        Oid.Tbl.replace t.by_object r.Record.output_oid c;
        (match t.newest with
        | top :: _ when Oid.compare r.Record.output_oid top < 0 ->
            t.older <- Oid.Set.add r.Record.output_oid t.older
        | _ -> t.newest <- r.Record.output_oid :: t.newest);
        c
  in
  (match !chain with
  | prev :: _ when prev.Record.seq_id >= r.Record.seq_id ->
      invalid_arg
        (Printf.sprintf
           "Provstore.append: seq %d for %s not greater than existing %d"
           r.Record.seq_id
           (Oid.to_string r.Record.output_oid)
           prev.Record.seq_id)
  | _ -> ());
  chain := r :: !chain;
  Hashtbl.replace t.by_checksum r.Record.checksum r;
  if r.Record.kind = Record.Aggregate then
    List.iter
      (fun input ->
        let outs = aggregated_into t input in
        let out = r.Record.output_oid in
        if not (List.exists (Oid.equal out) outs) then
          Oid.Tbl.replace t.aggregated_into input (out :: outs))
      r.Record.input_oids;
  t.arrival <- r :: t.arrival;
  t.count <- t.count + 1

let latest t oid =
  match Oid.Tbl.find_opt t.by_object oid with
  | Some { contents = r :: _ } -> Some r
  | _ -> None

let records_for t oid =
  match Oid.Tbl.find_opt t.by_object oid with
  | Some c -> List.rev !c
  | None -> []

let find_by_checksum t c = Hashtbl.find_opt t.by_checksum c

let provenance_object t oid =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let rec visit (r : Record.t) =
    if not (Hashtbl.mem seen r.Record.checksum) then begin
      Hashtbl.replace seen r.Record.checksum ();
      out := r :: !out;
      List.iter
        (fun c ->
          match find_by_checksum t c with
          | Some pred -> visit pred
          | None -> () (* dangling edge: the verifier will flag it *))
        r.Record.prev_checksums
    end
  in
  List.iter visit (records_for t oid);
  List.sort Record.compare_seq !out

let all t = List.rev t.arrival

let record_count t = t.count

let object_count t = Oid.Tbl.length t.by_object

(* Both parts walked from the largest oid down, so the merge conses
   its result in ascending order. *)
let objects t =
  let rec merge acc newest older =
    match (newest, older) with
    | [], rest | rest, [] -> List.rev_append rest acc
    | a :: n, b :: o ->
        if Oid.compare a b > 0 then merge (a :: acc) n older
        else merge (b :: acc) newest o
  in
  merge [] t.newest (Oid.Set.fold List.cons t.older [])

let relation t =
  let rel = Table.create ~name:"provenance" relation_schema in
  (* participants numbered by first appearance *)
  let ids = Hashtbl.create 16 in
  let participant_id name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.replace ids name i;
        i
  in
  List.iter
    (fun (r : Record.t) ->
      ignore
        (Table.insert rel
           [|
             Value.Int r.Record.seq_id;
             Value.Int (participant_id r.Record.participant);
             Value.Int (Oid.to_int r.Record.output_oid);
             Value.Blob r.Record.checksum;
           |]))
    (all t);
  rel

let space_bytes t =
  let buf = Buffer.create 4096 in
  Table.encode buf (relation t);
  Buffer.length buf

let paper_row_bytes = 4 + 4 + 4 + 128

let paper_space_bytes t = t.count * paper_row_bytes

let prune t ~live =
  let keep = Hashtbl.create 1024 in
  List.iter
    (fun oid ->
      List.iter
        (fun (r : Record.t) -> Hashtbl.replace keep r.Record.checksum ())
        (provenance_object t oid))
    live;
  let t' = create ~algo:t.algo () in
  (* arrival order preserves per-object seq monotonicity *)
  List.iter
    (fun (r : Record.t) ->
      if Hashtbl.mem keep r.Record.checksum then append t' r)
    (all t);
  t'

let magic = "TEPPROV1"

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_string buf (Tep_crypto.Digest_algo.name t.algo);
  Buffer.add_char buf '\n';
  Value.add_varint buf t.count;
  List.iter (fun r -> Record.encode buf r) (all t);
  Buffer.contents buf

let read r =
  Codec.magic r magic;
  let algo_name = Codec.line r in
  match Tep_crypto.Digest_algo.of_name algo_name with
  | None -> Codec.fail r "unknown algo %s" algo_name
  | Some algo ->
      let t = create ~algo () in
      for _ = 1 to Codec.count r do
        let record = Record.read r in
        match append t record with
        | () -> ()
        | exception Invalid_argument e -> Codec.fail r "%s" e
      done;
      t

let of_string = Codec.exact ~what:"provstore" read
