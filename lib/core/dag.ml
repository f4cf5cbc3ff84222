open Tep_tree

type node = {
  record : Record.t;
  predecessors : int list;
  successors : int list;
}

type t = { nodes : node array; dangling : (int * string) list }

let build records =
  let records = List.sort Record.compare_seq records in
  let arr = Array.of_list records in
  let n = Array.length arr in
  let index = Hashtbl.create n in
  Array.iteri
    (fun i (r : Record.t) -> Hashtbl.replace index r.Record.checksum i)
    arr;
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  let dangling = ref [] in
  Array.iteri
    (fun i (r : Record.t) ->
      List.iter
        (fun c ->
          match Hashtbl.find_opt index c with
          | Some j ->
              preds.(i) <- j :: preds.(i);
              succs.(j) <- i :: succs.(j)
          | None -> dangling := (i, c) :: !dangling)
        r.Record.prev_checksums)
    arr;
  let nodes =
    Array.mapi
      (fun i r ->
        {
          record = r;
          predecessors = List.rev preds.(i);
          successors = List.rev succs.(i);
        })
      arr
  in
  { nodes; dangling = List.rev !dangling }

let size t = Array.length t.nodes
let dangling t = t.dangling

let roots t =
  Array.to_list
    (Array.of_seq
       (Seq.filter_map
          (fun i -> if t.nodes.(i).predecessors = [] then Some i else None)
          (Seq.init (size t) Fun.id)))

let topological t =
  let n = size t in
  let indegree = Array.map (fun nd -> List.length nd.predecessors) t.nodes in
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indegree;
  let out = ref [] and emitted = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    out := i :: !out;
    incr emitted;
    List.iter
      (fun j ->
        indegree.(j) <- indegree.(j) - 1;
        if indegree.(j) = 0 then Queue.add j queue)
      t.nodes.(i).successors
  done;
  if !emitted <> n then failwith "Dag.topological: cycle";
  List.rev !out

let is_linear t =
  Array.for_all
    (fun nd ->
      List.length nd.predecessors <= 1 && List.length nd.successors <= 1)
    t.nodes
  && List.length (roots t) <= 1

let records_of_participant t name =
  List.filter_map
    (fun nd ->
      if nd.record.Record.participant = name then Some nd.record else None)
    (Array.to_list t.nodes)

let depth t =
  let n = size t in
  if n = 0 then 0
  else begin
    let d = Array.make n 1 in
    List.iter
      (fun i ->
        List.iter
          (fun j -> if d.(i) + 1 > d.(j) then d.(j) <- d.(i) + 1)
          t.nodes.(i).successors)
      (topological t);
    Array.fold_left max 1 d
  end

let node_label (r : Record.t) =
  Printf.sprintf "%s\\n%s seq=%d\\n%s -> %s" r.Record.participant
    (Record.kind_name r.Record.kind)
    r.Record.seq_id
    (String.concat ","
       (List.map Oid.to_string r.Record.input_oids))
    (Oid.to_string r.Record.output_oid)

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph provenance {\n  rankdir=BT;\n";
  Array.iteri
    (fun i nd ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=box,label=\"%s\"];\n" i
           (node_label nd.record)))
    t.nodes;
  Array.iteri
    (fun i nd ->
      List.iter
        (fun j -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" j i))
        nd.predecessors)
    t.nodes;
  List.iter
    (fun (i, _) ->
      Buffer.add_string buf
        (Printf.sprintf "  missing_%d [shape=point]; missing_%d -> n%d [style=dashed];\n"
           i i i))
    t.dangling;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
