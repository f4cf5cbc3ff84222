(* In-memory span recorder for the traced replay.

   A span is one call into a layer's public function, timed from the
   benchmark's side of the call: name ("layer.what"), start, end, the
   span that caused it, and the request it belongs to.  [daemon] marks
   work the daemon does for that request (as opposed to the client's
   share), so the daemon's CPU can be compared with the traced daemon
   work.  Spans stay in memory until [to_json] writes them out at the
   end of the run.

   A disabled recorder runs the same calls without recording anything;
   timing the whole replay both ways gives the tracing overhead. *)

type span = {
  id : int;
  name : string;
  parent : int; (* -1: a top-level span *)
  req : int;
  daemon : bool;
  start : float;
  stop : float;
}

type t = {
  enabled : bool;
  mutable spans : span list; (* newest first *)
  mutable stack : int list; (* open spans, innermost first *)
  mutable next : int;
}

let create ~enabled = { enabled; spans = []; stack = []; next = 0 }
let now = Unix.gettimeofday
let spans t = List.rev t.spans

(* The innermost open span, or -1. *)
let current t = match t.stack with p :: _ -> p | [] -> -1

(* A span with a known interval but no call of its own to wrap: the
   stages inside one engine commit, timed by the engine's own counters.
   Returns its id so it can parent further such spans. *)
let record t ?(daemon = true) ~req ~parent name start stop =
  let id = t.next in
  t.next <- id + 1;
  if t.enabled then t.spans <- { id; name; parent; req; daemon; start; stop } :: t.spans;
  id

(* Time [f ()] as a span; nested [with_span] calls become its
   children.  The span is recorded even when [f] raises. *)
let with_span t ?(daemon = true) ~req name f =
  if not t.enabled then f ()
  else begin
    let parent = current t in
    (* reserve the id now so children can name their parent *)
    let id = t.next in
    t.next <- id + 1;
    t.stack <- id :: t.stack;
    let start = now () in
    let finish () =
      let stop = now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; parent; req; daemon; start; stop } :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Self time of every span: its duration minus the part of its
   interval that its children cover.  Children are clipped to the
   parent's interval and their union is taken, so overlapping children
   are not subtracted twice. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.filter_map (fun c ->
               let a = Float.max c.start s.start and b = Float.min c.stop s.stop in
               if b > a then Some (a, b) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) kids
      in
      (s, Float.max 0. (s.stop -. s.start -. covered)))
    spans

type totals = { self : float; dur : float; count : int }

(* Self time, duration and count summed per span name. *)
let by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let p = Option.value (Hashtbl.find_opt tbl s.name) ~default:{ self = 0.; dur = 0.; count = 0 } in
      Hashtbl.replace tbl s.name
        { self = p.self +. self; dur = p.dur +. (s.stop -. s.start); count = p.count + 1 })
    (self_times spans);
  tbl

let to_json spans =
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Num (float_of_int s.id));
             ("name", Json.Str s.name);
             ("parent", Json.Num (float_of_int s.parent));
             ("req", Json.Num (float_of_int s.req));
             ("daemon", Json.Bool s.daemon);
             ("start", Json.Num s.start);
             ("end", Json.Num s.stop);
           ])
       spans)
