(* Hot leaf→root membership proofs (encoded), keyed by leaf oid.  A
   bounded LRU: a proof built at epoch e is replayable verbatim until
   the next commit on its shard bumps the epoch — writes to other
   shards leave it warm.  No lock of its own: the owner serialises
   every call. *)

module Oid = Tep_tree.Oid

let capacity = 256

type entry = {
  epoch : int;
  bytes : string; (* Proof.to_string form, ready for the wire *)
  mutable last : int; (* tick at last use *)
}

type t = { cache : (Oid.t, entry) Hashtbl.t; mutable tick : int }

let create () = { cache = Hashtbl.create 64; tick = 0 }

(* Evict the least recently used entry — O(capacity) scan, only when
   full, with the capacity small and bounded. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun o e ->
      match !victim with
      | Some (_, last) when last <= e.last -> ()
      | _ -> victim := Some (o, e.last))
    t.cache;
  Option.iter (fun (o, _) -> Hashtbl.remove t.cache o) !victim

let find_or_build t ~epoch oid build =
  t.tick <- t.tick + 1;
  let cached = Hashtbl.find_opt t.cache oid in
  match cached with
  | Some entry when entry.epoch = epoch ->
      entry.last <- t.tick;
      Ok (entry.bytes, `Hit)
  | _ -> (
      match build oid with
      | Error e -> Error e
      | Ok bytes ->
          if Option.is_none cached && Hashtbl.length t.cache >= capacity then
            evict_lru t;
          Hashtbl.replace t.cache oid { epoch; bytes; last = t.tick };
          Ok (bytes, `Miss))
