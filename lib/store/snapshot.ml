let magic = "TEPSNAP1"

(* Failpoint prefix (see Tep_fault.Fault); registered at load time so
   the crash harness can enumerate the sites. *)
let site = Durable.site "snapshot.save"

let to_string db =
  let buf = Buffer.create 4096 in
  Database.encode buf db;
  Container.seal ~magic (Buffer.contents buf)

let of_string s =
  Codec.run (fun () ->
      let r = Container.open_ ~what:"snapshot" ~magic s in
      let db = Database.read r in
      Codec.finish r;
      db)

let save db path = Durable.replace site path (to_string db)

let load path =
  match Durable.read path with
  | s -> of_string s
  | exception Sys_error e -> Error e
