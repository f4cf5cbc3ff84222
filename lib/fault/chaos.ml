(* Socket-level chaos proxy.

   Sits between a real client and a real server on Unix-domain
   sockets and injects network faults into the forwarded byte stream:
   chunk splits (partial reads/writes at the peer), delays, one-bit
   corruption, and whole-connection drops.  All fault decisions come
   from per-connection, per-direction HMAC-DRBGs derived from one seed
   string, so a soak run's fault pattern is reproducible from its
   seed: connection [n]'s client->server stream always sees the same
   decision sequence, independent of what the other direction or other
   connections are doing.

   The proxy never invents bytes and never reorders within a
   direction: apart from an occasional flipped bit (which the frame
   CRC or the session MAC catches downstream) the stream is either
   prefix-faithful or dead.  That makes it the right adversary for the
   exactly-once guarantees: every observable failure is one the
   wire+session layers are supposed to convert into a clean connection
   death, and the client's reconnect-and-replay plus the server's
   request-id dedup must turn it into no duplicate and no loss. *)

type profile = {
  p_split : int; (* per-chunk odds /1024: forward in two writes *)
  p_delay : int; (* per-chunk odds /1024: sleep before forwarding *)
  p_corrupt : int; (* per-chunk odds /1024: flip one bit *)
  p_drop : int; (* per-chunk odds /1024: kill the connection *)
  max_delay_s : float; (* delay upper bound *)
}

let default_profile =
  { p_split = 200; p_delay = 80; p_corrupt = 25; p_drop = 25; max_delay_s = 0.01 }

type t = {
  listen_fd : Unix.file_descr;
  stop : bool Atomic.t;
  accept_thread : Thread.t option ref;
  connections : int Atomic.t; (* accepted so far *)
  faults : int Atomic.t; (* injected fault events *)
  profile : profile;
  seed : string;
  upstream : string;
}

let faults t = Atomic.get t.faults

let write_all fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let flip_bit drbg data =
  let b = Bytes.of_string data in
  let bit = Tep_crypto.Drbg.uniform_int drbg (8 * Bytes.length b) in
  let i = bit / 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

let shutdown_both a b =
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    [ a; b ]

(* One direction of one connection: read from [src], shape, forward to
   [dst].  Exits on EOF, on an injected drop, or when the other
   direction already tore the connection down. *)
let pump t drbg src dst =
  let p = t.profile in
  let chunk = Bytes.create 2048 in
  let fault () = Atomic.incr t.faults in
  let roll odds = Tep_crypto.Drbg.uniform_int drbg 1024 < odds in
  (try
     let run = ref true in
     while !run do
       match Unix.read src chunk 0 (Bytes.length chunk) with
       | 0 -> run := false
       | n ->
           if roll p.p_drop then begin
             fault ();
             run := false
           end
           else begin
             let data = Bytes.sub_string chunk 0 n in
             let data =
               if roll p.p_corrupt then begin
                 fault ();
                 flip_bit drbg data
               end
               else data
             in
             if roll p.p_delay then begin
               fault ();
               Thread.delay
                 (t.profile.max_delay_s
                 *. float_of_int (Tep_crypto.Drbg.uniform_int drbg 1024)
                 /. 1024.)
             end;
             if roll p.p_split && String.length data > 1 then begin
               fault ();
               let cut =
                 1 + Tep_crypto.Drbg.uniform_int drbg (String.length data - 1)
               in
               write_all dst (String.sub data 0 cut);
               Thread.yield ();
               write_all dst
                 (String.sub data cut (String.length data - cut))
             end
             else write_all dst data
           end
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  (* one side dying kills the whole connection, like a real TCP reset *)
  shutdown_both src dst

let handle t client_fd =
  let id = Atomic.fetch_and_add t.connections 1 in
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd (Unix.ADDR_UNIX t.upstream);
      fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  with
  | exception Unix.Unix_error _ ->
      (try Unix.close client_fd with Unix.Unix_error _ -> ())
  | server_fd ->
      let dir_drbg dir =
        Tep_crypto.Drbg.create
          ~seed:(Printf.sprintf "%s/%d/%s" t.seed id dir)
      in
      let up =
        Thread.create
          (fun () -> pump t (dir_drbg "c2s") client_fd server_fd)
          ()
      in
      pump t (dir_drbg "s2c") server_fd client_fd;
      Thread.join up;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ client_fd; server_fd ]

let start ?(profile = default_profile) ~seed ~listen ~upstream () =
  (try Unix.unlink listen with Unix.Unix_error _ | Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX listen)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd 16;
  let t =
    {
      listen_fd = fd;
      stop = Atomic.make false;
      accept_thread = ref None;
      connections = Atomic.make 0;
      faults = Atomic.make 0;
      profile;
      seed;
      upstream;
    }
  in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get t.stop) do
          match Unix.select [ fd ] [] [] 0.1 with
          | [], _, _ -> ()
          | _ -> (
              match Unix.accept fd with
              | cfd, _ -> ignore (Thread.create (fun () -> handle t cfd) ())
              | exception Unix.Unix_error _ -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        try Unix.close fd with Unix.Unix_error _ -> ())
      ()
  in
  t.accept_thread := Some th;
  t

let stop t =
  Atomic.set t.stop true;
  (match !(t.accept_thread) with Some th -> Thread.join th | None -> ());
  ignore t.listen_fd
