(* Host speed probes.

   The host this benchmark was written on is shared with other tenants,
   and the speed of each of its cores drifts by up to 2x, in phases of
   seconds to minutes, for every program on it: the daemon, the client
   and any reference loop alike.  A probe is a low-priority process
   pinned to one core that runs a fixed kernel every [period] seconds
   and reports the CPU time the kernel took.  The kernel mixes the three
   kinds of work the daemon does: integer arithmetic (RSA's bignums),
   memory-latency-bound pointer chasing (the Merkle tree and the
   provenance store) and short-lived allocation (message and record
   codecs).  It is code of this benchmark, so no change to the daemon
   changes it.

   A probe measures its kernel in CPU time, so it does not matter how
   long the scheduler leaves it waiting behind the daemon; what it sees
   is how fast the core runs while it does run.  The benchmark divides
   its timings by [factor], the probes' median kernel time in the same
   interval over [reference_s], to express them at the reference speed.
   A pure arithmetic kernel tracked the workloads less well than this
   mix: it swings more than they do in some phases and less in others. *)

open Proc

(* The kernel's CPU time at the reference speed: about what it takes on
   the host this benchmark was written on in a calm phase. *)
let reference_s = 0.001
let period = 0.05
let limbs = 24

(* Integer arithmetic: a schoolbook product of two 24-limb numbers in
   30-bit limbs, like the bignum code under RSA. *)
let arith () =
  let a = Array.init limbs (fun i -> ((i * 7919) + 13) land 0x3fffffff) in
  let acc = Array.make (2 * limbs) 0 in
  let check = ref 0 in
  for r = 1 to 300 do
    Array.fill acc 0 (2 * limbs) 0;
    a.(0) <- r;
    for i = 0 to limbs - 1 do
      let carry = ref 0 in
      for j = 0 to limbs - 1 do
        let s = acc.(i + j) + (a.(i) * a.(j)) + !carry in
        acc.(i + j) <- s land 0x3fffffff;
        carry := s lsr 30
      done;
      acc.(i + limbs) <- !carry
    done;
    check := !check lxor acc.(limbs)
  done;
  !check

(* Memory latency: a pointer chase over a 16 MB random cycle, far
   larger than the caches, like walking the Merkle tree and the
   provenance store. *)
let cycle_len = 1 lsl 21

let cycle =
  lazy
    (let a = Array.init cycle_len Fun.id in
     let st = Random.State.make [| 7 |] in
     (* Sattolo's shuffle: one cycle through every slot *)
     for i = cycle_len - 1 downto 1 do
       let j = Random.State.int st i in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let chase () =
  let a = Lazy.force cycle in
  let p = ref 0 in
  for _ = 1 to 2000 do
    p := a.(!p)
  done;
  !p

(* Short-lived allocation, collected by the minor heap, like decoding
   and encoding messages and records. *)
let churn () =
  let check = ref 0 in
  for r = 1 to 25 do
    let l = List.init 1000 (fun i -> (i, r)) in
    check := List.fold_left (fun acc (a, b) -> acc lxor (a * b)) !check l
  done;
  !check

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let kernel () = arith () lxor chase () lxor churn ()

(* The probe process: one line "WALL KERNEL_CPU_S" per kernel run,
   until it is killed or its parent goes away. *)
let main () =
  ignore (Unix.nice 19);
  ignore (Lazy.force cycle);
  let parent = Unix.getppid () in
  while Unix.getppid () = parent do
    let c0 = cpu_now () in
    ignore (Sys.opaque_identity (kernel ()));
    Printf.printf "%.6f %.9f\n%!" (Unix.gettimeofday ()) (cpu_now () -. c0);
    Unix.sleepf period
  done

type t = { pids : int list; files : string list }

let taskset =
  lazy
    (List.find_map
       (fun dir ->
         let f = Filename.concat dir "taskset" in
         if dir <> "" && Sys.file_exists f then Some f else None)
       (String.split_on_char ':' (Option.value (Sys.getenv_opt "PATH") ~default:"")))

(* One probe per core, pinned with taskset where the host has it.
   Returns once every probe has reported its first sample (its set-up
   builds the pointer-chase cycle, which is not to overlap the timing),
   or after 10 s. *)
let start ~dir =
  let files = List.init (host_cores ()) (fun k -> dir // Printf.sprintf "probe-%d.txt" k) in
  let pids =
    List.mapi
      (fun k file ->
        (try Sys.remove file with Sys_error _ -> ());
        match Lazy.force taskset with
        | Some ts ->
            spawn ~log_file:file ts [ "-c"; string_of_int k; Sys.executable_name; "probe" ]
        | None -> spawn ~log_file:file Sys.executable_name [ "probe" ])
      files
  in
  let deadline = Unix.gettimeofday () +. 10. in
  let reported f = try (Unix.stat f).Unix.st_size > 0 with Unix.Unix_error _ -> false in
  while Unix.gettimeofday () < deadline && not (List.for_all reported files) do
    Unix.sleepf 0.01
  done;
  { pids; files }

(* Stop the probes; their samples, (time, kernel CPU seconds), in time
   order. *)
let stop p =
  List.iter (fun pid -> ignore (signal_and_wait pid Sys.sigkill)) p.pids;
  let samples =
    List.concat_map
      (fun f ->
        let lines = String.split_on_char '\n' (read_file f) in
        Sys.remove f;
        List.filter_map
          (fun l ->
            match List.map float_of_string_opt (String.split_on_char ' ' l) with
            | [ Some t; Some c ] -> Some (t, c)
            | _ -> None)
          lines)
      p.files
  in
  List.sort compare samples

(* How much slower than the reference the host ran over [a, b]: the
   median kernel time of the samples taken then (or, for a short
   interval, of the nearest ones), over [reference_s]. *)
let factor samples a b =
  let m = Provbench_lib.Stats.median_during samples a b in
  if Float.is_nan m then 1. else m /. reference_s
