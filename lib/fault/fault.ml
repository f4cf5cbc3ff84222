exception Crash of string

type action =
  | Crash_point
  | Torn_write of float
  | Bit_flip
  | Transient of int
  | Delay of float

type armed = {
  action : action;
  fire_at : int; (* absolute hit count at which the action fires *)
  mutable remaining : int; (* Transient: raises left before success *)
}

type site_state = { mutable hits : int; mutable armed : armed option }

let registry : (string, site_state) Hashtbl.t = Hashtbl.create 32
let armed_count = ref 0

let rng = ref (Tep_crypto.Drbg.create ~seed:"tep-fault")
let seed s = rng := Tep_crypto.Drbg.create ~seed:s

let get site =
  match Hashtbl.find_opt registry site with
  | Some st -> st
  | None ->
      let st = { hits = 0; armed = None } in
      Hashtbl.replace registry site st;
      st

let register site = ignore (get site)

let sites () =
  Hashtbl.fold (fun k _ acc -> k :: acc) registry []
  |> List.sort String.compare

let disarm site =
  let st = get site in
  if st.armed <> None then begin
    st.armed <- None;
    decr armed_count
  end

let arm ?(after = 1) site action =
  if after < 1 then invalid_arg "Fault.arm: after must be >= 1";
  let st = get site in
  disarm site;
  let remaining = match action with Transient n -> max 1 n | _ -> 1 in
  st.armed <- Some { action; fire_at = st.hits + after; remaining };
  incr armed_count

let reset () =
  Hashtbl.iter
    (fun _ st ->
      if st.armed <> None then decr armed_count;
      st.armed <- None;
      st.hits <- 0)
    registry

let enabled () = !armed_count > 0
let hit_count site = (get site).hits

(* Count a hit; if the armed action is due, return it (disarming
   one-shot actions, counting down transients). *)
let fire site =
  let st = get site in
  st.hits <- st.hits + 1;
  match st.armed with
  | Some a when st.hits >= a.fire_at -> (
      match a.action with
      | Crash_point | Torn_write _ | Bit_flip | Delay _ ->
          disarm site;
          Some a.action
      | Transient _ ->
          a.remaining <- a.remaining - 1;
          if a.remaining <= 0 then disarm site;
          Some a.action)
  | _ -> None

let transient_error site =
  Sys_error (Printf.sprintf "%s: injected transient I/O error" site)

let sleepf seconds = if seconds > 0. then Unix.sleepf seconds

let hit site =
  match fire site with
  | None -> ()
  | Some (Crash_point | Torn_write _ | Bit_flip) -> raise (Crash site)
  | Some (Transient _) -> raise (transient_error site)
  | Some (Delay s) -> sleepf s

let flip_one_bit data =
  if String.length data = 0 then data
  else begin
    let pos = Tep_crypto.Drbg.uniform_int !rng (String.length data) in
    let bit = Tep_crypto.Drbg.uniform_int !rng 8 in
    String.mapi
      (fun i c -> if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
      data
  end

let output site oc data =
  match fire site with
    | None -> output_string oc data
    | Some Crash_point -> raise (Crash site)
    | Some (Transient _) -> raise (transient_error site)
    | Some (Torn_write frac) ->
        let frac = if frac < 0. then 0. else if frac > 1. then 1. else frac in
        let n = int_of_float (frac *. float_of_int (String.length data)) in
        output_string oc (String.sub data 0 n);
        flush oc;
        raise (Crash site)
    | Some Bit_flip -> output_string oc (flip_one_bit data)
    | Some (Delay s) ->
        sleepf s;
        output_string oc data

let input site data =
  match fire site with
  | None -> data
  | Some Crash_point -> raise (Crash site)
  | Some (Transient _) -> raise (transient_error site)
  | Some (Torn_write frac) ->
      let frac = if frac < 0. then 0. else if frac > 1. then 1. else frac in
      let n = int_of_float (frac *. float_of_int (String.length data)) in
      String.sub data 0 n
  | Some Bit_flip -> flip_one_bit data
  | Some (Delay s) ->
      sleepf s;
      data

(* Byte-count shaping for non-blocking I/O sites: the caller is about
   to write (or read) [n] bytes and asks how many the fault layer will
   let through this attempt.  Torn_write yields a strictly partial
   count (the event loop must re-arm POLLOUT and finish later);
   Transient yields 0 for its k consecutive hits — an injected EAGAIN
   storm.  Unlike [output], nothing here raises except Crash_point:
   readiness loops treat short counts as normal kernel behaviour. *)
let allow site n =
  match fire site with
  | None -> n
  | Some Crash_point -> raise (Crash site)
  | Some (Torn_write frac) ->
      if n <= 1 then n
      else begin
        let frac =
          if frac < 0. then 0. else if frac > 1. then 1. else frac
        in
        let k = int_of_float (frac *. float_of_int n) in
        max 1 (min (n - 1) k)
      end
  | Some (Transient _) -> 0
  | Some Bit_flip -> n
  | Some (Delay s) ->
      sleepf s;
      n

let with_retry ?(attempts = 3) ?(backoff = fun _ -> ()) f =
  let rec go i =
    match f () with
    | v -> Ok v
    | exception Sys_error e ->
        if i + 1 >= attempts then Error e
        else begin
          backoff (i + 1);
          go (i + 1)
        end
  in
  go 0

type op =
  | Create of string
  | Write of string * string
  | Fsync of string
  | Rename of string * string
  | Unlink of string
  | Mkdir of string
  | Dir_fsync of string

let recorder : (op -> unit) option ref = ref None
let record op = match !recorder with Some f -> f op | None -> ()
