(* HMAC-DRBG per SP 800-90A (simplified: no personalisation string,
   no explicit reseed counter limit — callers reseed at will). *)

let algo = Digest_algo.SHA256
let outlen = 32

(* The key is kept only as its HMAC midstates: it is set once per
   update and then MACs one or two messages, so hashing its padded
   blocks once per key, not once per MAC, saves a third of the
   compressions of a draw. *)
type t = { mutable k : Hmac.ctx; mutable v : string }

let rekey t m = t.k <- Hmac.context ~algo ~key:(Hmac.mac_with t.k m)

(* The SP 800-90A update function. *)
let update t provided =
  rekey t (t.v ^ "\x00" ^ provided);
  t.v <- Hmac.mac_with t.k t.v;
  if provided <> "" then begin
    rekey t (t.v ^ "\x01" ^ provided);
    t.v <- Hmac.mac_with t.k t.v
  end

let create ~seed =
  let t =
    {
      k = Hmac.context ~algo ~key:(String.make outlen '\000');
      v = String.make outlen '\001';
    }
  in
  update t seed;
  t

let create_system () =
  let entropy =
    try
      let ic = open_in_bin "/dev/urandom" in
      let s = really_input_string ic 48 in
      close_in ic;
      s
    with _ ->
      Printf.sprintf "%d-%f-%d" (Unix.getpid ()) (Unix.gettimeofday ())
        (Hashtbl.hash (Sys.getcwd ()))
  in
  create ~seed:entropy

let reseed t extra = update t extra

let generate t n =
  if n < 0 then invalid_arg "Drbg.generate: negative length";
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    t.v <- Hmac.mac_with t.k t.v;
    Buffer.add_string buf t.v
  done;
  update t "";
  String.sub (Buffer.contents buf) 0 n

let byte_source t n = generate t n

let uniform_int t bound =
  if bound <= 0 then invalid_arg "Drbg.uniform_int: bound <= 0";
  if bound = 1 then 0
  else begin
    (* Rejection sampling on 62-bit draws. *)
    let limit = max_int - (max_int mod bound) in
    let rec draw () =
      let s = generate t 8 in
      let x = ref 0 in
      String.iter (fun c -> x := ((!x lsl 8) lor Char.code c)) s;
      let x = !x land max_int in
      if x >= limit then draw () else x mod bound
    in
    draw ()
  end
