(* HMAC-DRBG per SP 800-90A (simplified: no personalisation string,
   no explicit reseed counter limit — callers reseed at will), over
   HMAC-SHA256.

   The whole state is one 128-byte buffer: the key K's two HMAC
   midstates (the SHA-256 states after its ipad and its opad block),
   K and V.  Every HMAC whose message is V, or V and a separator byte,
   is one call of the C step in compress.c, which lays out its padded
   blocks on the stack: V = HMAC(K, V) is two compressions, and K =
   HMAC(K, V || sep) four, the key schedule of the new K included.  So
   a draw allocates nothing, and [uniform_int]'s, [generate] of 8
   bytes and then [update ""], is eight compressions in three calls.
   Only [update] with non-empty data, at [create] and [reseed], hashes
   a longer message: it runs on {!Hmac}. *)

let outlen = 32

type t = Bytes.t

let state_bytes = 128
let key_off = 64
let v_off = 96

external step : Bytes.t -> int -> sha_ni:bool -> unit = "tep_hmac_drbg_step"
[@@noalloc]

(* The step's three ops: V = HMAC(K, V); K = HMAC(K, V || sep), then
   the key schedule; the key schedule alone. *)
let next_v t = step t (-1) ~sha_ni:Block_hash.sha_ni
let rekey t sep = step t sep ~sha_ni:Block_hash.sha_ni
let set_key t = step t (-2) ~sha_ni:Block_hash.sha_ni

(* K = HMAC(K, V || sep || provided) for a non-empty [provided]. *)
let seed_key t sep provided =
  let key = Bytes.sub_string t key_off outlen in
  let msg = Bytes.sub_string t v_off outlen ^ sep ^ provided in
  Bytes.blit_string (Hmac.mac ~algo:Digest_algo.SHA256 ~key msg) 0 t key_off
    outlen;
  set_key t

(* The SP 800-90A update function. *)
let update t provided =
  if provided = "" then begin
    rekey t 0;
    next_v t
  end
  else begin
    seed_key t "\x00" provided;
    next_v t;
    seed_key t "\x01" provided;
    next_v t
  end

let create ~seed =
  let t = Bytes.make state_bytes '\000' in
  Bytes.fill t v_off outlen '\001';
  set_key t;
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
  let out = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    next_v t;
    let take = min outlen (n - !pos) in
    Bytes.blit t v_off out !pos take;
    pos := !pos + take
  done;
  update t "";
  Bytes.unsafe_to_string out

let byte_source t n = generate t n

(* Rejection sampling on 62-bit draws: the first 8 bytes of
   [generate t 8], big-endian, top two bits dropped.  Read straight
   from V, 16 bits at a time (an int64 read would box in bytecode),
   so that a draw allocates nothing. *)
let rec draw t bound limit =
  next_v t;
  let x =
    ((Bytes.get_uint16_be t v_off lsl 48)
    lor (Bytes.get_uint16_be t (v_off + 2) lsl 32)
    lor (Bytes.get_uint16_be t (v_off + 4) lsl 16)
    lor Bytes.get_uint16_be t (v_off + 6))
    land max_int
  in
  update t "";
  if x >= limit then draw t bound limit else x mod bound

let uniform_int t bound =
  if bound <= 0 then invalid_arg "Drbg.uniform_int: bound <= 0";
  if bound = 1 then 0 else draw t bound (max_int - (max_int mod bound))
