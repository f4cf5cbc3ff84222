(* HMAC-DRBG per SP 800-90A (simplified: no personalisation string,
   no explicit reseed counter limit — callers reseed at will), over
   HMAC-SHA256.

   A draw allocates nothing.  The key K is kept only as its two HMAC
   midstates, the SHA-256 contexts after its ipad and its opad block;
   V and the scratch are buffers allocated with the DRBG, and every
   HMAC runs on one working context: blit a midstate in, absorb,
   finish into a buffer.  A message of at most 55 bytes fits one
   padded block, so its HMAC is two compressions (inner and outer),
   and setting a key is two more.  [uniform_int]'s draw, [generate]
   of 8 bytes and then [update ""], is eight. *)

module H = Block_hash

let outlen = 32

type t = {
  inner : H.ctx; (* after the key's ipad block *)
  outer : H.ctx; (* after the key's opad block *)
  h : H.ctx; (* the hash being computed *)
  v : Bytes.t; (* V *)
  key : Bytes.t; (* the new key *)
  ipad : Bytes.t; (* the key block xor ipad: the key, then 0x36s *)
  opad : Bytes.t; (* the key block xor opad: the key, then 0x5cs *)
  tag : Bytes.t; (* the inner digest *)
}

(* [mac t sep provided dst]: HMAC(K, V || sep || provided) into the
   first [outlen] bytes of [dst].  [dst] may be [t.v]: V is read in
   full before the tag is written. *)
let mac t sep provided dst =
  H.blit ~src:t.inner ~dst:t.h;
  H.update_bytes t.h t.v 0 outlen;
  H.update t.h sep;
  H.update t.h provided;
  H.final_into t.h t.tag 0;
  H.blit ~src:t.outer ~dst:t.h;
  H.update_bytes t.h t.tag 0 outlen;
  H.final_into t.h dst 0

(* Hash the key block xor [pad] into [ctx]; [pad] repeats the byte of
   the padding in both halves of an int, so the key is xored two bytes
   at a time. *)
let absorb_key t ctx blk pad =
  for i = 0 to (outlen / 2) - 1 do
    Bytes.set_uint16_ne blk (2 * i) (Bytes.get_uint16_ne t.key (2 * i) lxor pad)
  done;
  H.reset ctx;
  H.update_bytes ctx blk 0 64

let set_key t =
  absorb_key t t.inner t.ipad 0x3636;
  absorb_key t t.outer t.opad 0x5c5c

(* K = HMAC(K, V || sep || provided). *)
let rekey t sep provided =
  mac t sep provided t.key;
  set_key t

(* V = HMAC(K, V). *)
let next_v t = mac t "" "" t.v

(* The SP 800-90A update function. *)
let update t provided =
  rekey t "\x00" provided;
  next_v t;
  if provided <> "" then begin
    rekey t "\x01" provided;
    next_v t
  end

let create ~seed =
  let t =
    {
      inner = H.init H.sha256;
      outer = H.init H.sha256;
      h = H.init H.sha256;
      v = Bytes.make outlen '\001';
      key = Bytes.make outlen '\000';
      ipad = Bytes.make 64 '\x36';
      opad = Bytes.make 64 '\x5c';
      tag = Bytes.create outlen;
    }
  in
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
    Bytes.blit t.v 0 out !pos take;
    pos := !pos + take
  done;
  update t "";
  Bytes.unsafe_to_string out

let byte_source t n = generate t n

(* Rejection sampling on 62-bit draws: the first 8 bytes of
   [generate t 8], big-endian, top two bits dropped.  Read straight
   from V (the inlined accessor boxes no Int64), so that a draw
   allocates nothing. *)
let rec draw t bound limit =
  next_v t;
  let x = Int64.to_int (Bytes.get_int64_be t.v 0) land max_int in
  update t "";
  if x >= limit then draw t bound limit else x mod bound

let uniform_int t bound =
  if bound <= 0 then invalid_arg "Drbg.uniform_int: bound <= 0";
  if bound = 1 then 0 else draw t bound (max_int - (max_int mod bound))
