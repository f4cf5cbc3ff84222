(* Buffering, padding and finalisation for the three 64-byte-block
   hashes, over their C compressions in compress.c. *)

external sha256_compress_portable : Bytes.t -> Bytes.t -> int -> unit
  = "tep_sha256_compress"
[@@noalloc]

external sha256_compress_ni : Bytes.t -> Bytes.t -> int -> unit
  = "tep_sha256_compress_ni"
[@@noalloc]

external sha_ni_available : unit -> bool = "tep_sha_ni_available" [@@noalloc]

external sha1_compress : Bytes.t -> Bytes.t -> int -> unit
  = "tep_sha1_compress"
[@@noalloc]

external md5_compress : Bytes.t -> Bytes.t -> int -> unit = "tep_md5_compress"
[@@noalloc]

type spec = {
  compress : Bytes.t -> Bytes.t -> int -> unit;
      (* [compress state src off]: one block of [src] from [off] *)
  iv : Bytes.t; (* the initial state, native-endian uint32 words *)
  big_endian : bool; (* word order of the block, the length and the digest *)
}

(* The digest is the whole final state, so its size is the state's. *)
let spec compress ~big_endian iv =
  let b = Bytes.create (4 * Array.length iv) in
  Array.iteri (fun i w -> Bytes.set_int32_ne b (4 * i) (Int32.of_int w)) iv;
  { compress; iv = b; big_endian }

(* The SHA-256 kernel is chosen once, here: the SHA-extension one when
   the CPU has the instructions, the portable one otherwise. *)
let sha_ni = sha_ni_available ()

let sha256 =
  spec
    (if sha_ni then sha256_compress_ni else sha256_compress_portable)
    ~big_endian:true
    [|
      0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
      0x1f83d9ab; 0x5be0cd19;
    |]

let sha1 =
  spec sha1_compress ~big_endian:true
    [| 0x67452301; 0xefcdab89; 0x98badcfe; 0x10325476; 0xc3d2e1f0 |]

let md5 =
  spec md5_compress ~big_endian:false
    [| 0x67452301; 0xefcdab89; 0x98badcfe; 0x10325476 |]

type ctx = {
  spec : spec;
  state : Bytes.t;
  buf : Bytes.t; (* the partial block *)
  mutable buf_len : int;
  mutable total : int; (* bytes fed *)
}

let init spec =
  { spec; state = Bytes.copy spec.iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

let reset ctx =
  Bytes.blit ctx.spec.iv 0 ctx.state 0 (Bytes.length ctx.state);
  ctx.buf_len <- 0;
  ctx.total <- 0

let copy ctx = { ctx with state = Bytes.copy ctx.state; buf = Bytes.copy ctx.buf }

let compress spec = spec.compress

(* The caller has checked the window. *)
let absorb ctx src off len =
  let compress = ctx.spec.compress and stop = off + len in
  ctx.total <- ctx.total + len;
  let pos = ref off in
  if ctx.buf_len > 0 then begin
    let take = min len (64 - ctx.buf_len) in
    Bytes.blit src off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = 64 then begin
      compress ctx.state ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks are compressed in place from the input, with no
     copy: the kernel only reads its source. *)
  while stop - !pos >= 64 do
    compress ctx.state src !pos;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit src !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let update_sub ctx s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Block_hash.update_sub";
  absorb ctx (Bytes.unsafe_of_string s) off len

let update ctx s = update_sub ctx s 0 (String.length s)

(* Padding: 0x80, zeros, then the message length in bits as 8 bytes
   at the end of a block; a second block when the first has no room.
   The stdlib accessors used here are inlined, so no Int32 or Int64 is
   boxed. *)
let final ctx =
  (* Destructured here, not in the parameter: a pattern there would
     split the function and allocate a closure per call. *)
  let { spec; state; buf; buf_len; total } = ctx in
  Bytes.set buf buf_len '\x80';
  if buf_len >= 56 then begin
    Bytes.fill buf (buf_len + 1) (63 - buf_len) '\000';
    spec.compress state buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (buf_len + 1) (55 - buf_len) '\000';
  let bits = Int64.of_int (total * 8) in
  if spec.big_endian then Bytes.set_int64_be buf 56 bits
  else Bytes.set_int64_le buf 56 bits;
  spec.compress state buf 0;
  let out = Bytes.create (Bytes.length state) in
  for i = 0 to (Bytes.length state / 4) - 1 do
    let w = Bytes.get_int32_ne state (4 * i) in
    if spec.big_endian then Bytes.set_int32_be out (4 * i) w
    else Bytes.set_int32_le out (4 * i) w
  done;
  Bytes.unsafe_to_string out

(* One-shot digests allocate a fresh context: they run concurrently
   from sys-threads sharing a domain, so no shared mutable state. *)
let digest spec s =
  let ctx = init spec in
  update ctx s;
  final ctx

let to_hex s =
  let digits = "0123456789abcdef" in
  String.init
    (2 * String.length s)
    (fun i ->
      let c = Char.code s.[i / 2] in
      digits.[if i land 1 = 0 then c lsr 4 else c land 15])
