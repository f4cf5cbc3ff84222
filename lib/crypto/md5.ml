(* MD5 (RFC 1321) over 32-bit words emulated in native ints.
   Little-endian word encoding, unlike the SHA family. *)

let digest_size = 16
let mask32 = 0xffffffff

(* Per-round shift amounts and sine-derived constants. *)
let s =
  [|
    7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 5; 9; 14; 20;
    5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20; 4; 11; 16; 23; 4; 11; 16; 23; 4;
    11; 16; 23; 4; 11; 16; 23; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6;
    10; 15; 21;
  |]

let k =
  [|
    0xd76aa478; 0xe8c7b756; 0x242070db; 0xc1bdceee; 0xf57c0faf; 0x4787c62a;
    0xa8304613; 0xfd469501; 0x698098d8; 0x8b44f7af; 0xffff5bb1; 0x895cd7be;
    0x6b901122; 0xfd987193; 0xa679438e; 0x49b40821; 0xf61e2562; 0xc040b340;
    0x265e5a51; 0xe9b6c7aa; 0xd62f105d; 0x02441453; 0xd8a1e681; 0xe7d3fbc8;
    0x21e1cde6; 0xc33707d6; 0xf4d50d87; 0x455a14ed; 0xa9e3e905; 0xfcefa3f8;
    0x676f02d9; 0x8d2a4c8a; 0xfffa3942; 0x8771f681; 0x6d9d6122; 0xfde5380c;
    0xa4beea44; 0x4bdecfa9; 0xf6bb4b60; 0xbebfbc70; 0x289b7ec6; 0xeaa127fa;
    0xd4ef3085; 0x04881d05; 0xd9d4d039; 0xe6db99e5; 0x1fa27cf8; 0xc4ac5665;
    0xf4292244; 0x432aff97; 0xab9423a7; 0xfc93a039; 0x655b59c3; 0x8f0ccc92;
    0xffeff47d; 0x85845dd1; 0x6fa87e4f; 0xfe2ce6e0; 0xa3014314; 0x4e0811a1;
    0xf7537e82; 0xbd3af235; 0x2ad7d2bb; 0xeb86d391;
  |]

type ctx = {
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable d : int;
  buf : Bytes.t;
  mutable buf_len : int;
  mutable total : int;
  m : int array; (* 16 message words *)
}

let init () =
  {
    a = 0x67452301;
    b = 0xefcdab89;
    c = 0x98badcfe;
    d = 0x10325476;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    m = Array.make 16 0;
  }

let reset ctx =
  ctx.a <- 0x67452301;
  ctx.b <- 0xefcdab89;
  ctx.c <- 0x98badcfe;
  ctx.d <- 0x10325476;
  ctx.buf_len <- 0;
  ctx.total <- 0

let copy ctx = { ctx with buf = Bytes.copy ctx.buf; m = Array.make 16 0 }

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

(* The caller guarantees [off + 64 <= Bytes.length block]; every index
   below is then in bounds, so the four specialised round loops use
   unsafe array/bytes access throughout. *)
let compress ctx block off =
  let m = ctx.m in
  for i = 0 to 15 do
    let j = off + (i * 4) in
    Array.unsafe_set m i
      (Char.code (Bytes.unsafe_get block j)
      lor (Char.code (Bytes.unsafe_get block (j + 1)) lsl 8)
      lor (Char.code (Bytes.unsafe_get block (j + 2)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (j + 3)) lsl 24))
  done;
  let a = ref ctx.a and b = ref ctx.b and c = ref ctx.c and d = ref ctx.d in
  for i = 0 to 15 do
    let f = ((!b land !c) lor (lnot !b land !d)) land mask32 in
    let tmp = !d in
    d := !c;
    c := !b;
    b :=
      (!b
      + rotl
          ((!a + f + Array.unsafe_get k i + Array.unsafe_get m i) land mask32)
          (Array.unsafe_get s i))
      land mask32;
    a := tmp
  done;
  for i = 16 to 31 do
    let f = ((!d land !b) lor (lnot !d land !c)) land mask32
    and g = ((5 * i) + 1) land 15 in
    let tmp = !d in
    d := !c;
    c := !b;
    b :=
      (!b
      + rotl
          ((!a + f + Array.unsafe_get k i + Array.unsafe_get m g) land mask32)
          (Array.unsafe_get s i))
      land mask32;
    a := tmp
  done;
  for i = 32 to 47 do
    let f = !b lxor !c lxor !d and g = ((3 * i) + 5) land 15 in
    let tmp = !d in
    d := !c;
    c := !b;
    b :=
      (!b
      + rotl
          ((!a + f + Array.unsafe_get k i + Array.unsafe_get m g) land mask32)
          (Array.unsafe_get s i))
      land mask32;
    a := tmp
  done;
  for i = 48 to 63 do
    let f = (!c lxor (!b lor (lnot !d land mask32))) land mask32
    and g = 7 * i land 15 in
    let tmp = !d in
    d := !c;
    c := !b;
    b :=
      (!b
      + rotl
          ((!a + f + Array.unsafe_get k i + Array.unsafe_get m g) land mask32)
          (Array.unsafe_get s i))
      land mask32;
    a := tmp
  done;
  ctx.a <- (ctx.a + !a) land mask32;
  ctx.b <- (ctx.b + !b) land mask32;
  ctx.c <- (ctx.c + !c) land mask32;
  ctx.d <- (ctx.d + !d) land mask32

let update_sub ctx str off len =
  if off < 0 || len < 0 || off + len > String.length str then
    invalid_arg "Md5.update_sub";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit_string str !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks compressed in place from the input, no copy. *)
  let raw = Bytes.unsafe_of_string str in
  while !remaining >= 64 do
    compress ctx raw !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit_string str !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx str = update_sub ctx str 0 (String.length str)

let final ctx =
  let total_bits = ctx.total * 8 in
  let pad_len =
    let r = (ctx.total + 1) mod 64 in
    if r <= 56 then 56 - r else 120 - r
  in
  let tail = Bytes.make (1 + pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  (* Length is little-endian in MD5. *)
  for i = 0 to 7 do
    Bytes.set tail
      (1 + pad_len + i)
      (Char.chr ((total_bits lsr (i * 8)) land 0xff))
  done;
  update ctx (Bytes.unsafe_to_string tail);
  let out = Bytes.create 16 in
  let put i v =
    Bytes.set out i (Char.chr (v land 0xff));
    Bytes.set out (i + 1) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out (i + 2) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out (i + 3) (Char.chr ((v lsr 24) land 0xff))
  in
  put 0 ctx.a;
  put 4 ctx.b;
  put 8 ctx.c;
  put 12 ctx.d;
  Bytes.unsafe_to_string out

(* One-shot digests allocate a fresh context: they run concurrently
   from sys-threads sharing a domain, so no shared mutable state. *)
let digest str =
  let ctx = init () in
  update ctx str;
  final ctx

let hex str =
  let d = digest str in
  let buf = Buffer.create 32 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf
