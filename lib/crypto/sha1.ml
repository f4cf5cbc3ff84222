(* SHA-1 over 32-bit words emulated in OCaml's 63-bit ints, masked
   after every operation that can overflow 32 bits. *)

let digest_size = 20
let mask32 = 0xffffffff

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
  w : int array; (* 80-entry message schedule, reused *)
}

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xefcdab89;
    h2 = 0x98badcfe;
    h3 = 0x10325476;
    h4 = 0xc3d2e1f0;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 80 0;
  }

let reset ctx =
  ctx.h0 <- 0x67452301;
  ctx.h1 <- 0xefcdab89;
  ctx.h2 <- 0x98badcfe;
  ctx.h3 <- 0x10325476;
  ctx.h4 <- 0xc3d2e1f0;
  ctx.buf_len <- 0;
  ctx.total <- 0

let copy ctx = { ctx with buf = Bytes.copy ctx.buf; w = Array.make 80 0 }

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

(* The caller guarantees [off + 64 <= Bytes.length block]; with that
   invariant every access below is in bounds, so unsafe indexing and
   the four specialised round loops keep the hot path branch-free. *)
let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let j = off + (i * 4) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get block j) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (j + 3)))
  done;
  for i = 16 to 79 do
    Array.unsafe_set w i
      (rotl
         (Array.unsafe_get w (i - 3)
         lxor Array.unsafe_get w (i - 8)
         lxor Array.unsafe_get w (i - 14)
         lxor Array.unsafe_get w (i - 16))
         1)
  done;
  let a = ref ctx.h0
  and b = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4 in
  for i = 0 to 19 do
    let f = (!b land !c) lor (lnot !b land !d) in
    let t =
      (rotl !a 5 + f + !e + 0x5a827999 + Array.unsafe_get w i) land mask32
    in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := t
  done;
  for i = 20 to 39 do
    let f = !b lxor !c lxor !d in
    let t =
      (rotl !a 5 + f + !e + 0x6ed9eba1 + Array.unsafe_get w i) land mask32
    in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := t
  done;
  for i = 40 to 59 do
    let f = (!b land !c) lor (!b land !d) lor (!c land !d) in
    let t =
      (rotl !a 5 + f + !e + 0x8f1bbcdc + Array.unsafe_get w i) land mask32
    in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := t
  done;
  for i = 60 to 79 do
    let f = !b lxor !c lxor !d in
    let t =
      (rotl !a 5 + f + !e + 0xca62c1d6 + Array.unsafe_get w i) land mask32
    in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := t
  done;
  ctx.h0 <- (ctx.h0 + !a) land mask32;
  ctx.h1 <- (ctx.h1 + !b) land mask32;
  ctx.h2 <- (ctx.h2 + !c) land mask32;
  ctx.h3 <- (ctx.h3 + !d) land mask32;
  ctx.h4 <- (ctx.h4 + !e) land mask32

let update_sub ctx s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Sha1.update_sub";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Fill a partial buffered block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit_string s !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks compressed in place from the input, no copy.  The
     unsafe_of_string view is read-only here. *)
  let raw = Bytes.unsafe_of_string s in
  while !remaining >= 64 do
    compress ctx raw !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx s = update_sub ctx s 0 (String.length s)

let final ctx =
  let total_bits = ctx.total * 8 in
  (* Padding: 0x80, zeros, 8-byte big-endian bit length. *)
  let pad_len =
    let r = (ctx.total + 1) mod 64 in
    if r <= 56 then 56 - r else 120 - r
  in
  let tail = Bytes.make (1 + pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    Bytes.set tail
      (1 + pad_len + i)
      (Char.chr ((total_bits lsr ((7 - i) * 8)) land 0xff))
  done;
  update ctx (Bytes.unsafe_to_string tail);
  assert (ctx.buf_len = 0);
  let out = Bytes.create 20 in
  let put i v =
    Bytes.set out i (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out (i + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out (i + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out (i + 3) (Char.chr (v land 0xff))
  in
  put 0 ctx.h0;
  put 4 ctx.h1;
  put 8 ctx.h2;
  put 12 ctx.h3;
  put 16 ctx.h4;
  Bytes.unsafe_to_string out

(* No context caching here: one-shot digests run concurrently from
   sys-threads sharing a domain (server connection threads), so any
   shared mutable context would be corrupted mid-hash.  Callers that
   own a context outright can amortise allocation with [reset]. *)
let digest s =
  let ctx = init () in
  update ctx s;
  final ctx

let hex s =
  let d = digest s in
  let buf = Buffer.create 40 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf
