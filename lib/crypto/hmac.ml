let block_size (_ : Digest_algo.algo) = 64
(* MD5, SHA-1 and SHA-256 all use 64-byte blocks. *)

(* The digest states after absorbing the ipad and opad key blocks.
   They depend only on (algo, key), so a session that MACs thousands
   of frames under one key hashes the two padded blocks once instead
   of per tag.
   Tagging copies a midstate and never writes to it, so a context is
   immutable and may be shared by concurrent taggers. *)
type ctx = { inner : Digest_algo.ctx; outer : Digest_algo.ctx }

let context ~algo ~key =
  let bs = block_size algo in
  let key =
    if String.length key > bs then Digest_algo.digest algo key else key
  in
  let key_block = key ^ String.make (bs - String.length key) '\000' in
  let absorb byte =
    let c = Digest_algo.init algo in
    Digest_algo.update c
      (String.map (fun c -> Char.chr (Char.code c lxor byte)) key_block);
    c
  in
  { inner = absorb 0x36; outer = absorb 0x5c }

let mac_with ctx msg =
  let inner = Digest_algo.copy ctx.inner in
  let outer = Digest_algo.copy ctx.outer in
  Digest_algo.update inner msg;
  Digest_algo.update outer (Digest_algo.final inner);
  Digest_algo.final outer

let mac ~algo ~key msg = mac_with (context ~algo ~key) msg

let hex ~algo ~key msg = Digest_algo.to_hex (mac ~algo ~key msg)

let equal_constant_time a b =
  if String.length a <> String.length b then false
  else begin
    let diff = ref 0 in
    String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code b.[i])) a;
    !diff = 0
  end

let verify ~algo ~key ~msg ~tag = equal_constant_time (mac ~algo ~key msg) tag
