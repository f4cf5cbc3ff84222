(* SHA-256 (FIPS 180-2) on the shared Merkle–Damgård layer, Block_hash. *)

type ctx = Block_hash.ctx

let digest_size = 32
let init () = Block_hash.init Block_hash.sha256
let reset = Block_hash.reset
let copy = Block_hash.copy
let update = Block_hash.update
let update_sub = Block_hash.update_sub
let final = Block_hash.final
let digest = Block_hash.digest Block_hash.sha256
let hex s = Block_hash.to_hex (digest s)
