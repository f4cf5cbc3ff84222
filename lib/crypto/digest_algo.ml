type algo = MD5 | SHA1 | SHA256

let all = [ MD5; SHA1; SHA256 ]

let name = function MD5 -> "md5" | SHA1 -> "sha1" | SHA256 -> "sha256"

let of_name s =
  match String.lowercase_ascii s with
  | "md5" -> Some MD5
  | "sha1" | "sha" | "sha-1" -> Some SHA1
  | "sha256" | "sha-256" -> Some SHA256
  | _ -> None

let size = function MD5 -> 16 | SHA1 -> 20 | SHA256 -> 32

let spec = function
  | MD5 -> Block_hash.md5
  | SHA1 -> Block_hash.sha1
  | SHA256 -> Block_hash.sha256

let digest algo s = Block_hash.digest (spec algo) s
let to_hex = Block_hash.to_hex

let of_hex s =
  let len = String.length s in
  if len mod 2 <> 0 then invalid_arg "Digest_algo.of_hex: odd length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Digest_algo.of_hex: bad digit"
  in
  String.init (len / 2)
    (fun i -> Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))

let hex algo s = to_hex (digest algo s)

type ctx = Block_hash.ctx

let init algo = Block_hash.init (spec algo)
let copy = Block_hash.copy
let update = Block_hash.update
let update_sub = Block_hash.update_sub
let final = Block_hash.final
