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

let digest algo s =
  match algo with
  | MD5 -> Md5.digest s
  | SHA1 -> Sha1.digest s
  | SHA256 -> Sha256.digest s

let to_hex s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
    s;
  Buffer.contents buf

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

type ctx = Cmd5 of Md5.ctx | Csha1 of Sha1.ctx | Csha256 of Sha256.ctx

let init = function
  | MD5 -> Cmd5 (Md5.init ())
  | SHA1 -> Csha1 (Sha1.init ())
  | SHA256 -> Csha256 (Sha256.init ())

let copy = function
  | Cmd5 c -> Cmd5 (Md5.copy c)
  | Csha1 c -> Csha1 (Sha1.copy c)
  | Csha256 c -> Csha256 (Sha256.copy c)

let update ctx s =
  match ctx with
  | Cmd5 c -> Md5.update c s
  | Csha1 c -> Sha1.update c s
  | Csha256 c -> Sha256.update c s

let update_sub ctx s off len =
  match ctx with
  | Cmd5 c -> Md5.update_sub c s off len
  | Csha1 c -> Sha1.update_sub c s off len
  | Csha256 c -> Sha256.update_sub c s off len

let final = function
  | Cmd5 c -> Md5.final c
  | Csha1 c -> Sha1.final c
  | Csha256 c -> Sha256.final c
