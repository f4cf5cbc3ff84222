(* Versioned, length-prefixed binary framing for the provenance
   service.  Reuses the WAL v2 idioms (explicit length, CRC32 trailer,
   reject-don't-trust parsing) but with a fixed-size header so a
   socket reader always knows how many bytes it still needs:

     frame := magic "TW1" (3B) · kind (1B) · len (4B BE)
              · payload (len B) · crc32 (4B BE)

   The CRC covers header · payload (streamed, via the Crc32 ctx
   interface).  [parse] never raises: it reports how many more bytes
   it needs, a complete frame, an oversized declaration, or
   corruption.  A corrupt frame poisons the connection — unlike the
   WAL there is no re-synchronisation scan; the peer is live and can
   simply reconnect. *)

let magic = "TW1"
let header_len = 8 (* magic + kind + len *)
let trailer_len = 4
let overhead = header_len + trailer_len

(* Anything larger than this is a corrupt length or an abusive peer,
   not a frame worth buffering. *)
let default_max_payload = 1 lsl 24

type kind =
  | Clear (* handshake: hello / challenge / auth *)
  | Sealed (* authenticated: HMAC tag · message *)

let kind_byte = function Clear -> 'C' | Sealed -> 'S'
let kind_of_byte = function 'C' -> Some Clear | 'S' -> Some Sealed | _ -> None

let add_be32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

let read_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let encode buf ~kind payload =
  let start = Buffer.length buf in
  Buffer.add_string buf magic;
  Buffer.add_char buf (kind_byte kind);
  add_be32 buf (String.length payload);
  Buffer.add_string buf payload;
  let crc = Tep_crypto.Crc32.init () in
  (* header and payload are fed separately: the streaming interface
     means no header·payload concatenation is ever materialised *)
  Tep_crypto.Crc32.feed_sub crc (Buffer.contents buf) start header_len;
  Tep_crypto.Crc32.feed crc payload;
  add_be32 buf (Tep_crypto.Crc32.finalize crc)

let to_string ~kind payload =
  let buf = Buffer.create (String.length payload + overhead) in
  encode buf ~kind payload;
  Buffer.contents buf

type parse =
  | Need_more of int (* at least this many further bytes *)
  | Frame of { kind : kind; payload : string; consumed : int }
  | Oversized of int (* declared payload length *)
  | Corrupt of string

let parse ?(max_payload = default_max_payload) s off =
  let avail = String.length s - off in
  if avail < header_len then Need_more (header_len - avail)
  else if String.sub s off 3 <> magic then Corrupt "bad magic"
  else
    match kind_of_byte s.[off + 3] with
    | None -> Corrupt (Printf.sprintf "bad frame kind %#x" (Char.code s.[off + 3]))
    | Some kind ->
        let len = read_be32 s (off + 4) in
        if len > max_payload then Oversized len
        else if avail < overhead + len then Need_more (overhead + len - avail)
        else begin
          let stored = read_be32 s (off + header_len + len) in
          let crc = Tep_crypto.Crc32.init () in
          Tep_crypto.Crc32.feed_sub crc s off (header_len + len);
          if Tep_crypto.Crc32.finalize crc <> stored then
            Corrupt "frame checksum mismatch"
          else
            Frame
              {
                kind;
                payload = String.sub s (off + header_len) len;
                consumed = overhead + len;
              }
        end

(* An incremental reader over a byte stream: [push] whatever bytes
   arrived, then [pull] frames until it answers [Need_more].  Input
   accumulates in a Buffer (amortised O(1) per chunk) and the parse
   window is only materialised once a frame could be complete
   ([need], maintained from the parser's [Need_more]), so a
   maximum-size frame arriving in 4 KiB chunks costs O(n), not the
   O(n^2) of re-concatenating a string per chunk — a peer cannot buy
   gigabytes of memcpy with one 16 MiB frame.  [Oversized] and
   [Corrupt] poison the stream: the caller drops the connection. *)
type reader = {
  max_payload : int;
  inbox : Buffer.t; (* unconsumed input; compacted once per frame *)
  mutable need : int; (* skip parse attempts below this many bytes *)
}

let reader ?(max_payload = default_max_payload) () =
  { max_payload; inbox = Buffer.create 256; need = header_len }

let push r data = Buffer.add_string r.inbox data
let buffered r = Buffer.length r.inbox

let reset r =
  Buffer.clear r.inbox;
  r.need <- header_len

let pull r =
  let avail = Buffer.length r.inbox in
  if avail < r.need then Need_more (r.need - avail)
  else
    let buffered = Buffer.contents r.inbox in
    match parse ~max_payload:r.max_payload buffered 0 with
    | Need_more n as more ->
        r.need <- avail + n;
        more
    | Frame { consumed; _ } as frame ->
        Buffer.clear r.inbox;
        Buffer.add_substring r.inbox buffered consumed (avail - consumed);
        r.need <- header_len;
        frame
    | (Oversized _ | Corrupt _) as bad -> bad
