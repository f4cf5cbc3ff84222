(** Checksum payload construction and verification — the exact
    constructions of Section 3 (atomic) and Section 4.3 (compound).

    - Insert:    [C_0 = S_SK(0 | h(A,val) | 0)]
    - Update:    [C_i = S_SK(h(A,val) | h(A,val') | C_{i-1})]
    - Aggregate: [C = S_SK(h(h(A_1,v_1)|...|h(A_n,v_n)) | h(B,val) |
                   C_1 | ... | C_n)]
    - Compound update: same as update with [h(subtree(A))] in place of
      [h(A,val)] (the Merkle hashes of {!Tep_tree.Merkle}).

    Payloads are framed with length prefixes so no concatenation of
    fields can collide with a different field split, and include the
    output oid and sequence number so a signature cannot be replayed
    for a different object or position (guarantee R5). *)

open Tep_tree

val payload :
  kind:Record.kind ->
  seq_id:int ->
  output_oid:Oid.t ->
  input_hashes:string list ->
  output_hash:string ->
  prev_checksums:string list ->
  string
(** Build the byte string to be signed.  For [Insert], inputs and
    prevs must be empty (the genesis marker is substituted); for
    [Update]/[Import] exactly one input hash; for [Aggregate] the
    combined input hash [h(h_1 | ... | h_n)] is computed internally
    with SHA-256.
    @raise Invalid_argument on arity violations. *)

val sign : Participant.t -> string -> string
(** Sign a payload (alias of {!Participant.sign}). *)

val verify :
  Tep_crypto.Rsa.public_key -> payload:string -> checksum:string -> bool

val verify_record :
  Participant.Directory.t -> Record.t -> (unit, string) result
(** Recompute the record's payload from its own fields and check the
    signature against the participant's registered certificate.  This
    is the core of guarantee R1/R8: a record whose contents were
    altered, or whose signer is not the named participant, fails. *)
