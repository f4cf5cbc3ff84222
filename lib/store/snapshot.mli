(** Whole-database snapshots with an integrity trailer.

    Format: a {!Container} sealed under ["TEPSNAP1"] around the
    database encoding.  A snapshot whose trailer does not match is
    rejected — the storage layer's own
    (non-cryptographic-keyed) tamper check, independent of the
    provenance checksums built on top. *)

val to_string : Database.t -> string
val of_string : string -> (Database.t, string) result

val save : Database.t -> string -> (unit, string) result
(** {!Durable.replace} through the [snapshot.save] failpoints. *)

val load : string -> (Database.t, string) result
