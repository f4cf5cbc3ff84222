(** Tree-structured XML documents over the forest model.

    Section 4.1: "This abstraction allows us to express provenance
    information associated with varying levels of data granularity in
    two common data models: relational and tree-structured XML."
    This module provides the XML half: a small XML subset (elements,
    attributes, text; no namespaces, comments, or CDATA) parsed into
    {!Subtree}/{!Forest} compound objects, so the provenance engine
    tracks documents exactly as it tracks tables.

    Mapping: an element becomes a node whose value is
    [Text "<name>"]; each attribute becomes a child node valued
    [Text "@attr=value"]; text content becomes leaf nodes valued
    [Text "..."].  The mapping round-trips modulo whitespace
    normalisation. *)

open Tep_store

type node =
  | Element of string * (string * string) list * node list
      (** name, attributes, children *)
  | Text of string

val parse : string -> (node, string) result
(** Parse one document (a single root element).  Whitespace-only text
    between elements is dropped. *)

val to_string : ?indent:bool -> node -> string
(** Serialise, escaping the five XML special characters. *)

val to_forest : Forest.t -> ?parent:Oid.t -> node -> (Oid.t, string) result
(** Materialise the document as forest nodes; returns the root's oid. *)

val of_forest : Forest.t -> Oid.t -> (node, string) result
(** Rebuild a document from a forest subtree produced by
    {!to_forest}.  Fails on nodes that do not follow the mapping. *)

val element_value : string -> Value.t
(** The forest value encoding an element node (text of the form [<name>]). *)

val attribute_value : string -> string -> Value.t
val text_value : string -> Value.t
