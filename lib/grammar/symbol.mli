(** Grammatical symbols of a 2P grammar (Definition 1).

    Terminals are token kinds ("text", "textbox", ...); nonterminals are
    pattern names ("Attr", "TextOp", "QI", ...).  Symbols are compared by
    name within their class. *)

type t =
  | Terminal of string
  | Nonterminal of string

val terminal : string -> t
val nonterminal : string -> t

val name : t -> string
val is_terminal : t -> bool

val of_token_kind : Wqi_token.Token.kind -> t
(** The terminal symbol a token instantiates. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
(** Hash tables on symbols that hash a symbol's name as a string and
    compare with {!equal}, never polymorphically. *)
