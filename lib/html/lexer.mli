(** Tolerant lexer for HTML markup.

    Splits raw HTML into a flat stream of tags, text runs, comments, and
    doctype declarations.  The lexer never fails: malformed constructs are
    recovered from the way browsers recover (a lone [<] becomes text, an
    unterminated tag extends to end of input, and so on). *)

type token =
  | Text of string
      (** A text run, with character references decoded. *)
  | Open of string * (string * string) list * bool
      (** [Open (name, attributes, self_closing)].  The tag name is
          lowercased; attribute names are lowercased and values have their
          character references decoded.  A valueless attribute (e.g.
          [checked]) carries [""] as value. *)
  | Close of string
      (** A closing tag; the name is lowercased. *)
  | Comment of string
      (** Contents of an HTML comment, verbatim. *)
  | Doctype of string
      (** Contents of a [<!DOCTYPE ...>] declaration, verbatim. *)

type sink = {
  text : string -> unit;
  open_tag : string -> int -> (string * string) list -> bool -> unit;
      (** [open_tag name id attributes self_closing] *)
  close_tag : string -> int -> unit;  (** [close_tag name id] *)
  comment : string -> unit;
  doctype : string -> unit;
}
(** Receivers for the markup {!scan} finds, one per {!token}
    constructor and with the same payloads.  Tags also carry the name's
    index [id] in the scanner's table of interned names (from 0 to
    {!name_count} - 1), or [-1] for a name outside it: equal names always
    get equal indices, so a receiver can key state on it. *)

val name_count : int
(** The number of interned names. *)

val scan : sink -> string -> unit
(** [scan sink html] lexes the whole input in one pass, handing each
    token to [sink] in document order as soon as it is complete; no
    token list is built.  Interned tag and attribute names are shared
    constants, not copies, and a text run or attribute value goes
    through {!Entity.decode} only when it holds an ['&'].  An exception
    raised by [sink] stops the scan. *)

val tokenize : string -> token list
(** [tokenize html] collects what {!scan} finds into a list.  The
    content of raw-text elements ([script], [style], [textarea],
    [title]) is returned as a single [Text] token that extends to the
    matching close tag; [script] and [style] keep their content
    verbatim while [textarea] and [title] get entity decoding. *)

val pp_token : Format.formatter -> token -> unit
(** Pretty-printer for debugging. *)
