(** Decoding of HTML character references (entities).

    Supports the named entities that occur in practice on query forms plus
    decimal ([&#160;]) and hexadecimal ([&#xA0;]) numeric references.  Unknown
    references are left verbatim, which matches the tolerant behaviour of
    browsers on malformed markup. *)

val lookup_named : string -> string option
(** [lookup_named name] returns the UTF-8 expansion of the named entity
    [name] (without the surrounding [&] and [;]), or [None] if unknown. *)

val decode : string -> string
(** [decode s] replaces every character reference in [s] by its expansion.
    Decoding is single-pass: expansions are not re-scanned, so
    ["&amp;amp;"] decodes to ["&amp;"]. *)

val decode_sub : string -> pos:int -> len:int -> string
(** [decode_sub s ~pos ~len] is [decode (String.sub s pos len)] without
    the intermediate copy: no reference reads past [pos + len]. *)

val encode_text : string -> string
(** [encode_text s] escapes [&], [<] and [>] for safe inclusion as HTML
    text content. *)

val encode_attribute : string -> string
(** [encode_attribute s] escapes ampersand, angle brackets and the double
    quote for safe inclusion
    inside a double-quoted HTML attribute value. *)
