(** Tokens: the terminal alphabet of the visual language.

    The tokenizer (paper Section 3.4, Figure 5) converts a rendered HTML
    form into a set of tokens, each an atomic visual element with a
    terminal type and the attributes needed for parsing — notably the
    universal [pos] bounding box. *)

type kind =
  | Text
      (** A text run (label, operator wording, decorative prose). *)
  | Textbox
      (** Free-text entry: [input type=text/password/search/file] and
          [textarea]. *)
  | Selection
      (** A [select] element; carries its option labels. *)
  | Radio
  | Checkbox
  | Button
      (** Submit/reset/push buttons, including [input type=image]. *)
  | Image
      (** An [img] element (decoration, possibly an attribute icon). *)

type t = {
  id : int;            (** Dense index in reading order. *)
  kind : kind;
  box : Wqi_layout.Geometry.box;
  sval : string;       (** Text content, button label or image alt text. *)
  name : string;       (** The form-field [name] attribute, or [""]. *)
  options : string list; (** Option labels for [Selection] tokens. *)
  value : string;      (** The HTML [value] attribute (submission value
                           of radio/checkbox tokens), or [""]. *)
  checked : bool;      (** Initial state of radio/checkbox tokens. *)
  multiple : bool;     (** [select multiple]. *)
}

val kind_name : kind -> string
(** Lowercase terminal-symbol name ("text", "textbox", "selection",
    "radio", "checkbox", "button", "image"). *)

val pp : Format.formatter -> t -> unit

val is_field : t -> bool
(** Tokens that accept user input (everything except [Text], [Button]
    and [Image]). *)

val describe : t -> string
(** One-line description used in error reports: the kind and the
    token's text (or field name) quoted as [%S] prints it, e.g.
    [text "Author:"], [selection list "class"]. *)
