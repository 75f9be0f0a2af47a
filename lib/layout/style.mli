(** Deterministic rendering metrics.

    Substitutes for the browser layout engine the paper used (IE's DOM
    API): a monospace font model and fixed intrinsic widget sizes.  Only
    relative spatial relations matter to the parser, so any consistent
    metric reproduces the paper's behaviour. *)

val char_width : int
(** Advance width of one character, in pixels. *)

val line_height : int
(** Height of a text line box. *)

val text_height : int
(** Height of a rendered text run (slightly below {!line_height}). *)

val word_spacing : int
(** Width of an inter-word space. *)

val page_width : int
(** Default page width used when none is specified. *)

val text_width : string -> int
(** [text_width s] is the rendered width of a text run.  Multi-byte UTF-8
    sequences count as a single character cell. *)

val text_width_sub : string -> pos:int -> len:int -> int
(** [text_width_sub s ~pos ~len] is [text_width (String.sub s pos len)]
    without the copy.  Raises [Invalid_argument] on a range outside
    [s]. *)

val int_attr : string -> default:int -> Wqi_html.Dom.t -> int
(** [int_attr key ~default node] reads an integer attribute the way
    browsers read sizes: [int_of_string] of the trimmed value, clamped at
    0, or [default] when the attribute is absent or not a number.  Plain
    decimal values are read in place, without a copy. *)

type widget_kind = Textbox | Selection | Radio | Checkbox | Button | Image
(** What a form widget or image renders as: the widget kinds among the
    tokenizer's terminal types. *)

type widget = {
  node : Wqi_html.Dom.t;  (** The element itself. *)
  kind : widget_kind;
  label : string;
      (** A button's label ([value], default ["Submit"], for submit,
          reset and push inputs; [alt] for image inputs; the trimmed
          text of a [button] element, possibly [""]), an image's [alt];
          [""] for other widgets. *)
  name : string;  (** The [name] attribute, or [""]. *)
  value : string;  (** The [value] attribute, or [""]. *)
  checked : bool;  (** The [checked] attribute is present. *)
  multiple : bool;  (** The [multiple] attribute is present. *)
  options : string list;
      (** A [select]'s non-empty option labels (trimmed text of every
          [option] under it, in document order); [[]] otherwise. *)
  width : int;
  height : int;
      (** Intrinsic size.  Sizes honour the [size], [cols], [rows],
          [width], [height] and [value] attributes as browsers do. *)
}
(** A widget classified once, at layout: everything the layout engine
    and the tokenizer read from the element. *)

val widget : Wqi_html.Dom.t -> widget option
(** [widget node] classifies a form widget or image element, or is
    [None] when [node] is not a widget (or is an invisible one such as
    [<input type="hidden">]). *)
