(** Query conditions: the unit of a form's semantic model.

    A condition is the paper's three-tuple [attribute; operators; domain]
    (Section 1).  For example, the author condition of amazon.com is
    [author; {"first name...", "start...", "exact name"}; text]. *)

type domain =
  | Text
      (** Free-text input (a textbox or textarea). *)
  | Enumeration of string list
      (** A closed list of values (selection list, radio or checkbox
          group).  The values are kept in presentation order. *)
  | Range of domain
      (** A pair of bounds over an underlying domain (e.g. price from/to
        textboxes or min/max selection lists). *)
  | Datetime
      (** A composite date or time (e.g. month/day/year selects). *)

type t = {
  attribute : string;
      (** The attribute label, as written on the form (e.g. "Author"). *)
  operators : string list;
      (** Supported operators or modifiers; [[]] denotes the implicit
          default operator (keyword [contains] for text domains,
          [equals] for enumerations). *)
  domain : domain;
}

val make : ?operators:string list -> attribute:string -> domain -> t

val normalize_label : string -> string
(** [normalize_label s] canonicalizes an attribute or operator label for
    comparison: lowercase, trailing punctuation ([:], [?], [*], [.])
    removed, internal whitespace collapsed.  One allocation: the result. *)

val normalized_length : string -> int
(** [String.length (normalize_label s)], computed without building it. *)

val blit_normalized : string -> Bytes.t -> int -> int
(** [blit_normalized s b off] writes [normalize_label s] into [b] at
    [off] and returns the offset past it; [b] must have
    {!normalized_length}[ s] bytes free there.  Keys that embed labels
    are built in one exact-size string this way. *)

val equal_attribute : t -> t -> bool
(** Attribute labels match after {!normalize_label}. *)

val matches : truth:t -> t -> bool
(** [matches ~truth extracted] is the correctness criterion used in the
    experiments: attributes match ({!equal_attribute}), the domains have
    the same shape ({!same_domain_shape}), and the extracted operator set
    equals the true one up to normalization and order. *)

val same_domain_shape : domain -> domain -> bool
(** Structural comparison of domains ignoring enumeration values'
    case/punctuation but not their number. *)

val pp_domain : Format.formatter -> domain -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
