(** Lexical cues used by production guards of the derived grammar.

    The paper's grammar distinguishes, e.g., an operator wording ("starts
    with") from an attribute label ("Title") and a bound marker ("from")
    from an ordinary label; these judgements are encoded here so guards
    stay declarative. *)

val contains_substring : needle:string -> string -> bool
(** [contains_substring ~needle haystack]: [needle] is non-empty and
    occurs in [haystack] (byte-wise, case-sensitive). *)

val is_operator_phrase : string -> bool
(** Text that reads as a query operator or modifier: "contains words",
    "start of last name", "exact match", "greater than", ... *)

val all_operator_options : string list -> bool
(** Every option of a selection list reads as an operator (and there are
    at least two) — the cue for an operator select. *)

val is_unit_word : string -> bool
(** Measurement-unit wording that trails a value box: "miles", "km",
    "nights", "sq ft", "%", ... *)

val is_bound_marker : string -> bool
(** Range-bound wording: "from", "to", "min", "max", "between", "under",
    "over", "at least", "at most", "and". *)

val as_int : string -> int option
(** [as_int s = int_of_string_opt (String.trim s)], without the raise
    and catch inside [int_of_string_opt] on the common non-numbers
    ("--", "-- Any --", "12:30"): the integer a select option or a
    label reads as. *)

val date_component : string list -> [ `Month | `Day | `Year | `Time | `None ]
(** Classify a selection list's options as one date/time component. *)

val plausible_date_combo : string list list -> bool
(** Do these adjacent selection lists form a credible composite date or
    time?  Requires a month/day/year style combination (or a pair of
    time components); rejects e.g. two generic small-number lists
    (passenger counts) that would otherwise masquerade as day lists. *)

val split_unit_prefix : string -> (string * string) option
(** [split_unit_prefix "miles of ZIP"] = [Some ("miles", "ZIP")]: a text
    run that merged a trailing unit of the previous field with the label
    of the next one ("[radius select] miles of ZIP [box]").  A leading
    "of" after the unit is dropped from the label. *)

val split_bound_suffix : string -> (string * string) option
(** [split_bound_suffix "Price: from"] = [Some ("Price:", "from")]: an
    attribute label that visually merged with a trailing range-bound
    marker (browsers render "Price: from [box]" as one text run).
    Returns [None] when the text does not end with a bound marker or the
    prefix would be empty. *)

val plausible_attribute : string -> bool
(** A text run short and label-like enough to act as an attribute name
    (excludes long prose, bare punctuation and pure numbers). *)
