(** Lexical cues used by production guards of the derived grammar.

    The paper's grammar distinguishes, e.g., an operator wording ("starts
    with") from an attribute label ("Title") and a bound marker ("from")
    from an ordinary label; these judgements are encoded here so guards
    stay declarative.

    Guards call these on every text token and option list they meet, so
    each classifier reads its argument in place: trimming (the bytes
    [String.trim] strips), punctuation stripping and ASCII case folding
    are index bounds and per-byte comparisons, never copies.  The
    boolean classifiers allocate nothing; the splitters allocate only
    the two strings of a split they return. *)

val contains_substring : needle:string -> string -> bool
(** [contains_substring ~needle haystack]: [needle] is non-empty and
    occurs in [haystack] (byte-wise, case-sensitive). *)

val is_operator_phrase : string -> bool
(** Text that reads as a query operator or modifier: "contains words",
    "start of last name", "exact match", "greater than", ...  One pass
    over the text, the keywords indexed by first byte; allocates
    nothing. *)

val all_operator_options : string list -> bool
(** Every option of a selection list reads as an operator (and there are
    at least two) — the cue for an operator select.  Allocates
    nothing. *)

val is_unit_word : string -> bool
(** Measurement-unit wording that trails a value box: "miles", "km",
    "nights", "sq ft", "%", ...  Compared case-insensitively after
    trimming and dropping leading '$' '(' and trailing ':' '$' '.';
    allocates nothing. *)

val is_bound_marker : string -> bool
(** Range-bound wording: "from", "to", "min", "max", "between", "under",
    "over", "at least", "at most", "and".  Read as {!is_unit_word};
    allocates nothing. *)

val as_int : string -> int option
(** [as_int s = int_of_string_opt (String.trim s)], without the raise
    and catch inside [int_of_string_opt] on the common non-numbers
    ("--", "-- Any --", "12:30"): the integer a select option or a
    label reads as.  Allocates the [Some] (and, for the rare literal
    the scan leaves to [int_of_string_opt], a trimmed copy). *)

val date_component : string list -> [ `Month | `Day | `Year | `Time | `None ]
(** Classify a selection list's options as one date/time component, in
    one pass: header placeholders ("mm", "--", "Year", ...) are skipped,
    each other option is trimmed and read as an integer once for all the
    month, year, day and time tests, and the pass stops as soon as no
    component fits every option.  Allocates nothing but the trimmed copy
    of a literal left to [int_of_string_opt] ([0x1f], [1_000], ...). *)

val plausible_date_combo : int -> (int -> string list) -> bool
(** [plausible_date_combo n option_list]: do the [n] adjacent selection
    lists [option_list 0], ..., [option_list (n - 1)] form a credible
    composite date or time?  Requires a month/day/year style
    combination (or a pair of time components); rejects e.g. two
    generic small-number lists (passenger counts) that would otherwise
    masquerade as day lists.  Allocates as {!date_component}. *)

val split_unit_prefix : string -> (string * string) option
(** [split_unit_prefix "miles of ZIP"] = [Some ("miles", "ZIP")]: a text
    run that merged a trailing unit of the previous field with the label
    of the next one ("[radius select] miles of ZIP [box]").  A leading
    "of" after the unit is dropped from the label.  The first word is
    tested on its bounds: only a [Some] allocates (the pair and its two
    strings). *)

val split_bound_suffix : string -> (string * string) option
(** [split_bound_suffix "Price: from"] = [Some ("Price:", "from")]: an
    attribute label that visually merged with a trailing range-bound
    marker (browsers render "Price: from [box]" as one text run).
    Returns [None] when the text does not end with a bound marker or the
    prefix would be empty.  Both words are tested on their bounds: only
    a [Some] allocates. *)

val plausible_attribute : string -> bool
(** A text run short and label-like enough to act as an attribute name
    (excludes long prose, bare punctuation and pure numbers).  Allocates
    nothing but the trimmed copy of a literal left to
    [int_of_string_opt]. *)
