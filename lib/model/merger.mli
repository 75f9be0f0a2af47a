(** Merging multiple partial parses into one semantic model.

    The best-effort parser outputs several (possibly overlapping) partial
    parse trees; the merger takes the union of their extracted conditions
    to maximize coverage, and reports the two error classes of Section 3.4:
    conflicts (a token claimed by two different conditions) and missing
    elements (tokens covered by no selected tree). *)

type parse = {
  conditions : (Condition.t * int list) list;
      (** Each extracted condition with the ids of the tokens it uses. *)
  cover : int list;
      (** All token ids covered by the parse tree. *)
}

val merge :
  tokens:'tok list ->
  id:('tok -> int) ->
  describe:('tok -> string) ->
  ?ignorable:('tok -> bool) ->
  parse list ->
  Semantic_model.t
(** [merge ~tokens ~id ~describe parses] unions the conditions of all
    parses (deduplicating equivalent conditions), detects conflicts, and
    reports as missing every token of [tokens] whose [id] no parse
    covers and that is not deemed [ignorable] (the default ignores
    nothing).  Missing reports follow the order of [tokens].

    Error text is produced on demand: [describe] is called once for each
    token reported missing and for no other, and a condition's
    {!Condition.to_string} label is computed only when it meets another
    condition on a token (the conflict check compares labels). *)
