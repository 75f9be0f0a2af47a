(** A declarative spatial-rule algebra: 2P grammars as data.

    The paper's central claim is that form layout follows a hidden
    syntax; this module makes that syntax a {e datum}.  Where
    {!Production} carries its constraint and constructor as opaque
    OCaml closures, the algebra expresses them as small typed ASTs —
    conjunctions of spatial relations ({!Hint.rel}), lexical
    text-class tests, and attribute tests for guards; a value grammar
    for constructors; a closed set of arbitration kinds for
    preferences.  A grammar written in the algebra can be serialized
    ({!Loader.dump}), loaded from a file at runtime ({!Loader}), and
    compiled ({!instantiate}) into exactly the {!Grammar.t} the parser
    already consumes — turning every new domain or form style into a
    data file instead of a rebuild.

    {b Environments.}  Lexical knowledge (what reads as an operator
    phrase, a bound marker, a plausible attribute label) stays in code:
    an {!env} maps names to the judgement functions, and the algebra
    references them by name.  The standard environment built over
    [Wqi_stdgrammar.Lexicon] is [Wqi_stdgrammar.Std.env].

    {b Hints are derived, not declared.}  Because guards are data, the
    spatial conjuncts the candidate index can see through
    ({!Production.t.hints}) are computed mechanically from the guard's
    top-level positive relation conjuncts — the soundness contract
    ("every hint is implied by the guard") holds by construction. *)

type slot = int
(** A component position, [0]-based, in declaration order. *)

(** Where a predicate or constructor reads a slot's text: the
    underlying token's visible text ([Token_text], terminals), or the
    [S_str] semantic value a production built ([Sem_str]). *)
type text_src = Token_text | Sem_str

(** Guard predicates: conjunctions over spatial relations between two
    slots, the absence of a neighbouring instance, named lexical
    classes, and structural tests — everything the standard grammar's
    guards check. *)
type pred =
  | P_true
  | P_and of pred list
  | P_not of pred
  | P_rel of Hint.rel * slot * slot
      (** the spatial relation holds of (instance in first slot,
          instance in second slot) *)
  | P_none of Hint.rel * string * slot
      (** no live instance of the named symbol, disjoint from the
          slot's instance, stands in the relation to it (the outside
          instance first) — e.g. "no row directly above this one".  The
          symbol must be a component of the production other than its
          head, so the instances it ranges over are final while the
          guard runs (see {!Scope}) *)
  | P_text_is of string * text_src * slot
      (** named text class accepts the slot's text *)
  | P_split_applies of string * slot
      (** named splitter returns [Some _] on the slot's token text *)
  | P_ops_exists of string * slot
      (** some element of the slot's [S_ops] satisfies the named text
          class *)
  | P_ops_forall of string * slot
  | P_ops_count_ge of int * slot
      (** the slot's [S_ops] has at least this many elements *)
  | P_options_class of string * slot
      (** named predicate over the slot's token option labels *)
  | P_combo of string * slot list
      (** named predicate over the enumeration options of several
          slots (e.g. "do these selects form a date?") *)

(** Constructor value expressions. *)
type str_expr =
  | S_lit of string
  | S_token_text of slot
  | S_sem_str of slot

type ops_expr =
  | O_token_options of slot
  | O_sem_ops of slot
  | O_singleton of slot  (** [[str_of slot]] *)
  | O_append of slot * slot  (** [ops_of a @ [str_of b]] *)
  | O_lit of string list

type dom_expr =
  | D_text
  | D_datetime
  | D_enum of ops_expr
  | D_of_slot of slot  (** the slot's [S_domain] *)
  | D_range of dom_expr

type build =
  | B_none
  | B_str of str_expr
  | B_split_str of string * [ `First | `Second ] * slot
      (** apply the named splitter to the slot's token text; [S_str]
          of the requested half, [S_none] if it does not apply *)
  | B_ops of ops_expr
  | B_domain of dom_expr
  | B_cond of ops_expr option * str_expr * dom_expr
      (** a completed condition: optional operators, attribute,
          domain *)
  | B_lift of slot
      (** lift the slot's conditions to [S_conds] (CP/HQI bases) *)
  | B_concat of slot * slot
      (** concatenate two slots' [S_conds] (row/QI assembly) *)

(** Preference winning criteria — the closed arbitration algebra.
    Parameters that are grammar-specific (which symbols count as
    attribute labels, which splitters define a "dirty" label) are
    data. *)
type pref_kind =
  | K_beats  (** unconditional: winner type beats loser type *)
  | K_subsume  (** same-symbol: the longer of two subsuming covers *)
  | K_closest_unit
      (** two-child units: the tighter box/label pairing wins *)
  | K_clean_attr of string list
      (** the reading whose attribute no listed splitter still
          applies to beats the one still carrying a marker *)
  | K_assoc of string list
      (** association scoring between attributed patterns; the listed
          symbols are the attribute-label symbols *)

type production = {
  p_name : string;
  p_head : string;
  p_components : string list;
  p_guard : pred;
  p_build : build;
}

type preference = {
  r_name : string;
  r_winner : string;
  r_loser : string;
  r_kind : pref_kind;
}

type grammar = {
  g_name : string;  (** registry name; also the cache-key component *)
  g_version : string;
  g_terminals : string list;
  g_start : string;
  g_productions : production list;
  g_preferences : preference list;
}

(** {1 Environments} *)

type env = {
  text_classes : (string * (string -> bool)) list;
  options_classes : (string * (string list -> bool)) list;
  splitters : (string * (string -> (string * string) option)) list;
  combos : (string * (string list list -> bool)) list;
}

val empty_env : env

(** {1 Compilation} *)

val derived_hints : pred -> Hint.t list
(** The guard's top-level positive relation conjuncts, in guard order —
    the hints {!instantiate} attaches to the production. *)

val instantiate : env -> grammar -> (Grammar.t, string list) result
(** Compile the whole declarative grammar: every production through
    {!Production.make} (with {!derived_hints}), every preference
    through {!Preference.make}, the result through {!Grammar.make} and
    {!Grammar.validate}.  Errors carry the production/preference name
    they arose in. *)

val pp_pred : Format.formatter -> pred -> unit
