(** 2P grammars (Definition 1): ⟨Σ, N, s, Pd, Pf⟩.

    A 2P grammar couples productions (pattern construction knowledge)
    with preferences (ambiguity-resolution knowledge).  Grammars are
    plain values: the standard derived grammar lives in
    [Wqi_stdgrammar], and applications may build their own (Section 7
    discusses e-commerce navigation menus as another instance).

    {!make} interns the grammar's symbols once into a {!Symtab} and
    validates the grammar on it, once: {!validate} reads the verdict,
    and {!Schedule.build} builds its graph on the same table.  Loading
    a grammar file therefore interns and validates once, and compiling
    it ([Engine.compile]) adds no second pass. *)

type t = private {
  terminals : Symbol.t list;
  start : Symbol.t;
  productions : Production.t list;
  preferences : Preference.t list;
  symtab : Symtab.t;  (** the symbols above, interned *)
  errors : string list;  (** what {!validate} reports, in its order *)
}

val make :
  terminals:Symbol.t list ->
  start:Symbol.t ->
  productions:Production.t list ->
  ?preferences:Preference.t list ->
  unit ->
  t

val nonterminals : t -> Symbol.t list
(** All nonterminals mentioned as a head or component, in first-seen
    order. *)

val productions_with_head : t -> Symbol.t -> Production.t list

val parents_of : t -> Symbol.t -> Symbol.t list
(** Symbols that appear as the head of a production having the given
    symbol among its components (excluding self-recursion), in
    {!Symbol.compare} order. *)

val extend :
  t ->
  ?productions:Production.t list ->
  ?preferences:Preference.t list ->
  unit ->
  t
(** Augment a grammar with new rules — the extensibility story of
    Section 4.1: parsing machinery is untouched. *)

val validate : t -> (unit, string list) result
(** The well-formedness verdict {!make} reached: the start symbol is a nonterminal with at
    least one production; every component symbol is a declared terminal
    or the head of some production; production names are unique; the
    d-edge graph over distinct symbols is acyclic (self-recursion is
    allowed — it is what per-symbol fix-point iteration handles). *)

val pp : Format.formatter -> t -> unit
(** Figure-6-style listing: every production as [head -> components] and
    every preference as [winner beats loser].  Constraints and
    constructors are code, so only their presence is shown. *)

val stats : t -> int * int * int * int
(** [(terminals, nonterminals, productions, preferences)] — the numbers
    the paper quotes for its derived grammar (16/39/82 + preferences). *)
