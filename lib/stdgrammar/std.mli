(** The derived global 2P grammar.

    The paper derives a single grammar from the 150-source Basic dataset
    (21 recurring condition patterns; 82 productions, 39 nonterminals, 16
    terminals) and shows it generalizes to new sources, new domains and
    random sources.  This module is our derivation of that grammar for
    the same pattern vocabulary.  Its productions and preferences live
    in [examples/grammars/std.wqg], the only copy, embedded at build
    time and loaded against {!env} when the module initialises; a file
    that fails to load raises [Invalid_argument] there.  Production
    hints are {!Wqi_grammar.Algebra.derived_hints} of the guards.

    Nonterminal inventory (paper names kept where they exist):

    - atoms: [Attr], [Val], [SelVal], [OpSel], [BoundWord], [Action],
      [Decor]
    - radio/checkbox structure: [RBU], [RBList], [CBU], [CBList], [Op]
    - condition patterns: [TextVal], [TextOp], [SelectCP], [EnumRB],
      [CheckCP], [CBSolo], [RangeCP], [RangeSelCP], [DateCP],
      [KeywordCP]
    - assembly: [CP], [HQI], [QI] (start symbol)

    Preferences encode the precedence conventions of Section 4.2
    (R1: a radio/checkbox unit beats an attribute on a shared text
    token; R2: the longer of two subsuming lists wins; pattern-level
    precedence such as TextOp over TextVal; and closest-pairing for
    equal-type conflicts). *)

val env : Wqi_grammar.Algebra.env
(** The standard lexical environment: {!Lexicon} judgements under
    stable names — text classes [plausible-attribute], [bound-marker],
    [unit-word], [operator-phrase]; options class
    [all-operator-options]; splitters [bound-suffix], [unit-prefix];
    combo [date-combo].  Grammar files are resolved against these
    names. *)

val decl : Wqi_grammar.Algebra.grammar
(** [std.wqg] parsed against {!env}: name ["std"], version ["1"]. *)

val grammar : Wqi_grammar.Grammar.t
(** [decl] instantiated against {!env}; passes [Grammar.validate]. *)

val start : Wqi_grammar.Symbol.t
(** The start symbol [QI]. *)

val terminals : Wqi_grammar.Symbol.t list
(** The terminal symbols, one per token kind. *)

val compiled : Wqi_parser.Engine.compiled
(** [grammar] compiled once at module load — interned symbol tables,
    flat dispatch tables and a shared arena pool.  Every consumer of
    the standard grammar ([wqi_core]'s default config, the CLI, the
    server, benches) should parse through this pack rather than paying
    {!Wqi_parser.Engine.compile} per call site. *)
