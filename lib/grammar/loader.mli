(** External grammar files: parse, validate, and canonically print the
    {!Algebra} representation.

    A grammar file is a sequence of s-expression forms: a header, then
    productions and preferences —

    {v
(wqi-grammar (format 1) (name std) (version 1)
  (terminals text textbox selection radio checkbox button image)
  (start QI))
(production P-Attr (head Attr) (components text)
  (guard (text-class plausible-attribute token 0))
  (build (str (token 0))))
(preference R1-RBU-Attr (winner RBU) (loser Attr) (beats))
    v}

    Guards are predicate forms ([(and ...)], [(not ...)], relation
    forms like [(left-of 60 0 1)] with explicit gaps/tolerances and
    0-based slot numbers, [(text-class NAME token|sem SLOT)],
    [(splits NAME SLOT)], [(ops-exist NAME SLOT)], [(ops-all NAME
    SLOT)], [(ops-count>= N SLOT)], [(options-class NAME SLOT)],
    [(combo NAME SLOT...)]); builds are value forms ([(str ...)],
    [(split-str NAME first|second SLOT)], [(ops ...)], [(domain ...)],
    [(cond ...)], [(lift SLOT)], [(concat A B)]).  Omitting [(guard
    ...)] means always-true; omitting [(build ...)] means no semantic
    value.  See README.md "Grammars as data" for the full reference.

    {!parse} validates eagerly with source positions: unknown
    text-class/splitter/combo names (against the given {!Algebra.env}),
    slots out of a production's arity, component symbols that are
    neither declared terminals nor any production's head, duplicate
    production names, a non-head start symbol, and cyclic productions
    all fail with [file:line:col].  A parsed grammar therefore
    instantiates cleanly; {!Algebra.instantiate} re-checks as a
    belt-and-braces layer.

    The checks run on one symbol table per parse: declared terminals
    and production heads by name in a monomorphic string table, heads
    numbered as first met, so symbol references cost one lookup and the
    cycle check is a depth-first search over per-head adjacency arrays
    (each head's edges in production and component order, which fixes
    the cycle a diagnostic names).

    {!dump} is canonical — one fixed rendering per grammar, one form
    per line — so dump → {!parse} → dump is byte-identical. *)

type error = { file : string; pos : Sexp.pos; message : string }

val error_to_string : error -> string
(** ["file:line:col: message"]. *)

val parse :
  env:Algebra.env -> ?file:string -> string -> (Algebra.grammar, error) result
(** Parse grammar-file text.  [file] (default ["<string>"]) only labels
    error messages. *)

val load : env:Algebra.env -> string -> (Algebra.grammar, error) result
(** Read and {!parse} a file; I/O failures are reported as an [error]
    at position 0:0. *)

val dump : Algebra.grammar -> string
(** Canonical text of the grammar: header form, productions, then
    preferences, one per line. *)

val load_grammar :
  env:Algebra.env -> string -> (Algebra.grammar * Grammar.t, string) result
(** {!load} then {!Algebra.instantiate}, with errors flattened to one
    printable string — the convenience entry CLIs use. *)
