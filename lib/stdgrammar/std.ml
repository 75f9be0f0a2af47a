module A = Wqi_grammar.Algebra
module Loader = Wqi_grammar.Loader

let env =
  { A.text_classes =
      [ ("plausible-attribute", Lexicon.plausible_attribute);
        ("bound-marker", Lexicon.is_bound_marker);
        ("unit-word", Lexicon.is_unit_word);
        ("operator-phrase", Lexicon.is_operator_phrase) ];
    options_classes =
      [ ("all-operator-options", Lexicon.all_operator_options) ];
    splitters =
      [ ("bound-suffix", Lexicon.split_bound_suffix);
        ("unit-prefix", Lexicon.split_unit_prefix) ];
    combos = [ ("date-combo", Lexicon.plausible_date_combo) ] }

let decl =
  match Loader.parse ~env ~file:"examples/grammars/std.wqg" Std_wqg.text with
  | Ok decl -> decl
  | Error e -> invalid_arg ("Std: " ^ Loader.error_to_string e)

let grammar =
  match A.instantiate env decl with
  | Ok g -> g
  | Error msgs ->
    invalid_arg
      ("Std: std.wqg failed to instantiate: " ^ String.concat "; " msgs)

let start = grammar.Wqi_grammar.Grammar.start
let terminals = grammar.Wqi_grammar.Grammar.terminals

(* Compile once at load: the pack (symbol interning, dispatch tables,
   arena pool) is immutable apart from its lock-free pool, so one shared
   copy serves every thread and domain. *)
let compiled =
  Wqi_parser.Engine.compile ~name:decl.A.g_name ~version:decl.A.g_version
    grammar
