(* Print the derived global 2P grammar: symbol inventory, productions,
   preferences, and the 2P schedule (instantiation order, transformed
   and relaxed r-edges) — the analog of the paper's statement that "the
   grammar is available online".

   Grammar-file modes:
     --export        reprint the standard grammar, examples/grammars/std.wqg,
                     in its canonical .wqg form (the file's own bytes)
     --load FILE     load FILE, instantiate it against the standard
                     lexical environment, and re-print its canonical
                     dump — [--export | --load /dev/stdin] is the
                     round-trip identity
     --check FILE    load FILE, instantiate, and print a one-line
                     summary; exit 1 with file:line:col diagnostics on
                     any malformation *)

module Loader = Wqi_grammar.Loader
module Algebra = Wqi_grammar.Algebra

let env = Wqi_stdgrammar.Std.env

let fail fmt = Format.kfprintf (fun _ -> exit 1) Format.err_formatter fmt

let load_instantiated file =
  match Loader.load ~env file with
  | Error e -> fail "%s@." (Loader.error_to_string e)
  | Ok decl ->
    (match Algebra.instantiate env decl with
     | Error msgs ->
       fail "%s: %a@." file
         Format.(pp_print_list ~pp_sep:pp_print_newline pp_print_string)
         msgs
     | Ok g -> (decl, g))

let legacy_dump () =
  let g = Wqi_stdgrammar.Std.grammar in
  let terminals, nonterminals, productions, preferences =
    Wqi_grammar.Grammar.stats g
  in
  Format.printf
    "derived global 2P grammar: %d terminals, %d nonterminals, %d \
     productions, %d preferences@.@."
    terminals nonterminals productions preferences;
  Format.printf "%a@.@." Wqi_grammar.Grammar.pp g;
  let schedule = Wqi_grammar.Schedule.build g in
  Format.printf "2P schedule:@.%a@." Wqi_grammar.Schedule.pp schedule

let () =
  match Array.to_list Sys.argv with
  | _ :: "--export" :: [] ->
    print_string (Loader.dump Wqi_stdgrammar.Std.decl)
  | _ :: "--load" :: file :: [] ->
    let decl, _g = load_instantiated file in
    print_string (Loader.dump decl)
  | _ :: "--check" :: file :: [] ->
    let decl, g = load_instantiated file in
    let terminals, nonterminals, productions, preferences =
      Wqi_grammar.Grammar.stats g
    in
    Format.printf
      "%s: grammar %s@%s ok — %d terminals, %d nonterminals, %d \
       productions, %d preferences@."
      file decl.Algebra.g_name decl.Algebra.g_version terminals nonterminals
      productions preferences
  | [ _ ] -> legacy_dump ()
  | _ ->
    fail "usage: wqi_grammar_dump [--export | --load FILE | --check FILE]@."
