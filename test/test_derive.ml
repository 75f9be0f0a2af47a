(* Tests for grammar derivation from observed pattern samples. *)

module Derive = Wqi_eval.Derive
module Pattern = Wqi_corpus.Pattern
module Grammar = Wqi_grammar.Grammar

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_every_pattern_mapped () =
  List.iter
    (fun p ->
       check_bool (Pattern.name p) true (Derive.productions_for p <> []))
    Pattern.in_vocabulary;
  List.iter
    (fun p ->
       check_bool (Pattern.name p) true (Derive.productions_for p = []))
    Pattern.out_of_grammar

let test_mapped_productions_exist () =
  let std_names =
    List.map
      (fun (p : Wqi_grammar.Production.t) -> p.name)
      Wqi_stdgrammar.Std.grammar.productions
  in
  List.iter
    (fun pattern ->
       List.iter
         (fun name ->
            check_bool
              (Pattern.name pattern ^ " -> " ^ name)
              true (List.mem name std_names))
         (Derive.productions_for pattern))
    Pattern.in_vocabulary

let test_derived_grammars_validate () =
  (* Every single-pattern grammar and the all-pattern grammar must be
     well-formed and schedulable. *)
  List.iter
    (fun p ->
       let g = Derive.grammar_for_patterns [ p ] in
       (match Grammar.validate g with
        | Ok () -> ()
        | Error errs ->
          Alcotest.failf "%s: %s" (Pattern.name p) (String.concat "; " errs));
       ignore (Wqi_grammar.Schedule.build g))
    Pattern.in_vocabulary;
  let full = Derive.grammar_for_patterns Pattern.in_vocabulary in
  check_bool "full derivation validates" true (Grammar.validate full = Ok ())

let test_full_derivation_covers_std () =
  (* Deriving from all patterns recovers (almost) the whole standard
     grammar. *)
  let full = Derive.grammar_for_patterns Pattern.in_vocabulary in
  let _, _, std_prods, _ = Grammar.stats Wqi_stdgrammar.Std.grammar in
  let _, _, full_prods, _ = Grammar.stats full in
  check_bool "derivation nearly complete" true
    (full_prods >= std_prods - 2 && full_prods <= std_prods)

let test_subgrammar_still_extracts () =
  (* A grammar derived from only the text patterns still parses a
     text-only form completely. *)
  let g = Derive.grammar_for_patterns [ Pattern.Attr_left_text ] in
  let e =
    Wqi_core.Extractor.(
      run Config.(default |> with_compiled (Wqi_parser.Engine.compile g)))
      (Html
         {|<form><p>Author: <input type="text" name="a"></p><p>Title: <input type="text" name="t"></p></form>|})
  in
  check_int "both conditions" 2 (List.length (Wqi_core.Extractor.conditions e))

let test_subgrammar_misses_unknown_patterns () =
  (* The same text-only grammar cannot interpret a selection condition. *)
  let g = Derive.grammar_for_patterns [ Pattern.Attr_left_text ] in
  let e =
    Wqi_core.Extractor.(
      run Config.(default |> with_compiled (Wqi_parser.Engine.compile g)))
      (Html
         {|<form>Format: <select name="f"><option>CD</option><option>LP</option></select></form>|})
  in
  check_int "nothing extracted" 0 (List.length (Wqi_core.Extractor.conditions e))

let test_grammar_from_sources_monotone () =
  let basic = Wqi_corpus.Dataset.basic () in
  let size n =
    let training = List.filteri (fun i _ -> i < n) basic.sources in
    let _, _, prods, _ =
      Grammar.stats (Derive.grammar_from_sources training)
    in
    prods
  in
  check_bool "more sources, at least as many productions" true
    (size 5 <= size 50 && size 50 <= size 150)

let suite =
  [ ("every pattern mapped", `Quick, test_every_pattern_mapped);
    ("mapped productions exist", `Quick, test_mapped_productions_exist);
    ("derived grammars validate", `Quick, test_derived_grammars_validate);
    ("full derivation covers std", `Quick, test_full_derivation_covers_std);
    ("subgrammar still extracts", `Quick, test_subgrammar_still_extracts);
    ("subgrammar misses unknown patterns", `Quick,
     test_subgrammar_misses_unknown_patterns);
    ("derivation monotone in sample", `Quick, test_grammar_from_sources_monotone) ]
