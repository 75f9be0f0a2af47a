(* Tests for the extractor pipeline, the heuristic baseline, the survey
   analytics, and the evaluation driver. *)

module Extractor = Wqi_core.Extractor
module Condition = Wqi_model.Condition
module Semantic_model = Wqi_model.Semantic_model
module Baseline = Wqi_baseline.Baseline
module Survey = Wqi_survey.Survey
module Eval = Wqi_eval.Eval
module Metrics = Wqi_metrics.Metrics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let simple_form =
  {|<form>
    <table>
    <tr><td>Author: <input type="text" name="a"></td></tr>
    <tr><td>Format: <select name="f"><option>CD</option><option>Vinyl</option></select></td></tr>
    </table><input type="submit" value="Go"></form>|}

let test_extract_simple () =
  let e = Extractor.(run Config.default (Html simple_form)) in
  let attrs =
    List.map
      (fun (c : Condition.t) -> Condition.normalize_label c.attribute)
      (Extractor.conditions e)
  in
  Alcotest.(check (list string)) "conditions" [ "author"; "format" ] attrs

let test_diagnostics_populated () =
  let e = Extractor.(run Config.default (Html simple_form)) in
  check_int "token count" 5 e.diagnostics.token_count;
  check_bool "some instances" true (e.diagnostics.parse_stats.created > 5);
  check_bool "tree count positive" true (e.diagnostics.tree_count >= 1);
  check_bool "parse time nonnegative" true (e.diagnostics.parse_seconds >= 0.)

let test_extract_empty_input () =
  let e = Extractor.(run Config.default (Html "")) in
  check_int "no tokens" 0 e.diagnostics.token_count;
  check_int "no conditions" 0 (List.length (Extractor.conditions e))

let test_extract_plain_text_page () =
  let e =
    Extractor.(
      run Config.default (Html "<p>Just an article, no form at all.</p>"))
  in
  check_int "no conditions" 0 (List.length (Extractor.conditions e))

let test_missing_reported () =
  (* A label convention the grammar does not know (label to the right)
     leaves tokens uncovered, which the merger must report. *)
  let e =
    Extractor.(
      run Config.default
        (Html {|<form><input type="text" name="q"> Publisher</form>|}))
  in
  check_bool "missing reported" true
    (Semantic_model.missing_count e.model > 0)

let test_custom_grammar_hook () =
  (* The extractor accepts any grammar; an empty-ish grammar yields no
     conditions but still runs end to end. *)
  let g =
    Wqi_grammar.Grammar.make
      ~terminals:Wqi_stdgrammar.Std.terminals
      ~start:(Wqi_grammar.Symbol.nonterminal "S")
      ~productions:
        [ Wqi_grammar.Production.make ~name:"s"
            ~head:(Wqi_grammar.Symbol.nonterminal "S")
            ~components:[ Wqi_grammar.Symbol.terminal "text" ]
            () ]
      ()
  in
  let config =
    Extractor.Config.(default |> with_compiled (Wqi_parser.Engine.compile g))
  in
  let e = Extractor.run config (Extractor.Html simple_form) in
  check_int "no conditions from trivial grammar" 0
    (List.length (Extractor.conditions e))

(* --- baseline --- *)

let test_baseline_simple () =
  let conds = Baseline.extract simple_form in
  check_bool "finds both fields" true (List.length conds = 2);
  let attrs = List.map (fun (c : Condition.t) -> Condition.normalize_label c.attribute) conds in
  check_bool "labels associated" true
    (List.mem "author" attrs && List.mem "format" attrs)

let test_baseline_groups_by_name () =
  let conds =
    Baseline.extract
      {|<form>Class: <input type="radio" name="c"> Economy <input type="radio" name="c"> Business</form>|}
  in
  match conds with
  | [ c ] ->
    (match c.domain with
     | Condition.Enumeration values ->
       Alcotest.(check (list string)) "values" [ "Economy"; "Business" ] values
     | _ -> Alcotest.fail "expected enumeration")
  | _ -> Alcotest.failf "expected one grouped condition, got %d" (List.length conds)

let test_baseline_no_operators () =
  (* The baseline cannot recognize operator lists — each radio group
     becomes its own enumeration condition instead. *)
  let amazon_author =
    {|<form><table>
      <tr><td>Author:</td><td><input type="text" name="a"></td></tr>
      <tr><td></td><td><input type="radio" name="m"> starts with
      <input type="radio" name="m"> exact name</td></tr></table></form>|}
  in
  let truth =
    [ Condition.make
        ~operators:[ "starts with"; "exact name" ]
        ~attribute:"Author" Condition.Text ]
  in
  let baseline_counts =
    Metrics.count ~truth ~extracted:(Baseline.extract amazon_author)
  in
  let parser_counts =
    Metrics.count ~truth
      ~extracted:
        Extractor.(conditions (run Config.default (Html amazon_author)))
  in
  check_int "baseline misses the operator condition" 0 baseline_counts.correct;
  check_int "parser gets it" 1 parser_counts.correct

(* --- survey --- *)

let test_survey_growth_monotone () =
  let ds = Wqi_corpus.Dataset.basic () in
  let occs = Survey.occurrences ds.sources in
  let curve = Survey.growth_curve occs in
  check_int "one point per source" 150 (List.length curve);
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "monotone growth" true (monotone curve);
  let _, final = List.nth curve 149 in
  check_bool "converges below pattern universe" true
    (final <= List.length Wqi_corpus.Pattern.in_vocabulary);
  (* Flattening: the first third discovers most of the vocabulary. *)
  let _, third = List.nth curve 49 in
  check_bool "front-loaded discovery" true
    (float_of_int third >= 0.75 *. float_of_int final)

let test_survey_zipf_shape () =
  let ds = Wqi_corpus.Dataset.basic () in
  let freq = Survey.frequency_by_rank (Survey.occurrences ds.sources) in
  let totals = List.map (fun (_, t, _) -> t) freq in
  let rec descending = function
    | a :: (b :: _ as rest) -> a >= b && descending rest
    | _ -> true
  in
  check_bool "sorted by frequency" true (descending totals);
  match totals with
  | top :: _ ->
    let sum = List.fold_left ( + ) 0 totals in
    check_bool "head is heavy" true
      (float_of_int top >= 0.10 *. float_of_int sum)
  | [] -> Alcotest.fail "no patterns observed"

let test_survey_domain_reuse () =
  let ds = Wqi_corpus.Dataset.basic () in
  let news = Survey.domain_first_new_pattern (Survey.occurrences ds.sources) in
  match news with
  | (_, first) :: rest ->
    let later = List.fold_left (fun acc (_, n) -> acc + n) 0 rest in
    check_bool "later domains mostly reuse" true (later <= first)
  | [] -> Alcotest.fail "no domains"

(* --- eval driver --- *)

let test_eval_run () =
  let ds = Wqi_corpus.Dataset.new_source () in
  let small = { ds with sources = List.filteri (fun i _ -> i < 5) ds.sources } in
  let report = Eval.run small in
  check_int "one result per source" 5 (List.length report.results);
  check_bool "precision sane" true
    (report.avg_precision >= 0. && report.avg_precision <= 1.);
  check_bool "overall counts aggregated" true
    (report.overall.Metrics.truth
     = List.fold_left
         (fun acc (r : Eval.source_result) -> acc + r.counts.Metrics.truth)
         0 report.results)

let test_eval_distributions () =
  let ds = Wqi_corpus.Dataset.new_source () in
  let small = { ds with sources = List.filteri (fun i _ -> i < 5) ds.sources } in
  let report = Eval.run small in
  let dist = Eval.precision_distribution report in
  check_int "six thresholds" 6 (List.length dist);
  (* Monotone non-decreasing as thresholds fall. *)
  let rec non_decreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  check_bool "cumulative" true (non_decreasing dist);
  Alcotest.(check (float 0.001)) "threshold 0 is total" 100.
    (snd (List.nth dist 5))

let test_eval_custom_extractor () =
  let ds = Wqi_corpus.Dataset.new_source () in
  let small = { ds with sources = List.filteri (fun i _ -> i < 3) ds.sources } in
  let report = Eval.run ~extract:(fun _ -> []) small in
  Alcotest.(check (float 0.001)) "empty extractor recall" 0. report.avg_recall;
  Alcotest.(check (float 0.001)) "empty extractor precision" 1.
    report.avg_precision

let suite =
  [ ("extract simple form", `Quick, test_extract_simple);
    ("diagnostics populated", `Quick, test_diagnostics_populated);
    ("empty input", `Quick, test_extract_empty_input);
    ("formless page", `Quick, test_extract_plain_text_page);
    ("missing elements reported", `Quick, test_missing_reported);
    ("custom grammar hook", `Quick, test_custom_grammar_hook);
    ("baseline: simple form", `Quick, test_baseline_simple);
    ("baseline: groups by field name", `Quick, test_baseline_groups_by_name);
    ("baseline: misses operators", `Quick, test_baseline_no_operators);
    ("survey: growth monotone and flattening", `Quick, test_survey_growth_monotone);
    ("survey: zipf shape", `Quick, test_survey_zipf_shape);
    ("survey: domain reuse", `Quick, test_survey_domain_reuse);
    ("eval: run", `Quick, test_eval_run);
    ("eval: distributions", `Quick, test_eval_distributions);
    ("eval: custom extractor", `Quick, test_eval_custom_extractor) ]
