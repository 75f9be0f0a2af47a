(* Tests for the lexicon and the derived global grammar, including one
   end-to-end extraction check per condition pattern. *)

module Lexicon = Wqi_stdgrammar.Lexicon
module Std = Wqi_stdgrammar.Std
module Grammar = Wqi_grammar.Grammar
module Condition = Wqi_model.Condition
module Pattern = Wqi_corpus.Pattern
module Vocabulary = Wqi_corpus.Vocabulary

let check_bool = Alcotest.(check bool)

(* --- lexicon --- *)

let test_operator_phrases () =
  List.iter
    (fun s -> check_bool s true (Lexicon.is_operator_phrase s))
    [ "contains"; "Starts with"; "exact phrase"; "First name/initials and last name";
      "begins with"; "contains all words" ];
  List.iter
    (fun s -> check_bool s false (Lexicon.is_operator_phrase s))
    [ "Author"; "Price"; ""; "Hardcover" ]

let test_operator_options () =
  check_bool "all ops" true
    (Lexicon.all_operator_options [ "contains"; "exact match" ]);
  check_bool "mixed" false
    (Lexicon.all_operator_options [ "contains"; "Hardcover" ]);
  check_bool "singleton" false (Lexicon.all_operator_options [ "contains" ])

let test_bound_markers () =
  List.iter
    (fun s -> check_bool s true (Lexicon.is_bound_marker s))
    [ "from"; "To"; "min"; "MAX:"; " between "; "$min" ];
  List.iter
    (fun s -> check_bool s false (Lexicon.is_bound_marker s))
    [ "Author"; "fromage"; "" ]

let test_split_bound_suffix () =
  Alcotest.(check (option (pair string string)))
    "price from"
    (Some ("Price:", "from"))
    (Lexicon.split_bound_suffix "Price: from");
  Alcotest.(check (option (pair string string)))
    "doors min"
    (Some ("Doors", "min"))
    (Lexicon.split_bound_suffix "Doors min");
  Alcotest.(check (option (pair string string)))
    "no suffix" None
    (Lexicon.split_bound_suffix "Author name");
  Alcotest.(check (option (pair string string)))
    "bare marker" None
    (Lexicon.split_bound_suffix "from")

let test_split_unit_prefix () =
  Alcotest.(check (option (pair string string)))
    "miles of ZIP"
    (Some ("miles", "ZIP"))
    (Lexicon.split_unit_prefix "miles of ZIP");
  Alcotest.(check (option (pair string string)))
    "nights in"
    (Some ("nights", "in"))
    (Lexicon.split_unit_prefix "nights in");
  Alcotest.(check (option (pair string string)))
    "not unit-led" None
    (Lexicon.split_unit_prefix "ZIP code");
  Alcotest.(check (option (pair string string)))
    "bare unit" None
    (Lexicon.split_unit_prefix "miles")

let test_date_components () =
  let months = [ "January"; "February"; "December" ] in
  let days = List.init 31 (fun i -> string_of_int (i + 1)) in
  let years = [ "2004"; "2005"; "2006" ] in
  check_bool "months" true (Lexicon.date_component months = `Month);
  check_bool "days" true (Lexicon.date_component days = `Day);
  check_bool "years" true (Lexicon.date_component years = `Year);
  check_bool "none" true (Lexicon.date_component [ "red"; "blue" ] = `None);
  check_bool "mdy combo" true
    (Lexicon.plausible_date_combo [ months; days; years ]);
  check_bool "numeric mdy combo" true
    (Lexicon.plausible_date_combo
       [ List.init 12 (fun i -> string_of_int (i + 1)); days; years ]);
  check_bool "month-year pair" true
    (Lexicon.plausible_date_combo [ months; years ]);
  (* Passenger-count pairs must not register as dates. *)
  check_bool "two count lists rejected" false
    (Lexicon.plausible_date_combo
       [ [ "1"; "2"; "3" ]; [ "0"; "1"; "2" ] ]);
  check_bool "hour-minute pair" true
    (Lexicon.plausible_date_combo
       [ [ "1 am"; "2 pm" ]; [ "00"; "15"; "30"; "45" ] ])

let test_plausible_attribute () =
  List.iter
    (fun s -> check_bool s true (Lexicon.plausible_attribute s))
    [ "Author"; "Price range"; "Keyword(s):"; "Departure city" ];
  List.iter
    (fun s -> check_bool s false (Lexicon.plausible_attribute s))
    [ ""; "42"; "Find exactly what you are looking for with our options";
      "Buy now!" ]

(* --- grammar sanity --- *)

let test_grammar_valid () =
  check_bool "validates" true (Grammar.validate Std.grammar = Ok ())

let test_grammar_scale () =
  let terminals, nonterminals, productions, preferences =
    Grammar.stats Std.grammar
  in
  check_bool "terminals" true (terminals >= 7);
  check_bool "nonterminals ~ paper scale" true (nonterminals >= 25);
  check_bool "productions ~ paper scale" true (productions >= 50);
  check_bool "has preferences" true (preferences >= 15)

let test_schedule_builds () =
  let s = Wqi_grammar.Schedule.build Std.grammar in
  check_bool "covers all nonterminals" true
    (List.length s.Wqi_grammar.Schedule.order
     = List.length (Grammar.nonterminals Std.grammar))

(* --- one extraction check per pattern --- *)

let attribute_for pattern =
  let find_in domains pred =
    List.concat_map (fun (d : Vocabulary.domain) -> d.attributes) domains
    |> List.find pred
  in
  let applicable (a : Vocabulary.attribute) =
    List.mem pattern (Pattern.applicable a)
    || List.mem pattern (Pattern.applicable_oog a)
  in
  find_in Vocabulary.all applicable

let extract_pattern pattern =
  let g = Wqi_corpus.Prng.create 7L in
  let field_seq = ref 0 in
  let attr = attribute_for pattern in
  let rendering = Pattern.render g ~field_seq attr pattern in
  let html =
    Wqi_html.Printer.to_string
      (Wqi_html.Dom.element "form" rendering.nodes)
  in
  (rendering.truth, Wqi_core.Extractor.(run Config.default (Html html)))

let pattern_case pattern =
  let name = Pattern.name pattern in
  ( Printf.sprintf "pattern %s extracts" name,
    `Quick,
    fun () ->
      let truth, extraction = extract_pattern pattern in
      let extracted = Wqi_core.Extractor.conditions extraction in
      let counts = Wqi_metrics.Metrics.count ~truth:[ truth ] ~extracted in
      if counts.Wqi_metrics.Metrics.correct <> 1 then
        Alcotest.failf "pattern %s: truth %s, extracted [%s]" name
          (Condition.to_string truth)
          (String.concat "; " (List.map Condition.to_string extracted)) )

let in_vocabulary_cases = List.map pattern_case Pattern.in_vocabulary

(* Out-of-grammar patterns must NOT be extracted correctly in isolation —
   that is what makes them out-of-grammar.  (If one starts passing, it
   belongs in the vocabulary instead.) *)
let oog_case pattern =
  let name = Pattern.name pattern in
  ( Printf.sprintf "pattern %s stays out of grammar" name,
    `Quick,
    fun () ->
      let truth, extraction = extract_pattern pattern in
      let extracted = Wqi_core.Extractor.conditions extraction in
      let counts = Wqi_metrics.Metrics.count ~truth:[ truth ] ~extracted in
      Alcotest.(check int) "no exact match" 0 counts.Wqi_metrics.Metrics.correct )

let oog_cases =
  List.map oog_case
    [ Pattern.Oog_attr_right_text; Pattern.Oog_image_label ]

(* --- flagship example: the paper's amazon.com interface --- *)

let amazon = {|
<form>
<table>
<tr><td>Author:</td><td><input type="text" name="author" size="20"></td></tr>
<tr><td></td><td><input type="radio" name="m" checked> First name/initials and last name<br>
<input type="radio" name="m"> Start of last name<br>
<input type="radio" name="m"> Exact name</td></tr>
<tr><td>Title:</td><td><input type="text" name="title"></td></tr>
<tr><td>Price:</td><td><select name="p"><option>under $5</option><option>$5 to $20</option><option>above $20</option></select></td></tr>
</table>
<input type="submit" value="Search">
</form>|}

let test_amazon_interface () =
  let e = Wqi_core.Extractor.(run Config.default (Html amazon)) in
  let truth =
    [ Condition.make
        ~operators:
          [ "First name/initials and last name"; "Start of last name";
            "Exact name" ]
        ~attribute:"Author" Condition.Text;
      Condition.make ~attribute:"Title" Condition.Text;
      Condition.make ~attribute:"Price"
        (Condition.Enumeration [ "under $5"; "$5 to $20"; "above $20" ]) ]
  in
  let counts =
    Wqi_metrics.Metrics.count ~truth
      ~extracted:(Wqi_core.Extractor.conditions e)
  in
  Alcotest.(check int) "all three conditions" 3 counts.correct;
  Alcotest.(check int) "nothing spurious" 3 counts.extracted;
  check_bool "complete parse" true e.diagnostics.complete

let test_column_wise_recovered () =
  (* The Figure-14 situation: a column-wise arrangement with misaligned
     rows; all conditions must still be recovered. *)
  let html = {|
<form><table><tr>
<td><p>Author: <input type="text" name="a"></p><p>Title: <input type="text" name="t"></p></td>
<td><br><br><br><p>Publisher: <input type="text" name="p"></p><p>Year: <input type="text" name="y"></p></td>
</tr></table></form>|}
  in
  let e = Wqi_core.Extractor.(run Config.default (Html html)) in
  let truth =
    List.map
      (fun a -> Condition.make ~attribute:a Condition.Text)
      [ "Author"; "Title"; "Publisher"; "Year" ]
  in
  let counts =
    Wqi_metrics.Metrics.count ~truth
      ~extracted:(Wqi_core.Extractor.conditions e)
  in
  Alcotest.(check int) "all four recovered" 4 counts.correct

let test_separated_panels_partial_parses () =
  (* Two visually separated panels exceed the vertical-assembly gap, so
     no single parse covers the form; the merger must union multiple
     partial parses (Section 3.4). *)
  let spacer = String.concat "" (List.init 12 (fun _ -> "<br>")) in
  let html =
    Printf.sprintf
      {|<form><p>Author: <input type="text" name="a"></p>%s<p>Publisher: <input type="text" name="p"></p></form>|}
      spacer
  in
  let e = Wqi_core.Extractor.(run Config.default (Html html)) in
  let truth =
    List.map
      (fun a -> Condition.make ~attribute:a Condition.Text)
      [ "Author"; "Publisher" ]
  in
  let counts =
    Wqi_metrics.Metrics.count ~truth
      ~extracted:(Wqi_core.Extractor.conditions e)
  in
  Alcotest.(check int) "union recovers both" 2 counts.correct;
  check_bool "more than one partial tree" true (e.diagnostics.tree_count > 1);
  check_bool "no complete parse" true (not e.diagnostics.complete)

let suite =
  [ ("lexicon: operator phrases", `Quick, test_operator_phrases);
    ("lexicon: operator options", `Quick, test_operator_options);
    ("lexicon: bound markers", `Quick, test_bound_markers);
    ("lexicon: split bound suffix", `Quick, test_split_bound_suffix);
    ("lexicon: split unit prefix", `Quick, test_split_unit_prefix);
    ("lexicon: date components", `Quick, test_date_components);
    ("lexicon: plausible attribute", `Quick, test_plausible_attribute);
    ("grammar: validates", `Quick, test_grammar_valid);
    ("grammar: paper scale", `Quick, test_grammar_scale);
    ("grammar: schedulable", `Quick, test_schedule_builds);
    ("amazon interface", `Quick, test_amazon_interface);
    ("column-wise recovered", `Quick, test_column_wise_recovered);
    ("separated panels partial parses", `Quick, test_separated_panels_partial_parses) ]
  @ in_vocabulary_cases @ oog_cases
