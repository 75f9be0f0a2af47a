(* Tests for operator canonicalization, domain analysis, and query
   formulation. *)

module Operator = Wqi_model.Operator
module Domain_analysis = Wqi_model.Domain_analysis
module Condition = Wqi_model.Condition
module Formulate = Wqi_core.Formulate

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- operator classification --- *)

let kind = Alcotest.testable Operator.pp Operator.equal

let test_operator_classify () =
  let cases =
    [ ("contains", Operator.Contains);
      ("Keyword search", Operator.Contains);
      ("contains all words", Operator.Contains_all);
      ("any of the words", Operator.Contains_any);
      ("Exact match", Operator.Equals);
      ("exact phrase", Operator.Equals);
      ("Start of last name", Operator.Starts_with);
      ("begins with", Operator.Starts_with);
      ("ends with", Operator.Ends_with);
      ("at most", Operator.Less_than);
      ("under", Operator.Less_than);
      ("at least", Operator.Greater_than);
      ("more than", Operator.Greater_than);
      ("between", Operator.Between);
      ("sounds like", Operator.Sounds_like) ]
  in
  List.iter
    (fun (wording, expected) ->
       Alcotest.check kind wording expected (Operator.classify wording))
    cases;
  Alcotest.check kind "unknown kept verbatim"
    (Operator.Unknown "zorble") (Operator.classify "zorble")

let test_operator_defaults () =
  Alcotest.check kind "text" Operator.Contains
    (Operator.default_for Condition.Text);
  Alcotest.check kind "enum" Operator.Equals
    (Operator.default_for (Condition.Enumeration [ "a" ]));
  Alcotest.check kind "range" Operator.Between
    (Operator.default_for (Condition.Range Condition.Text))

let test_operator_classify_all () =
  Alcotest.(check (list kind))
    "dedups by kind"
    [ Operator.Contains; Operator.Equals ]
    (Operator.classify_all [ "contains"; "exact"; "keyword" ])

(* --- domain analysis --- *)

let test_parse_bucket () =
  let b = Domain_analysis.parse_bucket "under $5" in
  Alcotest.(check (option (float 0.001))) "no low" None b.low;
  Alcotest.(check (option (float 0.001))) "high 5" (Some 5.) b.high;
  let b2 = Domain_analysis.parse_bucket "$5 to $20" in
  Alcotest.(check (option (float 0.001))) "low 5" (Some 5.) b2.low;
  Alcotest.(check (option (float 0.001))) "high 20" (Some 20.) b2.high;
  let b3 = Domain_analysis.parse_bucket "above $1,000" in
  Alcotest.(check (option (float 0.001))) "thousands separator" (Some 1000.)
    b3.low;
  let b4 = Domain_analysis.parse_bucket "any price" in
  check_bool "unbounded" true (b4.low = None && b4.high = None)

let test_analyze () =
  check_bool "text" true
    (Domain_analysis.analyze Condition.Text = Domain_analysis.Free_text);
  (match Domain_analysis.analyze (Condition.Enumeration [ "1"; "2"; "3" ]) with
   | Domain_analysis.Numeric_values [ 1.; 2.; 3. ] -> ()
   | _ -> Alcotest.fail "numeric enum");
  (match
     Domain_analysis.analyze
       (Condition.Enumeration [ "under $5"; "$5 to $20"; "above $20" ])
   with
   | Domain_analysis.Money_buckets _ -> ()
   | _ -> Alcotest.fail "money buckets");
  (match
     Domain_analysis.analyze (Condition.Enumeration [ "January"; "May" ])
   with
   | Domain_analysis.Month_names -> ()
   | _ -> Alcotest.fail "months");
  (match
     Domain_analysis.analyze (Condition.Enumeration [ "Red"; "Blue" ])
   with
   | Domain_analysis.Categorical [ "Red"; "Blue" ] -> ()
   | _ -> Alcotest.fail "categorical");
  match Domain_analysis.analyze (Condition.Range Condition.Text) with
  | Domain_analysis.Composite_range Domain_analysis.Free_text -> ()
  | _ -> Alcotest.fail "range recurses"

let test_covers () =
  let buckets =
    Domain_analysis.analyze
      (Condition.Enumeration [ "under $5"; "$5 to $20"; "above $20" ])
  in
  check_bool "3 covered" true (Domain_analysis.covers buckets 3.);
  check_bool "10 covered" true (Domain_analysis.covers buckets 10.);
  check_bool "50 covered" true (Domain_analysis.covers buckets 50.);
  let numeric = Domain_analysis.analyze (Condition.Enumeration [ "1"; "2" ]) in
  check_bool "listed" true (Domain_analysis.covers numeric 2.);
  check_bool "unlisted" false (Domain_analysis.covers numeric 3.)

(* --- formulation --- *)

let amazon = {|
<form>
<table>
<tr><td>Author:</td><td><input type="text" name="field-author"></td></tr>
<tr><td></td><td><input type="radio" name="mode" value="name-begins" checked> Start of last name<br>
<input type="radio" name="mode" value="name-exact"> Exact name</td></tr>
<tr><td>Format:</td><td><select name="fmt"><option>Hardcover</option><option>Paperback</option></select></td></tr>
<tr><td>Price:</td><td>from <input type="text" name="lo" size="6"> to <input type="text" name="hi" size="6"></td></tr>
</table>
</form>|}

let extraction () = Wqi_core.Extractor.(run Config.default (Html amazon))

let test_fillables () =
  let fs = Formulate.fillables (extraction ()) in
  check_int "three conditions bound" 3 (List.length fs);
  let author =
    List.find
      (fun (f : Formulate.fillable) ->
         Condition.normalize_label f.condition.attribute = "author")
      fs
  in
  check_int "author fields: textbox + 2 radios" 3 (List.length author.inputs)

let params = Alcotest.(list (pair string string))

let test_formulate_text_with_operator () =
  match
    Formulate.formulate (extraction ())
      [ { Formulate.attribute = "Author"; operator = Some "exact name";
          values = [ "tom clancy" ] } ]
  with
  | Ok p ->
    Alcotest.check params "author + operator radio"
      [ ("field-author", "tom clancy"); ("mode", "name-exact") ]
      p
  | Error e -> Alcotest.fail e

let test_formulate_enumeration () =
  match
    Formulate.formulate (extraction ())
      [ { Formulate.attribute = "format"; operator = None;
          values = [ "Paperback" ] } ]
  with
  | Ok p -> Alcotest.check params "select binding" [ ("fmt", "Paperback") ] p
  | Error e -> Alcotest.fail e

let test_formulate_range () =
  match
    Formulate.formulate (extraction ())
      [ { Formulate.attribute = "Price"; operator = None;
          values = [ "5"; "20" ] } ]
  with
  | Ok p ->
    Alcotest.check params "two bounds" [ ("lo", "5"); ("hi", "20") ] p
  | Error e -> Alcotest.fail e

let test_formulate_several_constraints () =
  match
    Formulate.formulate (extraction ())
      [ { Formulate.attribute = "Author"; operator = None;
          values = [ "king" ] };
        { Formulate.attribute = "Format"; operator = None;
          values = [ "Hardcover" ] } ]
  with
  | Ok p -> check_int "all params" 2 (List.length p)
  | Error e -> Alcotest.fail e

let test_formulate_errors () =
  let run c = Formulate.formulate (extraction ()) [ c ] in
  check_bool "unknown attribute" true
    (Result.is_error
       (run { Formulate.attribute = "Nope"; operator = None; values = [ "x" ] }));
  check_bool "unsupported operator" true
    (Result.is_error
       (run
          { Formulate.attribute = "Author"; operator = Some "sounds like";
            values = [ "x" ] }));
  check_bool "out-of-domain enum value" true
    (Result.is_error
       (run
          { Formulate.attribute = "Format"; operator = None;
            values = [ "Papyrus" ] }));
  check_bool "wrong arity for range" true
    (Result.is_error
       (run { Formulate.attribute = "Price"; operator = None; values = [ "5" ] }))

let test_formulate_datetime () =
  let html = {|
<form>Departing:
<select name="m"><option>January</option><option>June</option></select>
<select name="d"><option>1</option><option>15</option></select>
<select name="y"><option>2004</option><option>2005</option></select>
</form>|}
  in
  let e = Wqi_core.Extractor.(run Config.default (Html html)) in
  match
    Formulate.formulate e
      [ { Formulate.attribute = "Departing"; operator = None;
          values = [ "June"; "15"; "2005" ] } ]
  with
  | Ok p ->
    Alcotest.check params "three components"
      [ ("m", "June"); ("d", "15"); ("y", "2005") ]
      p
  | Error e -> Alcotest.fail e

let suite =
  [ ("operator: classify", `Quick, test_operator_classify);
    ("operator: defaults", `Quick, test_operator_defaults);
    ("operator: classify_all dedups", `Quick, test_operator_classify_all);
    ("domain: parse bucket", `Quick, test_parse_bucket);
    ("domain: analyze", `Quick, test_analyze);
    ("domain: covers", `Quick, test_covers);
    ("formulate: fillables", `Quick, test_fillables);
    ("formulate: text with operator", `Quick, test_formulate_text_with_operator);
    ("formulate: enumeration", `Quick, test_formulate_enumeration);
    ("formulate: range", `Quick, test_formulate_range);
    ("formulate: several constraints", `Quick, test_formulate_several_constraints);
    ("formulate: errors", `Quick, test_formulate_errors);
    ("formulate: datetime", `Quick, test_formulate_datetime) ]
