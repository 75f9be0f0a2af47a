(* Tests for JSON export, textual similarity, interface matching and
   clustering, and multi-form extraction. *)

module Condition = Wqi_model.Condition
module Export = Wqi_model.Export
module Textsim = Wqi_model.Textsim
module Match = Wqi_match.Interface_match

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let cond ?operators ?(domain = Condition.Text) name =
  Condition.make ?operators ~attribute:name domain

(* --- export --- *)

let test_export_condition () =
  check_str "text condition"
    {|{"attribute": "Author", "operators": ["contains"], "domain": {"kind": "text"}}|}
    (Export.condition (cond ~operators:[ "contains" ] "Author"));
  check_str "enumeration"
    {|{"attribute": "Format", "operators": [], "domain": {"kind": "enumeration", "values": ["CD", "Vinyl"]}}|}
    (Export.condition (cond ~domain:(Condition.Enumeration [ "CD"; "Vinyl" ]) "Format"));
  check_str "range nests"
    {|{"attribute": "Price", "operators": [], "domain": {"kind": "range", "of": {"kind": "text"}}}|}
    (Export.condition (cond ~domain:(Condition.Range Condition.Text) "Price"))

let test_export_escaping () =
  let json = Export.condition (cond "He said \"hi\"\n") in
  check_bool "escaped quote" true
    (String.length json > 0
     && not (String.contains (String.concat "" (String.split_on_char '\\' json)) '\n'))

let test_export_model () =
  let m =
    { Wqi_model.Semantic_model.conditions = [ cond "A" ];
      errors = [ Wqi_model.Semantic_model.Missing (3, "text \"x\"") ] }
  in
  let json = Export.model m in
  check_bool "has conditions key" true
    (String.length json > 20 && String.sub json 0 15 = {|{"conditions": |});
  check_bool "error encoded" true
    (let needle = {|"kind": "missing"|} in
     let n = String.length needle and h = String.length json in
     let rec at i = i + n <= h && (String.sub json i n = needle || at (i + 1)) in
     at 0)

let test_export_source_description () =
  let m = { Wqi_model.Semantic_model.conditions = []; errors = [] } in
  check_str "wraps name and url"
    {|{"source": "amazon", "url": "http://amazon.com", "capabilities": {"conditions": [], "errors": []}}|}
    (Export.source_description ~name:"amazon" ~url:"http://amazon.com" m)

(* --- textsim --- *)

let test_textsim () =
  Alcotest.(check (float 0.001)) "identical" 1.0 (Textsim.similarity "Author" "author:");
  check_bool "plural" true (Textsim.similarity "Publisher" "Publishers" > 0.8);
  check_bool "unrelated" true (Textsim.similarity "Make" "Departure" < 0.4);
  Alcotest.(check (float 0.001)) "empty" 0.0 (Textsim.similarity "" "x");
  Alcotest.(check (list string)) "single char sentinel" [ "a$" ] (Textsim.bigrams "A")

(* --- matching --- *)

let schema source conditions = { Match.source; conditions }

let books_a =
  schema "books-a"
    [ cond "Author"; cond "Title";
      cond ~domain:(Condition.Enumeration [ "H"; "P" ]) "Format" ]

let books_b =
  schema "books-b"
    [ cond "Author name"; cond "Title:";
      cond ~domain:(Condition.Enumeration [ "x"; "y"; "z" ]) "Subject" ]

let cars =
  schema "cars"
    [ cond ~domain:(Condition.Enumeration [ "Ford"; "BMW" ]) "Make";
      cond "Model"; cond ~domain:(Condition.Range Condition.Text) "Price" ]

let test_attribute_match () =
  check_bool "same label same shape" true
    (Match.attribute_match (cond "Author") (cond "author:") = 1.0);
  check_bool "domain shape penalty" true
    (Match.attribute_match (cond "Format")
       (cond ~domain:(Condition.Enumeration [ "a"; "b" ]) "Format")
     = 0.8)

let test_correspondences () =
  let pairs = Match.correspondences books_a books_b in
  check_int "two matches" 2 (List.length pairs);
  let matched_attrs =
    List.sort compare
      (List.map (fun ((a : Condition.t), _, _) -> a.attribute) pairs)
  in
  Alcotest.(check (list string)) "author and title matched"
    [ "Author"; "Title" ] matched_attrs;
  (* One-to-one: a schema with duplicate attributes cannot double-match. *)
  let dup = schema "dup" [ cond "Author"; cond "Author" ] in
  let single = schema "single" [ cond "Author" ] in
  check_int "one-to-one" 1 (List.length (Match.correspondences dup single))

let test_schema_similarity () =
  check_bool "same-domain schemas close" true
    (Match.schema_similarity books_a books_b > 0.4);
  check_bool "cross-domain schemas far" true
    (Match.schema_similarity books_a cars < 0.2);
  Alcotest.(check (float 0.001)) "identity" 1.0
    (Match.schema_similarity books_a books_a);
  Alcotest.(check (float 0.001)) "empty vs nonempty" 0.0
    (Match.schema_similarity (schema "e" []) books_a);
  Alcotest.(check (float 0.001)) "both empty" 1.0
    (Match.schema_similarity (schema "e" []) (schema "f" []))

let test_cluster () =
  let clusters = Match.cluster ~threshold:0.4 [ books_a; cars; books_b ] in
  check_int "two clusters" 2 (List.length clusters);
  let sizes = List.sort compare (List.map List.length clusters) in
  Alcotest.(check (list int)) "sizes" [ 1; 2 ] sizes

let test_purity () =
  let label (s : Match.schema) = if s.source = "cars" then "autos" else "books" in
  let perfect = [ [ books_a; books_b ]; [ cars ] ] in
  Alcotest.(check (float 0.001)) "perfect" 1.0 (Match.purity ~label perfect);
  let mixed = [ [ books_a; cars ]; [ books_b ] ] in
  Alcotest.(check (float 0.001)) "mixed" (2. /. 3.) (Match.purity ~label mixed);
  Alcotest.(check (float 0.001)) "empty" 1.0 (Match.purity ~label [])

let test_end_to_end_clustering () =
  (* Extract two Books forms and one Automobiles form, then cluster the
     *extracted* schemas: the domains must separate. *)
  let g = Wqi_corpus.Prng.create 0xC1L in
  let gen domain_name id =
    let domain = Wqi_corpus.Vocabulary.find domain_name in
    let s =
      Wqi_corpus.Generator.generate g ~id ~domain ~complexity:`Rich
        ~oog_prob:0. ()
    in
    schema id
      Wqi_core.Extractor.(conditions (run Config.default (Html s.html)))
  in
  let schemas =
    [ gen "Books" "b1"; gen "Automobiles" "a1"; gen "Books" "b2";
      gen "Automobiles" "a2" ]
  in
  let clusters = Match.cluster ~threshold:0.25 schemas in
  let label (s : Match.schema) = String.make 1 s.source.[0] in
  check_bool "high purity" true (Match.purity ~label clusters >= 0.75)

(* --- unification --- *)

let test_unify_merges_labels () =
  let s1 = schema "s1" [ cond "Author"; cond "Title" ] in
  let s2 = schema "s2" [ cond "author:"; cond "Publisher" ] in
  let unified = Match.unify [ s1; s2 ] in
  check_int "three unified conditions" 3 (List.length unified);
  (match unified with
   | (c, support) :: _ ->
     Alcotest.(check string) "author has top support" "author"
       (Condition.normalize_label c.attribute);
     check_int "support 2" 2 support
   | [] -> Alcotest.fail "no unified conditions")

let test_unify_unions_enumerations () =
  let s1 =
    schema "s1" [ cond ~domain:(Condition.Enumeration [ "CD"; "Vinyl" ]) "Format" ]
  in
  let s2 =
    schema "s2"
      [ cond ~domain:(Condition.Enumeration [ "CD"; "Cassette" ]) "Format:" ]
  in
  match Match.unify [ s1; s2 ] with
  | [ (c, 2) ] ->
    (match c.domain with
     | Condition.Enumeration values ->
       Alcotest.(check (list string)) "values unioned, deduped"
         [ "CD"; "Vinyl"; "Cassette" ] values
     | d -> Alcotest.failf "wrong domain %a" Condition.pp_domain d)
  | u -> Alcotest.failf "expected one unified condition, got %d" (List.length u)

let test_unify_never_merges_within_source () =
  (* Two near-identical attributes in ONE source stay separate (a form
     never repeats an attribute). *)
  let s1 = schema "s1" [ cond "Departure date"; cond "Departure time" ] in
  check_int "kept apart" 2 (List.length (Match.unify [ s1 ]))

let test_unify_operator_union () =
  let s1 = schema "s1" [ cond ~operators:[ "contains" ] "Title" ] in
  let s2 = schema "s2" [ cond ~operators:[ "exact" ] "Title" ] in
  match Match.unify [ s1; s2 ] with
  | [ (c, _) ] ->
    Alcotest.(check (list string)) "operators unioned" [ "contains"; "exact" ]
      (List.sort compare c.operators)
  | u -> Alcotest.failf "expected one condition, got %d" (List.length u)

(* --- multi-form extraction --- *)

let test_extract_forms () =
  let page = {|
<h1>MegaBooks</h1>
<form action="/quick"><input type="text" name="q" size="30"><input type="submit" value="Search"></form>
<h2>Advanced search</h2>
<form action="/advanced">
<table>
<tr><td>Author: <input type="text" name="a"></td></tr>
<tr><td>Title: <input type="text" name="t"></td></tr>
</table>
<input type="submit" value="Find">
</form>|}
  in
  match Wqi_core.Extractor.(run_forms Config.default) page with
  | [ quick; advanced ] ->
    check_int "quick form: one keyword condition" 1
      (List.length (Wqi_core.Extractor.conditions quick));
    check_int "advanced form: two conditions" 2
      (List.length (Wqi_core.Extractor.conditions advanced))
  | forms -> Alcotest.failf "expected two forms, got %d" (List.length forms)

let test_extract_forms_formless () =
  match
    Wqi_core.Extractor.(run_forms Config.default)
      "<p>Author: <input type=\"text\"></p>"
  with
  | [ only ] ->
    check_int "whole page used" 1
      (List.length (Wqi_core.Extractor.conditions only))
  | forms -> Alcotest.failf "expected one extraction, got %d" (List.length forms)

let suite =
  [ ("export: condition", `Quick, test_export_condition);
    ("export: escaping", `Quick, test_export_escaping);
    ("export: model", `Quick, test_export_model);
    ("export: source description", `Quick, test_export_source_description);
    ("textsim", `Quick, test_textsim);
    ("match: attribute", `Quick, test_attribute_match);
    ("match: correspondences", `Quick, test_correspondences);
    ("match: schema similarity", `Quick, test_schema_similarity);
    ("match: cluster", `Quick, test_cluster);
    ("match: purity", `Quick, test_purity);
    ("match: end-to-end clustering", `Quick, test_end_to_end_clustering);
    ("unify: merges labels", `Quick, test_unify_merges_labels);
    ("unify: unions enumerations", `Quick, test_unify_unions_enumerations);
    ("unify: within-source separation", `Quick, test_unify_never_merges_within_source);
    ("unify: operator union", `Quick, test_unify_operator_union);
    ("extract_forms: two forms", `Quick, test_extract_forms);
    ("extract_forms: formless page", `Quick, test_extract_forms_formless) ]
