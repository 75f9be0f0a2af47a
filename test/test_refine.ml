(* Tests for cross-interface refinement (Section 7 future work). *)

module Refine = Wqi_refine.Refine
module Condition = Wqi_model.Condition
module Semantic_model = Wqi_model.Semantic_model

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cond ?(domain = Condition.Text) name = Condition.make ~attribute:name domain

let test_learn_support () =
  let k =
    Refine.learn
      [ [ cond "Author"; cond "Title" ];
        [ cond "author:"; cond "Price" ];
        [ cond "Title" ] ]
  in
  let support l = List.assoc_opt l k.attribute_support in
  Alcotest.(check (option int)) "author merged" (Some 2) (support "author");
  Alcotest.(check (option int)) "title" (Some 2) (support "title");
  Alcotest.(check (option int)) "price" (Some 1) (support "price");
  check_bool "known" true (Refine.known k "AUTHOR:");
  check_bool "min support" false (Refine.known k ~min_support:2 "price");
  check_bool "unknown" false (Refine.known k "publisher")

let test_learn_duplicates_within_source () =
  (* Two identical attributes inside one source count once. *)
  let k = Refine.learn [ [ cond "Author"; cond "Author" ] ] in
  Alcotest.(check (option int)) "single support" (Some 1)
    (List.assoc_opt "author" k.attribute_support)

let test_similarity () =
  Alcotest.(check (float 0.001)) "equal" 1.0 (Refine.similarity "Author" "author:");
  check_bool "close labels" true (Refine.similarity "Departure city" "Departure" > 0.6);
  check_bool "unrelated" true (Refine.similarity "Author" "Price" < 0.3);
  Alcotest.(check (float 0.001)) "empty" 0.0 (Refine.similarity "" "Author")

let test_best_match () =
  let k = Refine.learn [ [ cond "Publisher"; cond "Author name" ] ] in
  Alcotest.(check (option string)) "suffix variation" (Some "publisher")
    (Refine.best_match k "Publishers");
  Alcotest.(check (option string)) "below threshold" None
    (Refine.best_match k "Zip code")

let test_recover_missing () =
  (* The attribute label sits to the RIGHT of the box (out of grammar);
     the parser misses it, the refiner recovers it from domain
     knowledge. *)
  let html = {|<form><input type="text" name="q"> Publisher</form>|} in
  let e = Wqi_core.Extractor.(run Config.default (Html html)) in
  check_int "parser misses it" 0 (List.length (Wqi_core.Extractor.conditions e));
  let k = Refine.learn [ [ cond "Publisher"; cond "Author" ] ] in
  let refined = Refine.refine k e in
  (match refined.conditions with
   | [ c ] ->
     Alcotest.(check string) "attribute recovered" "publisher"
       (Condition.normalize_label c.attribute);
     check_bool "text domain" true (c.domain = Condition.Text)
   | cs -> Alcotest.failf "expected one recovered condition, got %d" (List.length cs));
  check_int "missing errors consumed" 0 (Semantic_model.missing_count refined)

let test_recover_requires_similarity () =
  (* An unclaimed label the domain has never seen stays missing. *)
  let html = {|<form><input type="text" name="q"> Flurbleworth</form>|} in
  let e = Wqi_core.Extractor.(run Config.default (Html html)) in
  let k = Refine.learn [ [ cond "Author" ] ] in
  let refined = Refine.refine k e in
  check_int "nothing invented" 0 (List.length refined.conditions);
  check_bool "still missing" true (Semantic_model.missing_count refined > 0)

let test_recover_select_domain () =
  let html =
    {|<form><select name="f"><option>CD</option><option>Vinyl</option></select> Format</form>|}
  in
  let e = Wqi_core.Extractor.(run Config.default (Html html)) in
  let k = Refine.learn [ [ cond "Format" ] ] in
  let refined = Refine.refine k e in
  match refined.conditions with
  | [ c ] ->
    (match c.domain with
     | Condition.Enumeration [ "CD"; "Vinyl" ] -> ()
     | d -> Alcotest.failf "wrong domain %a" Condition.pp_domain d)
  | cs -> Alcotest.failf "expected one condition, got %d" (List.length cs)

let test_conflict_resolution () =
  (* Craft a model with a conflict between a known and an unknown
     attribute; the unknown one is dropped. *)
  let known_c = cond "Adults" in
  let unknown_c = cond "Zorgle" in
  let model =
    { Semantic_model.conditions = [ known_c; unknown_c ];
      errors =
        [ Semantic_model.Conflict
            (3, Condition.to_string known_c, Condition.to_string unknown_c) ] }
  in
  let extraction =
    let e = Wqi_core.Extractor.(run Config.default (Html "")) in
    { e with model }
  in
  let k = Refine.learn [ [ cond "Adults"; cond "Children" ] ] in
  let refined = Refine.refine k extraction in
  check_int "one condition left" 1 (List.length refined.conditions);
  Alcotest.(check string) "known one kept" "adults"
    (Condition.normalize_label (List.hd refined.conditions).attribute);
  check_int "conflict consumed" 0 (Semantic_model.conflict_count refined)

let test_conflict_both_known_kept () =
  let a = cond "Adults" and b = cond "Children" in
  let model =
    { Semantic_model.conditions = [ a; b ];
      errors =
        [ Semantic_model.Conflict
            (1, Condition.to_string a, Condition.to_string b) ] }
  in
  let extraction =
    let e = Wqi_core.Extractor.(run Config.default (Html "")) in
    { e with model }
  in
  let k = Refine.learn [ [ cond "Adults"; cond "Children" ] ] in
  let refined = Refine.refine k extraction in
  check_int "both kept" 2 (List.length refined.conditions);
  check_int "conflict remains" 1 (Semantic_model.conflict_count refined)

let suite =
  [ ("learn support", `Quick, test_learn_support);
    ("learn dedups within source", `Quick, test_learn_duplicates_within_source);
    ("similarity", `Quick, test_similarity);
    ("best match", `Quick, test_best_match);
    ("recover missing", `Quick, test_recover_missing);
    ("recovery requires similarity", `Quick, test_recover_requires_similarity);
    ("recovered select domain", `Quick, test_recover_select_domain);
    ("conflict resolution", `Quick, test_conflict_resolution);
    ("conflict both known kept", `Quick, test_conflict_both_known_kept) ]
