(* Tests for conditions, semantic models, and the merger. *)

module Condition = Wqi_model.Condition
module Semantic_model = Wqi_model.Semantic_model
module Merger = Wqi_model.Merger

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_normalize_label () =
  check_str "lowercases" "author" (Condition.normalize_label "Author");
  check_str "strips colon" "author" (Condition.normalize_label "Author:");
  check_str "strips several" "title" (Condition.normalize_label "Title:*");
  check_str "collapses spaces" "book title"
    (Condition.normalize_label "  Book   Title ");
  check_str "keeps inner punctuation" "keyword(s)"
    (Condition.normalize_label "Keyword(s):")

let test_equal_attribute () =
  let a = Condition.make ~attribute:"Author:" Condition.Text in
  let b = Condition.make ~attribute:"author" Condition.Text in
  check_bool "modulo normalization" true (Condition.equal_attribute a b)

let test_domain_shape () =
  check_bool "text" true (Condition.same_domain_shape Condition.Text Condition.Text);
  check_bool "text vs datetime" false
    (Condition.same_domain_shape Condition.Text Condition.Datetime);
  check_bool "enum same length" true
    (Condition.same_domain_shape
       (Condition.Enumeration [ "a"; "b" ])
       (Condition.Enumeration [ "x"; "y" ]));
  check_bool "enum different length" false
    (Condition.same_domain_shape
       (Condition.Enumeration [ "a" ])
       (Condition.Enumeration [ "x"; "y" ]));
  check_bool "range recurses" true
    (Condition.same_domain_shape
       (Condition.Range Condition.Text)
       (Condition.Range Condition.Text));
  check_bool "range vs plain" false
    (Condition.same_domain_shape (Condition.Range Condition.Text) Condition.Text)

let test_matches () =
  let truth =
    Condition.make ~operators:[ "contains"; "starts with" ] ~attribute:"Title"
      Condition.Text
  in
  let hit =
    Condition.make
      ~operators:[ "Starts With"; "contains" ]
      ~attribute:"title:" Condition.Text
  in
  check_bool "operators order-insensitive" true (Condition.matches ~truth hit);
  let wrong_ops = Condition.make ~operators:[ "contains" ] ~attribute:"Title" Condition.Text in
  check_bool "missing operator fails" false (Condition.matches ~truth wrong_ops);
  let wrong_attr = Condition.make ~operators:truth.operators ~attribute:"Author" Condition.Text in
  check_bool "attribute mismatch fails" false (Condition.matches ~truth wrong_attr)

let test_pp () =
  let c =
    Condition.make ~operators:[ "between" ] ~attribute:"Price"
      (Condition.Range (Condition.Enumeration [ "$0"; "$10" ]))
  in
  check_str "printed" "[Price; {between}; range({\"$0\", \"$10\"})]"
    (Condition.to_string c)

(* --- merger --- *)

let cond name = Condition.make ~attribute:name Condition.Text

let merge ?ignorable parses =
  Merger.merge ~tokens:(List.init 6 Fun.id) ~id:Fun.id
    ~describe:(Printf.sprintf "token %d") ?ignorable parses

let test_merge_union () =
  let p1 =
    { Merger.conditions = [ (cond "a", [ 0; 1 ]) ]; cover = [ 0; 1 ] }
  in
  let p2 =
    { Merger.conditions = [ (cond "b", [ 2; 3 ]) ]; cover = [ 2; 3 ] }
  in
  let m = merge [ p1; p2 ] in
  check_int "union of conditions" 2 (Semantic_model.condition_count m);
  check_int "missing tokens reported" 2 (Semantic_model.missing_count m);
  check_int "no conflicts" 0 (Semantic_model.conflict_count m)

let test_merge_dedup () =
  let p1 = { Merger.conditions = [ (cond "a", [ 0 ]) ]; cover = [ 0 ] } in
  let p2 =
    { Merger.conditions = [ (Condition.make ~attribute:"A:" Condition.Text, [ 0 ]) ];
      cover = [ 0 ] }
  in
  let m = merge [ p1; p2 ] in
  check_int "equivalent conditions merged" 1 (Semantic_model.condition_count m)

let test_merge_conflict () =
  (* Two distinct conditions claiming token 2: the paper's Qaa example
     (passengers vs adults competing for the number selection). *)
  let p1 = { Merger.conditions = [ (cond "passengers", [ 1; 2 ]) ]; cover = [ 1; 2 ] } in
  let p2 = { Merger.conditions = [ (cond "adults", [ 2; 3 ]) ]; cover = [ 2; 3 ] } in
  let m = merge [ p1; p2 ] in
  check_int "conflict reported" 1 (Semantic_model.conflict_count m);
  check_int "both conditions kept" 2 (Semantic_model.condition_count m)

let test_merge_ignorable () =
  let p = { Merger.conditions = [ (cond "a", [ 0 ]) ]; cover = [ 0 ] } in
  let m = merge ~ignorable:(fun t -> t >= 1) [ p ] in
  check_int "ignorable suppressed" 0 (Semantic_model.missing_count m)

let test_merge_empty () =
  let m = Merger.merge ~tokens:[] ~id:Fun.id ~describe:string_of_int [] in
  check_int "empty" 0 (Semantic_model.condition_count m);
  Alcotest.(check bool) "equals empty" true (m = Semantic_model.empty)

let test_error_pp () =
  check_str "conflict"
    "conflict on token 2: a vs b"
    (Fmt.str "%a" Semantic_model.pp_error (Semantic_model.Conflict (2, "a", "b")));
  check_str "missing" "missing token 1: x"
    (Fmt.str "%a" Semantic_model.pp_error (Semantic_model.Missing (1, "x")))

let suite =
  [ ("normalize label", `Quick, test_normalize_label);
    ("equal attribute", `Quick, test_equal_attribute);
    ("domain shape", `Quick, test_domain_shape);
    ("matches", `Quick, test_matches);
    ("condition printing", `Quick, test_pp);
    ("merger: union", `Quick, test_merge_union);
    ("merger: dedup", `Quick, test_merge_dedup);
    ("merger: conflict", `Quick, test_merge_conflict);
    ("merger: ignorable", `Quick, test_merge_ignorable);
    ("merger: empty", `Quick, test_merge_empty);
    ("error printing", `Quick, test_error_pp) ]
