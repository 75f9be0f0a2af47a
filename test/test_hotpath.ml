(* The per-document extraction path (html → layout → classify → parse →
   merge → export) compares, hashes and prints through typed code only.
   Each helper that replaced a polymorphic or Format-based one is checked
   here against the definition it replaced, kept verbatim as the
   reference; the extraction's allocation is held under a ceiling. *)

module Q = QCheck
module Gen = QCheck.Gen
module Dom = Wqi_html.Dom
module Html_parser = Wqi_html.Parser
module Geometry = Wqi_layout.Geometry
module Layout = Wqi_layout.Engine
module Lexicon = Wqi_stdgrammar.Lexicon
module Condition = Wqi_model.Condition
module Merger = Wqi_model.Merger
module Semantic_model = Wqi_model.Semantic_model
module Export = Wqi_model.Export
module Extractor = Wqi_core.Extractor
module Token = Wqi_token.Token

let to_alcotest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

(* Mostly words from [pool] (with case and punctuation variants, so
   near-misses are exercised), sometimes arbitrary text. *)
let word_gen pool =
  Gen.(
    frequency
      [ (4, oneofl pool);
        (1, map String.uppercase_ascii (oneofl pool));
        (1, map (fun w -> w ^ ":") (oneofl pool));
        (1, map (fun w -> " $" ^ w ^ ". ") (oneofl pool));
        (2, string_size ~gen:printable (int_range 0 12)) ])

(* ------------------------------------------------------------------ *)
(* Geometry.compare_reading_order                                     *)
(* ------------------------------------------------------------------ *)

let old_compare_reading_order (a : Geometry.box) (b : Geometry.box) =
  if Geometry.same_row a b then compare (a.x1, a.y1) (b.x1, b.y1)
  else compare (a.y1, a.x1) (b.y1, b.x1)

let box_gen =
  Gen.(
    map
      (fun (x1, y1, w, h) -> Geometry.make ~x1 ~y1 ~x2:(x1 + w) ~y2:(y1 + h))
      (quad (int_range (-5) 60) (int_range (-5) 60) (int_range 0 30)
         (int_range 0 30)))

let prop_reading_order =
  Q.Test.make ~name:"compare_reading_order sign = old tuple compare"
    ~count:2000
    (Q.make
       ~print:(fun (a, b) -> Fmt.str "%a %a" Geometry.pp a Geometry.pp b)
       (Gen.pair box_gen box_gen))
    (fun (a, b) ->
       Int.compare (Geometry.compare_reading_order a b) 0
       = Int.compare (old_compare_reading_order a b) 0)

(* ------------------------------------------------------------------ *)
(* Dom attribute lookup                                               *)
(* ------------------------------------------------------------------ *)

let attr_keys = [ "name"; "type"; "value"; "size"; "checked"; "" ]

let attrs_gen =
  Gen.(
    list_size (int_range 0 6)
      (pair (oneofl attr_keys) (string_size ~gen:printable (int_range 0 5))))

let prop_dom_attr =
  Q.Test.make ~name:"Dom.attr = List.assoc_opt (and its derivatives)"
    ~count:1000
    (Q.make
       ~print:Q.Print.(pair (list (pair string string)) string)
       Gen.(pair attrs_gen (oneofl attr_keys)))
    (fun (attrs, key) ->
       let node = Dom.element ~attrs "input" [] in
       let old = List.assoc_opt key attrs in
       Option.equal String.equal (Dom.attr key node) old
       && String.equal
            (Dom.attr_default key ~default:"?" node)
            (Option.value ~default:"?" old)
       && Bool.equal (Dom.has_attr key node) (old <> None)
       && Option.is_none (Dom.attr key (Dom.text "x")))

(* ------------------------------------------------------------------ *)
(* Lexicon                                                            *)
(* ------------------------------------------------------------------ *)

let old_contains_substring ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else at (i + 1)
  in
  n > 0 && at 0

let small_string =
  Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; ' ' ]) (int_range 0 8))

let prop_contains_substring =
  Q.Test.make ~name:"contains_substring = String.sub scan" ~count:2000
    (Q.make
       ~print:Q.Print.(pair string string)
       (Gen.pair small_string small_string))
    (fun (needle, haystack) ->
       Bool.equal
         (Lexicon.contains_substring ~needle haystack)
         (old_contains_substring ~needle haystack))

let old_strip_label_punctuation s =
  let s = String.trim (String.lowercase_ascii s) in
  let n = String.length s in
  let rec last i =
    if i > 0 && (s.[i - 1] = ':' || s.[i - 1] = '$' || s.[i - 1] = '.')
    then last (i - 1)
    else i
  in
  let rec first i =
    if i < n && (s.[i] = '$' || s.[i] = '(') then first (i + 1) else i
  in
  let f = first 0 and l = last n in
  if l > f then String.sub s f (l - f) else ""

let bound_markers =
  [ "from"; "to"; "min"; "max"; "minimum"; "maximum"; "under"; "over";
    "between"; "and"; "at least"; "at most"; "low"; "high"; "lowest";
    "highest"; "up to" ]

let unit_words =
  [ "miles"; "mile"; "mi"; "km"; "kilometers"; "nights"; "night"; "days";
    "day"; "years"; "yrs"; "dollars"; "usd"; "%"; "percent"; "sq ft";
    "sqft"; "lbs"; "kg"; "people"; "guests"; "rooms"; "passengers" ]

let month_names =
  [ "january"; "february"; "march"; "april"; "may"; "june"; "july";
    "august"; "september"; "october"; "november"; "december";
    "jan"; "feb"; "mar"; "apr"; "jun"; "jul"; "aug"; "sep"; "sept";
    "oct"; "nov"; "dec" ]

let header_placeholders =
  [ "mm"; "dd"; "yy"; "yyyy"; "month"; "day"; "year"; "hour"; "minute";
    "time"; "hh"; "mi"; "--" ]

let void_elements =
  [ "area"; "base"; "br"; "col"; "embed"; "hr"; "img"; "input"; "link";
    "meta"; "param"; "source"; "track"; "wbr" ]

let block_elements =
  [ "address"; "article"; "aside"; "blockquote"; "center"; "dd"; "dir";
    "div"; "dl"; "dt"; "fieldset"; "figure"; "footer"; "form"; "h1"; "h2";
    "h3"; "h4"; "h5"; "h6"; "header"; "hr"; "li"; "main"; "menu"; "nav";
    "ol"; "p"; "pre"; "section"; "table"; "ul"; "caption"; "legend";
    "html"; "body" ]

let skipped_elements = [ "head"; "script"; "style"; "title"; "#root" ]

let set_prop name pool ~is ~old =
  Q.Test.make ~name ~count:1000
    (Q.make ~print:Q.Print.string (word_gen pool))
    (fun w -> Bool.equal (is w) (old w))

let prop_sets =
  [ set_prop "is_void = List.mem void_elements" void_elements
      ~is:Html_parser.is_void ~old:(fun w -> List.mem w void_elements);
    set_prop "is_block = List.mem block_elements" block_elements
      ~is:Layout.is_block ~old:(fun w -> List.mem w block_elements);
    set_prop "is_skipped = List.mem skipped_elements" skipped_elements
      ~is:Layout.is_skipped ~old:(fun w -> List.mem w skipped_elements);
    set_prop "is_bound_marker = List.mem bound_markers" bound_markers
      ~is:Lexicon.is_bound_marker
      ~old:(fun w -> List.mem (old_strip_label_punctuation w) bound_markers);
    set_prop "is_unit_word = List.mem unit_words" unit_words
      ~is:Lexicon.is_unit_word
      ~old:(fun w -> List.mem (old_strip_label_punctuation w) unit_words) ]

(* Month names and header placeholders are only observable through the
   date classification, which is replayed here in full. *)
let old_as_int s = int_of_string_opt (String.trim s)

let old_is_month s =
  let s = String.lowercase_ascii (String.trim s) in
  List.mem s month_names
  || (match old_as_int s with Some m -> m >= 1 && m <= 12 | None -> false)

let old_is_day s =
  match old_as_int s with Some d -> d >= 1 && d <= 31 | None -> false

let old_is_year s =
  match old_as_int s with Some y -> y >= 1900 && y <= 2100 | None -> false

let old_is_hour_or_minute s =
  let s = String.lowercase_ascii (String.trim s) in
  match old_as_int s with
  | Some v -> v >= 0 && v <= 59
  | None ->
    old_contains_substring ~needle:"am" s
    || old_contains_substring ~needle:"pm" s
    || old_contains_substring ~needle:":" s

let old_date_component options =
  let significant =
    List.filter
      (fun o ->
         not
           (List.mem
              (String.lowercase_ascii (String.trim o))
              header_placeholders))
      options
  in
  match significant with
  | [] -> if options = [] then `None else `Day
  | _ ->
    let all pred = List.for_all pred significant in
    if List.length significant < 2 then `None
    else if all (fun s -> old_is_month s && not (old_is_day s)) then `Month
    else if all old_is_year then `Year
    else if all old_is_day then `Day
    else if all old_is_hour_or_minute then `Time
    else `None

let old_plausible_date_combo option_lists =
  let components = List.map old_date_component option_lists in
  match components with
  | [ a; b; c ] ->
    let sorted = List.sort compare [ a; b; c ] in
    sorted = List.sort compare [ `Month; `Day; `Year ]
    || sorted = List.sort compare [ `Day; `Day; `Year ]
  | [ a; b ] ->
    (match List.sort compare [ a; b ] with
     | [ `Day; `Month ] | [ `Month; `Year ] | [ `Day; `Year ]
     | [ `Time; `Time ] ->
       true
     | _ -> false)
  | _ -> false

(* Option lists drawn so that every component class comes up: all
   months, all days, all years, all times, headers mixed in. *)
let option_list_gen =
  let ints lo hi = Gen.map string_of_int (Gen.int_range lo hi) in
  let item =
    Gen.(
      frequency
        [ (3, oneofl month_names);
          (1, map String.capitalize_ascii (oneofl month_names));
          (3, oneofl header_placeholders);
          (2, ints 1 12);
          (2, ints 1 31);
          (2, ints 1995 2010);
          (1, oneofl [ "10am"; "2 pm"; "12:30"; "0x1F"; "+7"; "-3"; " 05 " ]);
          (1, string_size ~gen:printable (int_range 0 6)) ])
  in
  Gen.(
    frequency
      [ (1, list_size (int_range 0 4) item);
        ( 2,
          map
            (fun (x, n) -> List.init n (fun _ -> x))
            (pair item (int_range 2 5)) );
        (2, list_size (int_range 2 6) item) ])

let show_component = function
  | `Month -> "month"
  | `Day -> "day"
  | `Year -> "year"
  | `Time -> "time"
  | `None -> "none"

let prop_date_component =
  Q.Test.make ~name:"date_component = old word lists and compare" ~count:2000
    (Q.make ~print:Q.Print.(list string) option_list_gen)
    (fun options ->
       String.equal
         (show_component (Lexicon.date_component options))
         (show_component (old_date_component options)))

(* Integer-literal edges on both sides of the scan: signs, 18 and 19
   digits around [max_int] and [min_int], underscores, base prefixes,
   the placeholders, and bytes after the digits; then printable soup
   and digit-heavy text. *)
let as_int_gen =
  let edges =
    [ ""; " "; "-"; "+"; "--"; "-- Any --"; "+-1"; "-+1"; "0"; "-0"; "+0";
      "007"; " 42 "; "\t12\n"; "1_000"; "_1"; "1_"; "0x1f"; "0X1F"; "-0x1f";
      "0o17"; "0b101"; "0u42"; "0xg"; "12:30"; "10am"; "2 pm"; "1.5"; "1e3";
      "999999999999999999"; "-999999999999999999"; "1000000000000000000";
      "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
      "-4611686018427387905"; "99999999999999999999999"; "0x7fffffffffffffff";
      "1\x00"; "\xff1"; "1\xff" ]
  in
  let digits =
    Gen.(map (String.concat "")
           (list_size (int_range 1 22) (map string_of_int (int_bound 9))))
  in
  Gen.(
    frequency
      [ (2, oneofl edges);
        (3, digits);
        (2, map2 (fun sign d -> sign ^ d) (oneofl [ "-"; "+"; " "; "- " ]) digits);
        (2, map2 ( ^ ) digits (string_size ~gen:printable (int_range 0 3)));
        (2, string_size ~gen:printable (int_range 0 8));
        (1, string_size ~gen:char (int_range 0 6)) ])

let prop_as_int =
  Q.Test.make ~name:"as_int = int_of_string_opt (String.trim s)" ~count:3000
    (Q.make ~print:String.escaped as_int_gen)
    (fun s -> Lexicon.as_int s = old_as_int s)

let prop_date_combo =
  Q.Test.make ~name:"plausible_date_combo = old polymorphic sort" ~count:2000
    (Q.make
       ~print:Q.Print.(list (list string))
       Gen.(list_size (int_range 0 4) option_list_gen))
    (fun lists ->
       Bool.equal
         (Lexicon.plausible_date_combo lists)
         (old_plausible_date_combo lists))

(* ------------------------------------------------------------------ *)
(* Merger                                                             *)
(* ------------------------------------------------------------------ *)

(* The merger as it was: polymorphic tuple keys and hash tables, every
   label and every description rendered up front. *)
let old_merge ~all_tokens ?(ignorable = fun _ -> false) parses =
  let condition_key (c : Condition.t) =
    let rec domain_key = function
      | Condition.Text -> "t"
      | Condition.Datetime -> "d"
      | Condition.Range d -> "r(" ^ domain_key d ^ ")"
      | Condition.Enumeration vs -> Fmt.str "e%d" (List.length vs)
    in
    ( Condition.normalize_label c.attribute,
      List.sort_uniq compare (List.map Condition.normalize_label c.operators),
      domain_key c.domain )
  in
  let seen = Hashtbl.create 16 in
  let conditions = ref [] in
  let claims : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let errors = ref [] in
  List.iter
    (fun (parse : Merger.parse) ->
       List.iter
         (fun (cond, tokens) ->
            let key = condition_key cond in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              conditions := cond :: !conditions;
              let label = Fmt.str "%a" Condition.pp cond in
              List.iter
                (fun tok ->
                   match Hashtbl.find_opt claims tok with
                   | Some other when other <> label ->
                     errors :=
                       Semantic_model.Conflict (tok, other, label) :: !errors
                   | Some _ -> ()
                   | None -> Hashtbl.replace claims tok label)
                tokens
            end)
         parse.conditions)
    parses;
  let covered = List.concat_map (fun (p : Merger.parse) -> p.cover) parses in
  List.iter
    (fun (tok, descr) ->
       if (not (List.mem tok covered)) && not (ignorable tok) then
         errors := Semantic_model.Missing (tok, descr) :: !errors)
    all_tokens;
  { Semantic_model.conditions = List.rev !conditions;
    errors = List.rev !errors }

(* Few distinct attributes and operators, so equivalent conditions
   (same normalized text, same domain shape) meet often. *)
let merge_condition_gen =
  Gen.(
    map3
      (fun attribute operators domain ->
         Condition.make ~operators ~attribute domain)
      (oneofl [ "Author"; "author:"; "Title"; "title "; "Price" ])
      (list_size (int_range 0 2) (oneofl [ "contains"; "Contains"; "exact" ]))
      (oneof
         [ return Condition.Text;
           return (Condition.Enumeration [ "a"; "b" ]);
           return (Condition.Enumeration [ "c"; "d" ]);
           return (Condition.Range Condition.Text) ]))

let tokens = 8

let parse_gen =
  let toks =
    Gen.(
      map
        (List.sort_uniq Int.compare)
        (list_size (int_range 0 3) (int_bound (tokens - 1))))
  in
  Gen.(
    map2
      (fun conditions cover -> { Merger.conditions; cover })
      (list_size (int_range 0 3) (pair merge_condition_gen toks))
      toks)

let describe_token i = Printf.sprintf "token %d" i

let prop_merge =
  Q.Test.make ~name:"Merger.merge = old merger" ~count:1000
    (Q.make
       ~print:(fun parses ->
           Fmt.str "%a"
             Fmt.(
               list
                 (fun ppf (p : Merger.parse) ->
                    pf ppf "{%a | %a}"
                      (list (pair ~sep:(any "@") Condition.pp (list int)))
                      p.conditions (list int) p.cover))
             parses)
       Gen.(list_size (int_range 0 4) parse_gen))
    (fun parses ->
       let ignorable t = t mod 5 = 4 in
       let ids = List.init tokens Fun.id in
       let described = ref [] in
       let describe t =
         described := t :: !described;
         describe_token t
       in
       let m =
         Merger.merge ~tokens:ids ~id:Fun.id ~describe ~ignorable parses
       in
       let old =
         old_merge
           ~all_tokens:(List.map (fun t -> (t, describe_token t)) ids)
           ~ignorable parses
       in
       m = old
       (* described on demand: exactly the tokens reported missing *)
       && List.rev !described = Semantic_model.missing_token_ids m)

(* ------------------------------------------------------------------ *)
(* Export                                                             *)
(* ------------------------------------------------------------------ *)

let old_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prop_export_string =
  Q.Test.make ~name:"Export.string = old escape" ~count:2000
    (Q.make ~print:Q.Print.string
       Gen.(
         string_size
           ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; 'a' ] ])
           (int_range 0 20)))
    (fun s -> String.equal (Export.string s) ("\"" ^ old_escape s ^ "\""))

(* ------------------------------------------------------------------ *)
(* Token.describe                                                     *)
(* ------------------------------------------------------------------ *)

let old_describe (t : Token.t) =
  match t.kind with
  | Token.Text -> Fmt.str "text %S" t.sval
  | Token.Selection -> Fmt.str "selection list %S" t.name
  | kind ->
    if t.sval <> "" then Fmt.str "%s %S" (Token.kind_name kind) t.sval
    else if t.name <> "" then Fmt.str "%s %S" (Token.kind_name kind) t.name
    else Token.kind_name kind

let token_gen =
  let str = Gen.(oneof [ return ""; string_size ~gen:char (int_range 0 90) ]) in
  Gen.(
    map3
      (fun kind sval name ->
         { Token.id = 0; kind; box = Geometry.origin; sval; name; options = [];
           value = ""; checked = false; multiple = false })
      (oneofl
         Token.[ Text; Textbox; Selection; Radio; Checkbox; Button; Image ])
      str str)

let prop_describe =
  Q.Test.make ~name:"Token.describe = Fmt %S rendering" ~count:2000
    (Q.make ~print:old_describe token_gen)
    (fun t -> String.equal (Token.describe t) (old_describe t))

(* ------------------------------------------------------------------ *)
(* Spatial index probes                                               *)
(* ------------------------------------------------------------------ *)

(* Probes gather ascending runs from several bands and the overflow list
   and sort them in place; the result must be the linear scan's
   ascending, duplicate-free selection.  Tall boxes and wide windows
   exercise long, interleaved candidate lists. *)
let box_gen =
  Gen.(
    map4
      (fun x y w h -> Geometry.make ~x1:x ~y1:y ~x2:(x + w) ~y2:(y + h))
      (int_range 0 400) (int_range 0 600) (int_range 0 200)
      (frequency [ (6, int_range 0 60); (1, int_range 0 600) ]))

let probe_gen =
  Gen.(
    pair
      (list_size (int_range 0 200) box_gen)
      (pair
         (pair (int_range (-50) 700) (int_range 0 700))
         (pair (opt (pair (int_range 0 400) (int_range 0 400)))
            (pair (int_range 0 50) (int_range 0 250)))))

let prop_spatial_query =
  Q.Test.make ~name:"Spatial_index.query = ascending linear scan" ~count:500
    (Q.make probe_gen)
    (fun (boxes, ((y_lo, dy), (x, (start, len)))) ->
       let module S = Wqi_grammar.Spatial_index in
       let y_hi = y_lo + dy in
       let t = S.create ~alive:(fun _ -> true) in
       List.iteri (fun idx b -> S.add t ~idx b) boxes;
       let stop = start + len in
       let x_lo, x_hi = Option.value x ~default:(min_int, max_int) in
       let got = S.query t ~y_lo ~y_hi ~x ~start ~stop in
       let reference =
         List.concat
           (List.mapi
              (fun idx (b : Geometry.box) ->
                 if idx >= start && idx < stop && b.y2 >= y_lo && b.y1 <= y_hi
                    && b.x2 >= x_lo && b.x1 <= x_hi
                 then [ idx ]
                 else [])
              boxes)
       in
       List.equal Int.equal (Array.to_list got) reference)

(* ------------------------------------------------------------------ *)
(* Allocation ceiling                                                 *)
(* ------------------------------------------------------------------ *)

(* Minor words of [Extractor.run] + [export ~timings:false] over the
   hand-written fixtures (13 documents), after one warm-up pass.  The
   extraction code before this path was made monomorphic allocated
   38 077 words per fixture here (and about 44.8k words per document on
   the benchmark's generated ingest mix); the typed path allocated
   21 505, the parser's copy-free instance assembly and column
   enforcement scan brought it to 18 078, and the one-pass front end
   (HTML scanned straight into the tree, widgets classified once at
   layout) to 15 018.  The ceiling is that figure plus 3%, so a
   polymorphic or Format detour put back on the path shows up here. *)
let words_per_fixture_ceiling = 15_018. *. 1.03

let test_alloc_ceiling () =
  let run_all () =
    List.iter
      (fun (f : Fixtures.fixture) ->
         let e =
           Extractor.run Extractor.Config.default
             (Extractor.Html f.Fixtures.html)
         in
         ignore
           (Sys.opaque_identity
              (Extractor.export ~timings:false ~name:f.Fixtures.name e)))
      Fixtures.all
  in
  run_all ();
  let w0 = Gc.minor_words () in
  run_all ();
  let per_doc =
    (Gc.minor_words () -. w0) /. float_of_int (List.length Fixtures.all)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per fixture <= %.0f" per_doc
       words_per_fixture_ceiling)
    true
    (per_doc <= words_per_fixture_ceiling)

let suite =
  [ to_alcotest prop_reading_order;
    to_alcotest prop_dom_attr;
    to_alcotest prop_contains_substring ]
  @ List.map to_alcotest prop_sets
  @ [ to_alcotest prop_as_int;
      to_alcotest prop_date_component;
      to_alcotest prop_date_combo;
      to_alcotest prop_merge;
      to_alcotest prop_export_string;
      to_alcotest prop_describe;
      to_alcotest prop_spatial_query;
      ("allocation ceiling: run + export", `Quick, test_alloc_ceiling) ]
