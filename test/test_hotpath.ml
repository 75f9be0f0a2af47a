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

let date_combo lists =
  Lexicon.plausible_date_combo (List.length lists) (List.nth lists)

let prop_date_combo =
  Q.Test.make ~name:"plausible_date_combo = old polymorphic sort" ~count:2000
    (Q.make
       ~print:Q.Print.(list (list string))
       Gen.(list_size (int_range 0 4) option_list_gen))
    (fun lists ->
       Bool.equal (date_combo lists) (old_plausible_date_combo lists))

(* The date classification as it was before it took one pass: a count
   of the options that are not header placeholders, then up to four
   passes (month, year, day, time), each re-testing every option for a
   placeholder and re-reading it as an integer; and the combo over a
   list of option lists.  Its index-bound helpers are copied with it. *)
module Prev_date = struct
  let is_space = function
    | ' ' | '\012' | '\n' | '\r' | '\t' -> true
    | _ -> false

  let rec skip_space s lo hi =
    if lo < hi && is_space (String.unsafe_get s lo) then skip_space s (lo + 1) hi
    else lo

  let rec drop_space s lo hi =
    if hi > lo && is_space (String.unsafe_get s (hi - 1)) then
      drop_space s lo (hi - 1)
    else hi

  let trim_lo s = skip_space s 0 (String.length s)
  let trim_hi s lo = drop_space s lo (String.length s)

  let rec agree_ci s i w j =
    j >= String.length w
    || Char.lowercase_ascii (String.unsafe_get s (i + j)) = String.unsafe_get w j
       && agree_ci s i w (j + 1)

  let prefix_ci s i hi w = i + String.length w <= hi && agree_ci s i w 0

  let rec mem_ci s lo hi = function
    | [] -> false
    | w :: ws -> prefix_ci s lo hi w || mem_ci s lo hi ws

  let by_length words =
    let longest = List.fold_left (fun m w -> Int.max m (String.length w)) 0 words in
    let table = Array.make (longest + 1) [] in
    List.iter (fun w -> table.(String.length w) <- w :: table.(String.length w)) words;
    table

  let in_set table s lo hi =
    let n = hi - lo in
    n > 0 && n < Array.length table && mem_ci s lo hi (Array.unsafe_get table n)

  let month_names = by_length month_names
  let is_digit c = c >= '0' && c <= '9'
  let not_int = min_int
  let ask = max_int

  let scan_int s lo hi =
    let start =
      if lo < hi && (s.[lo] = '-' || s.[lo] = '+') then lo + 1 else lo
    in
    if start >= hi || not (is_digit s.[start]) then not_int
    else begin
      let i = ref start and v = ref 0 in
      while !i < hi && is_digit (String.unsafe_get s !i) do
        v := (10 * !v) + Char.code (String.unsafe_get s !i) - 48;
        incr i
      done;
      if !i = hi && hi - start <= 18 then (if s.[lo] = '-' then - !v else !v)
      else begin
        while
          !i < hi
          && (match String.unsafe_get s !i with
              | '0' .. '9' | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
              | _ -> false)
        do incr i done;
        if !i < hi then not_int else ask
      end
    end

  let int_within s lo hi a b =
    let v = scan_int s lo hi in
    if v = not_int then false
    else if v = ask then
      match int_of_string_opt (String.sub s lo (hi - lo)) with
      | Some v -> a <= v && v <= b
      | None -> false
    else a <= v && v <= b

  let is_month s =
    let lo = trim_lo s in
    let hi = trim_hi s lo in
    in_set month_names s lo hi || int_within s lo hi 1 12

  let is_day s =
    let lo = trim_lo s in
    int_within s lo (trim_hi s lo) 1 31

  let is_year s =
    let lo = trim_lo s in
    int_within s lo (trim_hi s lo) 1900 2100

  let rec occurs_ci s i hi w = i < hi && (prefix_ci s i hi w || occurs_ci s (i + 1) hi w)

  let is_hour_or_minute s =
    let lo = trim_lo s in
    let hi = trim_hi s lo in
    int_within s lo hi 0 59
    || occurs_ci s lo hi "am" || occurs_ci s lo hi "pm" || occurs_ci s lo hi ":"

  let header_placeholders = by_length header_placeholders

  let is_header_placeholder o =
    let lo = trim_lo o in
    in_set header_placeholders o lo (trim_hi o lo)

  let rec significant_count n = function
    | [] -> n
    | o :: rest ->
      significant_count (if is_header_placeholder o then n else n + 1) rest

  let rec all_significant pred = function
    | [] -> true
    | o :: rest ->
      (is_header_placeholder o || pred o) && all_significant pred rest

  let month_not_day s = is_month s && not (is_day s)

  let date_component options =
    match significant_count 0 options with
    | 0 -> (match options with [] -> `None | _ :: _ -> `Day)
    | 1 -> `None
    | _ ->
      if all_significant month_not_day options then `Month
      else if all_significant is_year options then `Year
      else if all_significant is_day options then `Day
      else if all_significant is_hour_or_minute options then `Time
      else `None

  let plausible_date_combo option_lists =
    match option_lists with
    | [ a; b; c ] ->
      let a = date_component a and b = date_component b
      and c = date_component c in
      let count is = Bool.to_int (is a) + Bool.to_int (is b) + Bool.to_int (is c) in
      let months = count (function `Month -> true | _ -> false)
      and days = count (function `Day -> true | _ -> false)
      and years = count (function `Year -> true | _ -> false) in
      years = 1 && ((months = 1 && days = 1) || days = 2)
    | [ a; b ] ->
      (match date_component a, date_component b with
       | (`Day, `Month | `Month, `Day) | (`Month, `Year | `Year, `Month)
       | (`Day, `Year | `Year, `Day) | `Time, `Time ->
         true
       | _ -> false)
    | _ -> false
end

let prop_date_one_pass =
  Q.Test.make ~name:"one-pass date_component = multi-pass" ~count:3000
    (Q.make ~print:Q.Print.(list string) option_list_gen)
    (fun options ->
       String.equal
         (show_component (Lexicon.date_component options))
         (show_component (Prev_date.date_component options)))

let prop_date_combo_one_pass =
  Q.Test.make ~name:"plausible_date_combo = multi-pass over a list of lists"
    ~count:2000
    (Q.make
       ~print:Q.Print.(list (list string))
       Gen.(list_size (int_range 0 4) option_list_gen))
    (fun lists ->
       Bool.equal (date_combo lists) (Prev_date.plausible_date_combo lists))

(* The text classifiers and splitters as they were before they worked
   on index bounds: trim, lowercase and [String.sub] copies, naive
   substring scans over the keyword list. *)
let old_operator_keywords =
  [ "contain"; "start"; "begin"; "end with"; "ends with"; "exact";
    "equal"; "match"; "is exactly"; "keyword"; "phrase"; "all of";
    "any of"; "at least"; "at most"; "greater"; "less"; "more than";
    "fewer"; "before"; "after"; "between"; "similar"; "like";
    "first name"; "last name"; "initials"; "whole word"; "substring";
    "prefix"; "suffix" ]

let old_is_operator_phrase s =
  let s = String.lowercase_ascii (String.trim s) in
  s <> ""
  && List.exists
       (fun kw -> old_contains_substring ~needle:kw s)
       old_operator_keywords

let old_all_operator_options options =
  List.length options >= 2 && List.for_all old_is_operator_phrase options

let old_is_bound_marker w =
  List.mem (old_strip_label_punctuation w) bound_markers

let old_is_unit_word w = List.mem (old_strip_label_punctuation w) unit_words

let old_split_unit_prefix s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> None
  | Some i ->
    let first = String.sub s 0 i in
    let rest = String.trim (String.sub s i (String.length s - i)) in
    if not (old_is_unit_word first) || rest = "" then None
    else begin
      let label =
        if String.length rest > 3
           && String.lowercase_ascii (String.sub rest 0 3) = "of "
        then String.trim (String.sub rest 3 (String.length rest - 3))
        else rest
      in
      if label = "" then None else Some (first, label)
    end

let old_split_bound_suffix s =
  let s = String.trim s in
  match String.rindex_opt s ' ' with
  | None -> None
  | Some i ->
    let prefix = String.trim (String.sub s 0 i) in
    let suffix = String.sub s (i + 1) (String.length s - i - 1) in
    if prefix <> "" && old_is_bound_marker suffix
       && not (old_is_bound_marker prefix)
    then Some (prefix, suffix)
    else None

let old_plausible_attribute s =
  let s = String.trim s in
  let n = String.length s in
  n > 0 && n <= 60
  && List.length
       (List.filter (fun w -> w <> "") (String.split_on_char ' ' s))
     <= 6
  && old_as_int s = None
  && String.exists
       (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'))
       s
  && not (n > 1 && s.[n - 1] = '!')

(* Label-like text assembled from pieces: whole keywords and markers,
   fragments of keywords (so near-misses meet the first-byte index),
   numbers, every byte [String.trim] strips, the label punctuation the
   classifiers strip, and "of " for the unit splitter; then sometimes
   upper-cased or capitalized. *)
let lexical_text_gen =
  let fragment_of w =
    Gen.(
      map2
        (fun i j ->
           let n = String.length w in
           let i = i mod (n + 1) and j = j mod (n + 1) in
           String.sub w (Int.min i j) (abs (i - j)))
        nat nat
      >>= fun frag -> return (if frag = "" then w else frag))
  in
  let words =
    old_operator_keywords @ bound_markers @ unit_words @ month_names
  in
  let piece =
    Gen.(
      frequency
        [ (6, oneofl words);
          (3, oneofl words >>= fragment_of);
          (3, oneofl [ " "; " "; "  "; "\012"; "\n"; "\r"; "\t" ]);
          (2, oneofl [ ":"; "$"; "."; "("; "!"; "of "; "Of "; "-" ]);
          (2, map string_of_int (int_range (-20) 2100));
          (1, oneofl [ "Author"; "Title"; "Price"; "ZIP"; "Keywords" ]);
          (1, string_size ~gen:printable (int_range 0 4)) ])
  in
  (* The shapes the splitters and the word limit look for, padded with
     trim bytes: "[unit] [of] label", "label [marker]", runs of five to
     eight words and labels of 58 to 62 bytes around
     [plausible_attribute]'s limits of six words and 60 bytes. *)
  let pad = Gen.oneofl [ ""; " "; "\t"; "\012 "; " \n" ] in
  let gap = Gen.oneofl [ " "; "  "; " \t " ] in
  let label = Gen.oneofl [ "ZIP"; "Author"; "Price:"; "the city"; "from"; "" ] in
  let shaped =
    Gen.(
      oneof
        [ map
            (fun ((p, u), (g, (o, (l, q)))) -> p ^ u ^ g ^ o ^ l ^ q)
            (pair (pair pad (oneofl unit_words))
               (pair gap
                  (pair (oneofl [ ""; "of "; "OF "; "of"; "of  " ])
                     (pair label pad))));
          map
            (fun ((p, l), (g, (m, q))) -> p ^ l ^ g ^ m ^ q)
            (pair (pair pad label)
               (pair gap (pair (oneofl bound_markers) pad)));
          map3
            (fun p ws q -> p ^ String.concat " " ws ^ q)
            pad
            (list_size (int_range 5 8) (oneofl [ "a"; "Name"; "of"; "7"; "" ]))
            pad;
          map2 (fun p n -> p ^ String.make n 'a') pad (int_range 58 62) ])
  in
  let pieces =
    Gen.(map (String.concat "") (list_size (int_range 0 5) piece))
  in
  Gen.(
    map2
      (fun case s ->
         match case with
         | 0 -> String.uppercase_ascii s
         | 1 -> String.capitalize_ascii s
         | _ -> s)
      (int_bound 3)
      (frequency [ (3, pieces); (2, shaped) ]))

let text_prop name ~is ~old =
  Q.Test.make ~name ~count:3000
    (Q.make ~print:String.escaped lexical_text_gen)
    (fun s -> Bool.equal (is s) (old s))

let split_prop name ~split ~old =
  Q.Test.make ~name ~count:3000
    (Q.make ~print:String.escaped lexical_text_gen)
    (fun s ->
       Option.equal
         (fun (a, b) (c, d) -> String.equal a c && String.equal b d)
         (split s) (old s))

let prop_lexical =
  [ text_prop "is_operator_phrase = trim, lowercase and scan"
      ~is:Lexicon.is_operator_phrase ~old:old_is_operator_phrase;
    text_prop "is_bound_marker = stripped copy in the set (lexical text)"
      ~is:Lexicon.is_bound_marker ~old:old_is_bound_marker;
    text_prop "is_unit_word = stripped copy in the set (lexical text)"
      ~is:Lexicon.is_unit_word ~old:old_is_unit_word;
    text_prop "plausible_attribute = trimmed copy and split words"
      ~is:Lexicon.plausible_attribute ~old:old_plausible_attribute;
    split_prop "split_bound_suffix = trimmed copies"
      ~split:Lexicon.split_bound_suffix ~old:old_split_bound_suffix;
    split_prop "split_unit_prefix = trimmed copies"
      ~split:Lexicon.split_unit_prefix ~old:old_split_unit_prefix;
    Q.Test.make ~name:"all_operator_options = length and for_all" ~count:2000
      (Q.make
         ~print:Q.Print.(list string)
         Gen.(list_size (int_range 0 4) lexical_text_gen))
      (fun options ->
         Bool.equal
           (Lexicon.all_operator_options options)
           (old_all_operator_options options));
    (* Month names and placeholders in any case, with trim bytes around
       them, through the date classification. *)
    Q.Test.make ~name:"date_component = old (case and trim bytes)" ~count:2000
      (Q.make ~print:Q.Print.(list string)
         Gen.(
           list_size (int_range 0 5)
             (map3
                (fun pre w post -> pre ^ w ^ post)
                (oneofl [ ""; " "; "\012"; "\t" ])
                (oneof
                   [ oneofl (month_names @ header_placeholders);
                     map String.uppercase_ascii
                       (oneofl (month_names @ header_placeholders));
                     map string_of_int (int_range 0 2100);
                     oneofl [ "10AM"; "2 PM"; "12:30"; "0X1F"; "1_0" ] ])
                (oneofl [ ""; " "; "\n"; "\r" ]))))
      (fun options ->
         String.equal
           (show_component (Lexicon.date_component options))
           (show_component (old_date_component options))) ]

(* ------------------------------------------------------------------ *)
(* Condition.normalize_label and Bitset.elements                      *)
(* ------------------------------------------------------------------ *)

let old_normalize_label s =
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let b = Buffer.create (String.length s) in
  let pending_space = ref false in
  String.iter
    (fun c ->
       if is_space c then begin
         if Buffer.length b > 0 then pending_space := true
       end else begin
         if !pending_space then Buffer.add_char b ' ';
         pending_space := false;
         Buffer.add_char b (Char.lowercase_ascii c)
       end)
    s;
  let s = Buffer.contents b in
  let n = String.length s in
  let rec last i =
    if i > 0
    && (s.[i - 1] = ':' || s.[i - 1] = '?' || s.[i - 1] = '*'
        || s.[i - 1] = '.' || s.[i - 1] = ' ')
    then last (i - 1)
    else i
  in
  String.sub s 0 (last n)

let prop_normalize_label =
  Q.Test.make ~name:"normalize_label = Buffer collapse and strip" ~count:3000
    (Q.make ~print:String.escaped
       Gen.(
         string_size
           ~gen:
             (oneof
                [ oneofl [ ' '; '\t'; '\n'; '\r'; '\012'; ':'; '?'; '*'; '.' ];
                  oneofl [ 'a'; 'B'; 'z'; 'Q'; '1'; '-' ];
                  char ])
           (int_range 0 14)))
    (fun s ->
       let got = Condition.normalize_label s in
       String.equal got (old_normalize_label s)
       && Condition.normalized_length s = String.length got)

let old_elements t =
  let module B = Wqi_grammar.Bitset in
  let acc = ref [] in
  for i = B.universe_size t - 1 downto 0 do
    if B.mem t i then acc := i :: !acc
  done;
  !acc

let prop_bitset_elements =
  Q.Test.make ~name:"Bitset.elements = scan of every position" ~count:2000
    (Q.make
       ~print:Q.Print.(pair int (list int))
       Gen.(
         int_range 1 200 >>= fun n ->
         pair (return n) (list_size (int_range 0 20) (int_bound (n - 1)))))
    (fun (n, items) ->
       let t = Wqi_grammar.Bitset.of_list n items in
       List.equal Int.equal (Wqi_grammar.Bitset.elements t) (old_elements t))

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
(* Json.string                                                        *)
(* ------------------------------------------------------------------ *)

(* The escaper Export and Trace each had before they shared [Json]'s. *)
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

let prop_json_string =
  Q.Test.make ~name:"Json.string = old escape" ~count:2000
    (Q.make ~print:Q.Print.string
       Gen.(
         string_size
           ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; 'a' ] ])
           (int_range 0 20)))
    (fun s ->
       String.equal (Wqi_json.Json.string s) ("\"" ^ old_escape s ^ "\""))

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
   layout) to 15 018.  The path measured 13 138 before the copy-free
   lexical classifiers, merge keys and export writers, and 9 127 after.
   The ceiling is that figure plus 3%, so a polymorphic or Format
   detour, or a copy, put back on the path shows up here. *)
let words_per_fixture_ceiling = 9_127. *. 1.03

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

(* ------------------------------------------------------------------ *)
(* Copy-free classifiers                                              *)
(* ------------------------------------------------------------------ *)

(* [Gc.minor_words] is unboxed, so reading it allocates nothing. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* A text that no class admits and no splitter splits still walks
   every classifier to its end: these run on every text token a guard
   meets, so a copy put back on the path shows up here. *)
let test_classifiers_allocate_nothing () =
  let label = "  Author Name:\t" and options = [ " Hardcover "; "Paperback" ] in
  let zero name f =
    Alcotest.(check (float 0.)) (name ^ " allocates nothing") 0. (minor_words f)
  in
  zero "is_operator_phrase" (fun () -> Lexicon.is_operator_phrase label);
  zero "is_bound_marker" (fun () -> Lexicon.is_bound_marker label);
  zero "is_unit_word" (fun () -> Lexicon.is_unit_word label);
  zero "plausible_attribute" (fun () -> Lexicon.plausible_attribute label);
  zero "all_operator_options" (fun () -> Lexicon.all_operator_options options);
  zero "split_bound_suffix" (fun () -> Lexicon.split_bound_suffix label);
  zero "split_unit_prefix" (fun () -> Lexicon.split_unit_prefix label);
  zero "date_component" (fun () -> Lexicon.date_component options);
  (* and the words that do match are found in place too *)
  zero "is_bound_marker \"$From:\"" (fun () -> Lexicon.is_bound_marker " $From: ");
  zero "is_operator_phrase \"Starts With\"" (fun () ->
      Lexicon.is_operator_phrase "Starts With")

(* ------------------------------------------------------------------ *)
(* Key.spec                                                           *)
(* ------------------------------------------------------------------ *)

module Key = Wqi_store.Key
module Budget = Wqi_budget.Budget

let old_spec ~grammar_name ~grammar_version ~name budget =
  Printf.sprintf "v%d|grammar=%s@%s|name=%s|budget=%s"
    Wqi_model.Export.extraction_version grammar_name grammar_version name
    (Wqi_model.Export.budget budget)

let budget_gen =
  let cap = Gen.(opt (oneof [ int_range 0 1000; int_range 0 max_int ])) in
  Gen.(
    map
      (fun ((deadline_ms, max_html_nodes, max_boxes),
            (max_tokens, max_instances, max_rounds)) ->
         { Budget.deadline_ms; max_html_nodes; max_boxes; max_tokens;
           max_instances; max_rounds })
      (pair (triple cap cap cap) (triple cap cap cap)))

let prop_key_spec =
  let name =
    Gen.(
      frequency
        [ (3, map (Printf.sprintf "doc-%05d") (int_bound 99_999));
          (2, string_size ~gen:char (int_range 0 40));
          (1, oneofl [ ""; "std"; "airline"; "@|="; "1" ]) ])
  in
  Q.Test.make ~name:"Key.spec = Printf rendering" ~count:2000
    (Q.make
       ~print:(fun ((g, v, n), b) ->
           old_spec ~grammar_name:g ~grammar_version:v ~name:n b)
       Gen.(pair (triple name name name) budget_gen))
    (fun ((grammar_name, grammar_version, name), budget) ->
       String.equal
         (Key.spec ~grammar_name ~grammar_version ~name budget)
         (old_spec ~grammar_name ~grammar_version ~name budget))

(* Minor words of one spec for a batch document under the unlimited
   budget: the [Printf] rendering allocated 114, the sized buffer
   allocates 21 (the buffer, its bytes and the returned string).  The
   ceiling is that figure plus 3%. *)
let key_spec_words_ceiling = 21. *. 1.03

let test_key_spec_words () =
  let words =
    minor_words (fun () ->
        Key.spec ~grammar_name:"std" ~grammar_version:"1" ~name:"doc-00042"
          Budget.unlimited)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words <= %.0f" words key_spec_words_ceiling)
    true
    (words <= key_spec_words_ceiling)

(* ------------------------------------------------------------------ *)
(* Pooled arenas                                                      *)
(* ------------------------------------------------------------------ *)

(* After a parse returns, the arena it used is back in the pack's pool
   and references no instance of that parse: every binding-row slot and
   every column slot holds the filler.  The reset clears only what the
   parse touched, so each parse here follows one that touched more or
   other rows and columns. *)
let test_pooled_arena_retention () =
  let module Engine = Wqi_parser.Engine in
  let module Arena = Wqi_parser.Arena in
  let pack = Engine.compile Wqi_stdgrammar.Std.grammar in
  let tokens_of html =
    (Extractor.run Extractor.Config.default (Extractor.Html html)).Extractor.tokens
  in
  let docs =
    List.map (fun (f : Fixtures.fixture) -> (f.Fixtures.name, tokens_of f.html))
      Fixtures.all
  in
  let check name =
    match Atomic.get pack.Engine.pool with
    | [ (a : Arena.t) ] ->
      let filler = a.Arena.filler in
      Array.iteri
        (fun p row ->
           Array.iteri
             (fun i inst ->
                if inst != filler then
                  Alcotest.failf "%s: chosen row %d slot %d kept an instance"
                    name p i)
             row)
        a.Arena.chosen;
      Array.iteri
        (fun c (col : Arena.col) ->
           Array.iteri
             (fun i inst ->
                if inst != filler then
                  Alcotest.failf "%s: column %d slot %d kept an instance" name
                    c i)
             col.Arena.inst)
        a.Arena.cols
    | arenas ->
      Alcotest.failf "%s: %d arenas pooled, expected 1" name
        (List.length arenas)
  in
  (* wide first, then narrow: leftovers of the wide parse would show *)
  let by_size =
    List.sort
      (fun (_, a) (_, b) -> Int.compare (List.length b) (List.length a))
      docs
  in
  List.iter
    (fun (name, tokens) ->
       let r = Engine.parse pack tokens in
       check name;
       ignore (Sys.opaque_identity r))
    (by_size @ List.rev by_size)

let suite =
  [ to_alcotest prop_reading_order;
    to_alcotest prop_dom_attr;
    to_alcotest prop_contains_substring ]
  @ List.map to_alcotest prop_sets
  @ List.map to_alcotest prop_lexical
  @ [ to_alcotest prop_normalize_label;
      to_alcotest prop_bitset_elements;
      to_alcotest prop_as_int;
      to_alcotest prop_date_component;
      to_alcotest prop_date_combo;
      to_alcotest prop_date_one_pass;
      to_alcotest prop_date_combo_one_pass;
      to_alcotest prop_merge;
      to_alcotest prop_json_string;
      to_alcotest prop_describe;
      to_alcotest prop_spatial_query;
      ("allocation ceiling: run + export", `Quick, test_alloc_ceiling);
      ( "classifiers allocate nothing on a non-matching label",
        `Quick,
        test_classifiers_allocate_nothing );
      to_alcotest prop_key_spec;
      ("Key.spec allocation ceiling", `Quick, test_key_spec_words);
      ( "pooled arena keeps no instance after a parse",
        `Quick,
        test_pooled_arena_retention ) ]
