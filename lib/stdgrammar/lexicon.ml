let lowercase = String.lowercase_ascii

let contains_substring ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec matches i j =
    j >= n
    || String.unsafe_get haystack (i + j) = String.unsafe_get needle j
       && matches i (j + 1)
  in
  let rec at i = i + n <= h && (matches i 0 || at (i + 1)) in
  n > 0 && at 0

let operator_keywords =
  [ "contain"; "start"; "begin"; "end with"; "ends with"; "exact";
    "equal"; "match"; "is exactly"; "keyword"; "phrase"; "all of";
    "any of"; "at least"; "at most"; "greater"; "less"; "more than";
    "fewer"; "before"; "after"; "between"; "similar"; "like";
    "first name"; "last name"; "initials"; "whole word"; "substring";
    "prefix"; "suffix" ]

let is_operator_phrase s =
  let s = lowercase (String.trim s) in
  s <> "" && List.exists (fun kw -> contains_substring ~needle:kw s) operator_keywords

let all_operator_options options =
  List.length options >= 2 && List.for_all is_operator_phrase options

let strip_label_punctuation s =
  let s = String.trim (lowercase s) in
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

let is_bound_marker s =
  match strip_label_punctuation s with
  | "from" | "to" | "min" | "max" | "minimum" | "maximum" | "under" | "over"
  | "between" | "and" | "at least" | "at most" | "low" | "high" | "lowest"
  | "highest" | "up to" ->
    true
  | _ -> false

let is_unit_word s =
  match strip_label_punctuation s with
  | "miles" | "mile" | "mi" | "km" | "kilometers" | "nights" | "night"
  | "days" | "day" | "years" | "yrs" | "dollars" | "usd" | "%" | "percent"
  | "sq ft" | "sqft" | "lbs" | "kg" | "people" | "guests" | "rooms"
  | "passengers" ->
    true
  | _ -> false

let is_month_name = function
  | "january" | "february" | "march" | "april" | "may" | "june" | "july"
  | "august" | "september" | "october" | "november" | "december" | "jan"
  | "feb" | "mar" | "apr" | "jun" | "jul" | "aug" | "sep" | "sept" | "oct"
  | "nov" | "dec" ->
    true
  | _ -> false

(* [int_of_string_opt] raises and catches internally on every failure,
   and the date and select placeholders ("--", "-- Any --") reach it
   three times per option.  A scan decides the common cases: an optional
   sign and up to 18 decimal digits (never past [max_int]) is the
   number; no digit after the sign, or a byte no OCaml integer literal
   contains, is none.  The rest ([1_000], [0x1f], 19+ digits, ...) goes
   to [int_of_string_opt]. *)
let is_digit c = c >= '0' && c <= '9'

let as_int s =
  let s = String.trim s in
  let n = String.length s in
  let start = if n > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  if start >= n || not (is_digit s.[start]) then None
  else begin
    let i = ref start and v = ref 0 in
    while !i < n && is_digit (String.unsafe_get s !i) do
      v := (10 * !v) + Char.code (String.unsafe_get s !i) - 48;
      incr i
    done;
    if !i = n && n - start <= 18 then Some (if s.[0] = '-' then - !v else !v)
    else begin
      while
        !i < n
        && (match String.unsafe_get s !i with
            | '0' .. '9' | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
            | _ -> false)
      do incr i done;
      if !i < n then None else int_of_string_opt s
    end
  end

let is_int s = Option.is_some (as_int s)

let is_month s =
  let s = lowercase (String.trim s) in
  is_month_name s
  || (match as_int s with Some m -> m >= 1 && m <= 12 | None -> false)

let is_day s =
  match as_int s with Some d -> d >= 1 && d <= 31 | None -> false

let is_year s =
  match as_int s with Some y -> y >= 1900 && y <= 2100 | None -> false

let is_hour_or_minute s =
  let s = lowercase (String.trim s) in
  match as_int s with
  | Some v -> v >= 0 && v <= 59
  | None ->
    contains_substring ~needle:"am" s || contains_substring ~needle:"pm" s
    || contains_substring ~needle:":" s

let is_header_placeholder = function
  | "mm" | "dd" | "yy" | "yyyy" | "month" | "day" | "year" | "hour"
  | "minute" | "time" | "hh" | "mi" | "--" ->
    true
  | _ -> false

let significant_options options =
  List.filter
    (fun o -> not (is_header_placeholder (lowercase (String.trim o))))
    options

let date_component options =
  let significant = significant_options options in
  match significant with
  | [] -> (match options with [] -> `None | _ :: _ -> `Day)
  | _ ->
    let all pred = List.for_all pred significant in
    if List.length significant < 2 then `None
    else if all (fun s -> is_month s && not (is_day s)) then `Month
    else if all is_year then `Year
    else if all is_day then `Day
    else if all is_hour_or_minute then `Time
    else `None

let plausible_date_combo option_lists =
  let components = List.map date_component option_lists in
  match components with
  | [ _; _; _ ] ->
    (* A composite date: month, day and year in any order.  Numeric month
       lists (1..12) classify as `Day, hence the second form. *)
    let months = ref 0 and days = ref 0 and years = ref 0 in
    List.iter
      (function
        | `Month -> incr months
        | `Day -> incr days
        | `Year -> incr years
        | `Time | `None -> ())
      components;
    !years = 1 && ((!months = 1 && !days = 1) || !days = 2)
  | [ a; b ] ->
    (* Month/day, month/year, day/year pairs or an hour/minute pair; two
       generic number lists (e.g. passenger counts) do not qualify. *)
    (match a, b with
     | (`Day, `Month | `Month, `Day) | (`Month, `Year | `Year, `Month)
     | (`Day, `Year | `Year, `Day) | `Time, `Time ->
       true
     | _ -> false)
  | _ -> false

let split_unit_prefix s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> None
  | Some i ->
    let first = String.sub s 0 i in
    let rest = String.trim (String.sub s i (String.length s - i)) in
    if not (is_unit_word first) || rest = "" then None
    else begin
      let label =
        if String.length rest > 3 && String.lowercase_ascii (String.sub rest 0 3) = "of "
        then String.trim (String.sub rest 3 (String.length rest - 3))
        else rest
      in
      if label = "" then None else Some (first, label)
    end

let split_bound_suffix s =
  let s = String.trim s in
  match String.rindex_opt s ' ' with
  | None -> None
  | Some i ->
    let prefix = String.trim (String.sub s 0 i) in
    let suffix = String.sub s (i + 1) (String.length s - i - 1) in
    if prefix <> "" && is_bound_marker suffix
       && not (is_bound_marker prefix)
    then Some (prefix, suffix)
    else None

(* The non-empty space-separated words of the trimmed text, counted
   without splitting. *)
let word_count s =
  let s = String.trim s in
  let words = ref 0 in
  for i = 0 to String.length s - 1 do
    if
      String.unsafe_get s i <> ' '
      && (i = 0 || String.unsafe_get s (i - 1) = ' ')
    then incr words
  done;
  !words

let plausible_attribute s =
  let s = String.trim s in
  let n = String.length s in
  n > 0 && n <= 60
  && word_count s <= 6
  && (not (is_int s))
  && String.exists
       (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'))
       s
  && not (n > 1 && s.[n - 1] = '!')
