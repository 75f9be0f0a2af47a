let contains_substring ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec matches i j =
    j >= n
    || String.unsafe_get haystack (i + j) = String.unsafe_get needle j
       && matches i (j + 1)
  in
  let rec at i = i + n <= h && (matches i 0 || at (i + 1)) in
  n > 0 && at 0

(* Every classifier works on index bounds into the text it is given:
   trimming, punctuation stripping and ASCII case folding happen on the
   bounds and on each byte as it is compared, never on a copy.  Word
   sets are compared case-insensitively against lowercase literals.
   Helpers are top-level functions of their indices, not local
   closures: without flambda a local function that captures the text
   is allocated on every call. *)

(* The bytes [String.trim] strips. *)
let is_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

(* The first index in [lo, hi) that is not a space, or [hi]. *)
let rec skip_space s lo hi =
  if lo < hi && is_space (String.unsafe_get s lo) then skip_space s (lo + 1) hi
  else lo

(* One past the last index in [lo, hi) that is not a space, or [lo]. *)
let rec drop_space s lo hi =
  if hi > lo && is_space (String.unsafe_get s (hi - 1)) then
    drop_space s lo (hi - 1)
  else hi

let trim_lo s = skip_space s 0 (String.length s)
let trim_hi s lo = drop_space s lo (String.length s)

(* [s.[i + j ..]] agrees with [w.[j ..]], ASCII case-insensitively. *)
let rec agree_ci s i w j =
  j >= String.length w
  || Char.lowercase_ascii (String.unsafe_get s (i + j)) = String.unsafe_get w j
     && agree_ci s i w (j + 1)

(* [s.[i ..]] starts with the lowercase word [w], ASCII case-insensitively,
   within [s.[.. hi)]. *)
let prefix_ci s i hi w = i + String.length w <= hi && agree_ci s i w 0

let rec mem_ci s lo hi = function
  | [] -> false
  | w :: ws -> prefix_ci s lo hi w || mem_ci s lo hi ws

(* A fixed word set as lists of words indexed by length. *)
let by_length words =
  let longest = List.fold_left (fun m w -> Int.max m (String.length w)) 0 words in
  let table = Array.make (longest + 1) [] in
  List.iter (fun w -> table.(String.length w) <- w :: table.(String.length w)) words;
  table

(* [s.[lo .. hi)] is a word of [table], ASCII case-insensitively. *)
let in_set table s lo hi =
  let n = hi - lo in
  n > 0 && n < Array.length table && mem_ci s lo hi (Array.unsafe_get table n)

let operator_keywords =
  [ "contain"; "start"; "begin"; "end with"; "ends with"; "exact";
    "equal"; "match"; "is exactly"; "keyword"; "phrase"; "all of";
    "any of"; "at least"; "at most"; "greater"; "less"; "more than";
    "fewer"; "before"; "after"; "between"; "similar"; "like";
    "first name"; "last name"; "initials"; "whole word"; "substring";
    "prefix"; "suffix" ]

(* The keywords indexed by their first byte. *)
let keywords_by_first =
  let table = Array.make 256 [] in
  List.iter
    (fun kw ->
       let c = Char.code kw.[0] in
       table.(c) <- kw :: table.(c))
    operator_keywords;
  table

(* One pass over the text.  No keyword starts or ends with a space, so
   an occurrence in the text lies inside its trimmed span, and a
   text that trims to "" contains none: matching the untrimmed text
   answers as matching the trimmed one did. *)
let rec operator_at s i n =
  i < n
  && (mem_ci s i n
        (Array.unsafe_get keywords_by_first
           (Char.code (Char.lowercase_ascii (String.unsafe_get s i))))
      || operator_at s (i + 1) n)

let is_operator_phrase s = operator_at s 0 (String.length s)

let rec all_operator_phrases = function
  | [] -> true
  | o :: rest -> is_operator_phrase o && all_operator_phrases rest

let all_operator_options = function
  | _ :: _ :: _ as options -> all_operator_phrases options
  | [] | [ _ ] -> false

(* The label-punctuation span of [s.[lo .. hi)]: trimmed, then leading
   '$' and '(' and trailing ':', '$' and '.' dropped (the two ends are
   found independently, so they may cross: the span is then empty). *)
let rec punct_lo s i hi =
  if i < hi && (match String.unsafe_get s i with '$' | '(' -> true | _ -> false)
  then punct_lo s (i + 1) hi
  else i

let rec punct_hi s lo i =
  if i > lo
     && (match String.unsafe_get s (i - 1) with
         | ':' | '$' | '.' -> true
         | _ -> false)
  then punct_hi s lo (i - 1)
  else i

let bound_markers =
  by_length
    [ "from"; "to"; "min"; "max"; "minimum"; "maximum"; "under"; "over";
      "between"; "and"; "at least"; "at most"; "low"; "high"; "lowest";
      "highest"; "up to" ]

let unit_words =
  by_length
    [ "miles"; "mile"; "mi"; "km"; "kilometers"; "nights"; "night"; "days";
      "day"; "years"; "yrs"; "dollars"; "usd"; "%"; "percent"; "sq ft";
      "sqft"; "lbs"; "kg"; "people"; "guests"; "rooms"; "passengers" ]

(* [s.[lo .. hi)], label punctuation stripped, is a word of [table]. *)
let label_in table s lo hi =
  let lo = skip_space s lo hi in
  let hi = drop_space s lo hi in
  in_set table s (punct_lo s lo hi) (punct_hi s lo hi)

let is_bound_marker s = label_in bound_markers s 0 (String.length s)
let is_unit_word s = label_in unit_words s 0 (String.length s)

let month_names =
  by_length
    [ "january"; "february"; "march"; "april"; "may"; "june"; "july";
      "august"; "september"; "october"; "november"; "december"; "jan";
      "feb"; "mar"; "apr"; "jun"; "jul"; "aug"; "sep"; "sept"; "oct";
      "nov"; "dec" ]

(* [int_of_string_opt] raises and catches internally on every failure,
   and the date and select placeholders ("--", "-- Any --") reach it
   three times per option.  A scan decides the common cases: an optional
   sign and up to 18 decimal digits (never past [max_int]) is the
   number; no digit after the sign, or a byte no OCaml integer literal
   contains, is none.  The rest ([1_000], [0x1f], 19+ digits, ...) goes
   to [int_of_string_opt].  [scan_int] reads the trimmed span
   [s.[lo .. hi)] and answers the number itself, [not_int], or [ask]
   for that rest; an 18-digit number is neither sentinel. *)
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

let as_int s =
  let lo = trim_lo s in
  let hi = trim_hi s lo in
  let v = scan_int s lo hi in
  if v = not_int then None
  else if v = ask then int_of_string_opt (String.sub s lo (hi - lo))
  else Some v

(* The trimmed span [s.[lo .. hi)] reads as an integer in [a, b]. *)
let int_within s lo hi a b =
  let v = scan_int s lo hi in
  if v = not_int then false
  else if v = ask then
    match int_of_string_opt (String.sub s lo (hi - lo)) with
    | Some v -> a <= v && v <= b
    | None -> false
  else a <= v && v <= b

(* Case folding never changes what an integer literal reads as (OCaml
   takes "0X1F" as "0x1f"), so the month and time tests read the
   original bytes. *)
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

let header_placeholders =
  by_length
    [ "mm"; "dd"; "yy"; "yyyy"; "month"; "day"; "year"; "hour"; "minute";
      "time"; "hh"; "mi"; "--" ]

let is_header_placeholder o =
  let lo = trim_lo o in
  in_set header_placeholders o lo (trim_hi o lo)

(* The options that are not header placeholders, counted and tested in
   place instead of filtered into a list. *)
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
    (* A composite date: month, day and year in any order.  Numeric month
       lists (1..12) classify as `Day, hence the second form. *)
    let a = date_component a and b = date_component b
    and c = date_component c in
    let count is = Bool.to_int (is a) + Bool.to_int (is b) + Bool.to_int (is c) in
    let months = count (function `Month -> true | _ -> false)
    and days = count (function `Day -> true | _ -> false)
    and years = count (function `Year -> true | _ -> false) in
    years = 1 && ((months = 1 && days = 1) || days = 2)
  | [ a; b ] ->
    (* Month/day, month/year, day/year pairs or an hour/minute pair; two
       generic number lists (e.g. passenger counts) do not qualify. *)
    (match date_component a, date_component b with
     | (`Day, `Month | `Month, `Day) | (`Month, `Year | `Year, `Month)
     | (`Day, `Year | `Year, `Day) | `Time, `Time ->
       true
     | _ -> false)
  | _ -> false

let rec index_from s i hi c =
  if i >= hi then -1
  else if String.unsafe_get s i = c then i
  else index_from s (i + 1) hi c

let rec rindex_from s lo i c =
  if i < lo then -1
  else if String.unsafe_get s i = c then i
  else rindex_from s lo (i - 1) c

(* The first word (up to the first space of the trimmed text) must be a
   unit word; the rest, trimmed and with a leading "of " dropped, is the
   label.  Only a split that succeeds copies. *)
let split_unit_prefix s =
  let lo = trim_lo s in
  let hi = trim_hi s lo in
  let i = index_from s lo hi ' ' in
  if i < 0 || not (label_in unit_words s lo i) then None
  else begin
    let r_lo = skip_space s i hi in
    let r_hi = drop_space s r_lo hi in
    if r_lo >= r_hi then None
    else begin
      let l_lo =
        if r_hi - r_lo > 3 && prefix_ci s r_lo r_hi "of " then
          skip_space s (r_lo + 3) r_hi
        else r_lo
      in
      let l_hi = drop_space s l_lo r_hi in
      if l_lo >= l_hi then None
      else Some (String.sub s lo (i - lo), String.sub s l_lo (l_hi - l_lo))
    end
  end

(* The last word (after the last space of the trimmed text) must be a
   bound marker and the trimmed rest must not be one.  Only a split
   that succeeds copies. *)
let split_bound_suffix s =
  let lo = trim_lo s in
  let hi = trim_hi s lo in
  let i = rindex_from s lo (hi - 1) ' ' in
  if i < 0 then None
  else begin
    let p_hi = drop_space s lo i in
    if p_hi > lo
       && label_in bound_markers s (i + 1) hi
       && not (label_in bound_markers s lo p_hi)
    then Some (String.sub s lo (p_hi - lo), String.sub s (i + 1) (hi - i - 1))
    else None
  end

(* The non-empty space-separated words of [s.[lo .. hi)], counted
   without splitting. *)
let word_count s lo hi =
  let words = ref 0 in
  for i = lo to hi - 1 do
    if
      String.unsafe_get s i <> ' '
      && (i = lo || String.unsafe_get s (i - 1) = ' ')
    then incr words
  done;
  !words

let rec has_letter s i hi =
  i < hi
  && (match String.unsafe_get s i with
      | 'a' .. 'z' | 'A' .. 'Z' -> true
      | _ -> has_letter s (i + 1) hi)

let plausible_attribute s =
  let lo = trim_lo s in
  let hi = trim_hi s lo in
  let n = hi - lo in
  n > 0 && n <= 60
  && word_count s lo hi <= 6
  && (not (int_within s lo hi min_int max_int))
  && has_letter s lo hi
  && not (n > 1 && s.[hi - 1] = '!')
