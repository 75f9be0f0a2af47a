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

let rec occurs_ci s i hi w = i < hi && (prefix_ci s i hi w || occurs_ci s (i + 1) hi w)

let header_placeholders =
  by_length
    [ "mm"; "dd"; "yy"; "yyyy"; "month"; "day"; "year"; "hour"; "minute";
      "time"; "hh"; "mi"; "--" ]

(* The date classes an option can belong to, as bits: a month name or
   number that cannot be a day, a year, a day, an hour or minute. *)
let c_month = 1
let c_year = 2
let c_day = 4
let c_time = 8

let within v a b = a <= v && v <= b

(* Which of the classes [live] the trimmed option [s.[lo .. hi)] is in.
   Its integer reading is scanned once for all of them, and case
   folding never changes what an integer literal reads as (OCaml takes
   "0X1F" as "0x1f"), so the tests read the original bytes. *)
let date_classes s lo hi live =
  let v = scan_int s lo hi in
  let v =
    if v <> ask then v
    else
      match int_of_string_opt (String.sub s lo (hi - lo)) with
      | Some v -> v
      | None -> not_int
  in
  (* [not_int] is [min_int], below every range tested here *)
  let day = within v 1 31 in
  (if live land c_month <> 0
      && (not day)
      && (in_set month_names s lo hi || within v 1 12)
   then c_month
   else 0)
  lor (if live land c_year <> 0 && within v 1900 2100 then c_year else 0)
  lor (if live land c_day <> 0 && day then c_day else 0)
  lor
  if live land c_time <> 0
     && (within v 0 59 || occurs_ci s lo hi "am" || occurs_ci s lo hi "pm"
         || occurs_ci s lo hi ":")
  then c_time
  else 0

(* One pass over the options: header placeholders ("mm", "--", ...) are
   skipped, and every other option narrows the classes all of them share.
   Returns the number of those options, capped at 2, times 16 plus the
   shared classes; once no class is shared the answer is [`None]
   whatever follows, and the pass stops. *)
let rec date_scan count live = function
  | [] -> (Int.min count 2 lsl 4) lor live
  | o :: rest ->
    let lo = trim_lo o in
    let hi = trim_hi o lo in
    if in_set header_placeholders o lo hi then date_scan count live rest
    else
      let live = date_classes o lo hi live in
      if live = 0 then 1 lsl 4 else date_scan (count + 1) live rest

let date_component options =
  let scan = date_scan 0 (c_month lor c_year lor c_day lor c_time) options in
  match scan lsr 4 with
  | 0 -> (match options with [] -> `None | _ :: _ -> `Day)
  | 1 -> `None
  | _ ->
    if scan land c_month <> 0 then `Month
    else if scan land c_year <> 0 then `Year
    else if scan land c_day <> 0 then `Day
    else if scan land c_time <> 0 then `Time
    else `None

let is_month = function `Month -> 1 | `Day | `Year | `Time | `None -> 0
let is_day = function `Day -> 1 | `Month | `Year | `Time | `None -> 0
let is_year = function `Year -> 1 | `Month | `Day | `Time | `None -> 0

let plausible_date_combo n option_list =
  match n with
  | 3 ->
    (* A composite date: month, day and year in any order.  Numeric month
       lists (1..12) classify as `Day, hence the second form. *)
    let a = date_component (option_list 0)
    and b = date_component (option_list 1)
    and c = date_component (option_list 2) in
    let months = is_month a + is_month b + is_month c
    and days = is_day a + is_day b + is_day c
    and years = is_year a + is_year b + is_year c in
    years = 1 && ((months = 1 && days = 1) || days = 2)
  | 2 ->
    (* Month/day, month/year, day/year pairs or an hour/minute pair; two
       generic number lists (e.g. passenger counts) do not qualify. *)
    (match date_component (option_list 0), date_component (option_list 1) with
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
