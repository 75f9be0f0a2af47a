type domain =
  | Text
  | Enumeration of string list
  | Range of domain
  | Datetime

type t = {
  attribute : string;
  operators : string list;
  domain : domain;
}

let make ?(operators = []) ~attribute domain =
  { attribute; operators; domain }

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* The normalized label is the words of [s] (runs of non-space bytes),
   lowercased and joined by one space, with trailing label punctuation
   (and any space this exposes) stripped: "Author:" and "Author" must
   agree.  That is the words of [s.[0 .. e)], where [e] is one past the
   last byte that is neither a space nor ':', '?', '*' or '.', so the
   length is known before a byte is written and the label is built in
   one exact-size string. *)
let rec label_end s i =
  if i = 0 then 0
  else
    match String.unsafe_get s (i - 1) with
    | ' ' | '\t' | '\n' | '\r' | ':' | '?' | '*' | '.' -> label_end s (i - 1)
    | _ -> i

let normalized_length s =
  let e = label_end s (String.length s) in
  let n = ref 0 in
  for i = 0 to e - 1 do
    let c = String.unsafe_get s i in
    if not (is_space c) then begin
      (* a word after the first is preceded by its one space *)
      if !n > 0 && i > 0 && is_space (String.unsafe_get s (i - 1)) then incr n;
      incr n
    end
  done;
  !n

let blit_normalized s b off =
  let e = label_end s (String.length s) in
  let j = ref off in
  for i = 0 to e - 1 do
    let c = String.unsafe_get s i in
    if not (is_space c) then begin
      if !j > off && i > 0 && is_space (String.unsafe_get s (i - 1)) then begin
        Bytes.unsafe_set b !j ' ';
        incr j
      end;
      Bytes.unsafe_set b !j (Char.lowercase_ascii c);
      incr j
    end
  done;
  !j

let normalize_label s =
  let b = Bytes.create (normalized_length s) in
  ignore (blit_normalized s b 0 : int);
  Bytes.unsafe_to_string b

let equal_attribute a b =
  normalize_label a.attribute = normalize_label b.attribute

let rec same_domain_shape a b =
  match a, b with
  | Text, Text -> true
  | Datetime, Datetime -> true
  | Range da, Range db -> same_domain_shape da db
  | Enumeration va, Enumeration vb -> List.length va = List.length vb
  | (Text | Datetime | Range _ | Enumeration _), _ -> false

let normalized_sorted_ops ops =
  List.sort_uniq String.compare (List.map normalize_label ops)

let matches ~truth extracted =
  equal_attribute truth extracted
  && same_domain_shape truth.domain extracted.domain
  && List.equal String.equal
       (normalized_sorted_ops truth.operators)
       (normalized_sorted_ops extracted.operators)

let rec pp_domain ppf = function
  | Text -> Fmt.string ppf "text"
  | Datetime -> Fmt.string ppf "datetime"
  | Range d -> Fmt.pf ppf "range(%a)" pp_domain d
  | Enumeration values ->
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") (quote string)) values

let pp ppf c =
  Fmt.pf ppf "[%s; {%a}; %a]" c.attribute
    Fmt.(list ~sep:(any ", ") string)
    c.operators pp_domain c.domain

let to_string c = Fmt.str "%a" pp c
