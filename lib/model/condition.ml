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

let normalize_label s =
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
  (* Strip trailing label punctuation (and any space this exposes):
     "Author:" and "Author" must agree. *)
  let n = String.length s in
  let rec last i =
    if i > 0
    && (s.[i - 1] = ':' || s.[i - 1] = '?' || s.[i - 1] = '*'
        || s.[i - 1] = '.' || s.[i - 1] = ' ')
    then last (i - 1)
    else i
  in
  String.sub s 0 (last n)

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
