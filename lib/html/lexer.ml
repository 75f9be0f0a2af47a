type token =
  | Text of string
  | Open of string * (string * string) list * bool
  | Close of string
  | Comment of string
  | Doctype of string

let pp_token ppf = function
  | Text s -> Fmt.pf ppf "Text %S" s
  | Open (name, attrs, self) ->
    Fmt.pf ppf "Open(%s%a%s)" name
      Fmt.(list ~sep:nop (fun ppf (k, v) -> pf ppf " %s=%S" k v))
      attrs
      (if self then " /" else "")
  | Close name -> Fmt.pf ppf "Close(%s)" name
  | Comment s -> Fmt.pf ppf "Comment %S" s
  | Doctype s -> Fmt.pf ppf "Doctype %S" s

(* ------------------------------------------------------------------ *)
(* Interned names                                                      *)
(* ------------------------------------------------------------------ *)

(* Tag and attribute names the pipeline matches on, and the common
   inline tags and attributes of query forms.  The scanner hands out
   these shared strings instead of copying a name out of the source,
   together with the name's index here. *)
let names =
  [| (* tags *)
     "html"; "head"; "body"; "title"; "meta"; "link"; "base"; "script";
     "style"; "form"; "table"; "caption"; "thead"; "tbody"; "tfoot"; "tr";
     "td"; "th"; "col"; "div"; "p"; "br"; "hr"; "img"; "input"; "select";
     "option"; "optgroup"; "textarea"; "button"; "fieldset"; "legend";
     "ul"; "ol"; "li"; "dl"; "dt"; "dd"; "h1"; "h2"; "h3"; "h4"; "h5";
     "h6"; "pre"; "blockquote"; "center"; "address"; "article"; "aside";
     "dir"; "figure"; "footer"; "header"; "main"; "menu"; "nav"; "section";
     "area"; "embed"; "param"; "source"; "track"; "wbr"; "span"; "label";
     "a"; "b"; "i"; "u"; "em"; "strong"; "small"; "big"; "font"; "nobr";
     (* attributes *)
     "type"; "name"; "value"; "size"; "checked"; "selected"; "multiple";
     "maxlength"; "cols"; "rows"; "width"; "height"; "align"; "valign";
     "colspan"; "cellpadding"; "cellspacing"; "border"; "alt"; "src";
     "href"; "id"; "class"; "method"; "action"; "for" |]

let name_count = Array.length names

let slot_count = 256

(* A name's slot hashes its length and first and last lowercase bytes. *)
let slot first last len =
  ((Char.code first * 31) + (Char.code last * 7) + len) land (slot_count - 1)

let slots =
  let t = Array.make slot_count [] in
  Array.iteri
    (fun id n ->
       let len = String.length n in
       let s = slot n.[0] n.[len - 1] len in
       t.(s) <- t.(s) @ [ id ])
    names;
  t

(* [src.[pos + j ..]] equals the lowercase [n] from [j] on, ASCII
   case-insensitively ([n] fits in [src]). *)
let rec same_name src pos n j =
  j >= String.length n
  || Char.lowercase_ascii (String.unsafe_get src (pos + j))
     = String.unsafe_get n j
     && same_name src pos n (j + 1)

let rec find_in src pos len = function
  | [] -> -1
  | id :: rest ->
    let n = Array.unsafe_get names id in
    if String.length n = len && same_name src pos n 0 then id
    else find_in src pos len rest

(* The index of [src.[pos .. pos + len - 1]] in [names], compared ASCII
   case-insensitively, or -1. *)
let find_name src pos len =
  if len = 0 then -1
  else
    find_in src pos len
      (Array.unsafe_get slots
         (slot
            (Char.lowercase_ascii (String.unsafe_get src pos))
            (Char.lowercase_ascii (String.unsafe_get src (pos + len - 1)))
            len))

(* ------------------------------------------------------------------ *)
(* Scanner                                                             *)
(* ------------------------------------------------------------------ *)

type sink = {
  text : string -> unit;
  open_tag : string -> int -> (string * string) list -> bool -> unit;
  close_tag : string -> int -> unit;
  comment : string -> unit;
  doctype : string -> unit;
}

(* Byte classes, one table lookup each. *)
let space = 1
let letter = 2 (* a name starts with one *)
let name_char = 4

let classes =
  String.init 256 (fun i ->
      let c = Char.chr i in
      let is_space =
        c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'
      in
      let is_letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
      let is_name =
        is_letter || (c >= '0' && c <= '9') || c = '-' || c = '_' || c = ':'
      in
      Char.chr
        ((if is_space then space else 0)
         lor (if is_letter then letter else 0)
         lor if is_name then name_char else 0))

let has_class cls c =
  Char.code (String.unsafe_get classes (Char.code c)) land cls <> 0

let is_space c = has_class space c
let is_name_start c = has_class letter c

(* The first index at or after [i] (below [len]) whose byte is not in
   class [cls]. *)
let rec skip_class cls src len i =
  if i < len && has_class cls (String.unsafe_get src i) then
    skip_class cls src len (i + 1)
  else i

(* Raw-text elements whose content must not be parsed as markup. *)
let raw_text_mode name =
  match name with
  | "script" | "style" -> Some `Verbatim
  | "textarea" | "title" -> Some `Decoded
  | _ -> None

type state = {
  src : string;
  len : int;
  sink : sink;
  mutable pos : int;
  mutable name_id : int; (* index in [names] of the last name read, or -1 *)
  mutable self_closing : bool; (* the last tag read ended in "/>" *)
}

(* Look-ahead without allocating: is the byte [off] past the cursor
   [c] / a name-start character?  Both are false past the end. *)
let at st off c =
  let i = st.pos + off in
  i < st.len && String.unsafe_get st.src i = c

let name_start_at st off =
  let i = st.pos + off in
  i < st.len && is_name_start (String.unsafe_get st.src i)

(* [src.[start .. stop - 1]], character references decoded when the
   scan that delimited it saw an '&'. *)
let slice st start stop ~amp =
  if amp then Entity.decode_sub st.src ~pos:start ~len:(stop - start)
  else String.sub st.src start (stop - start)

(* Find the next occurrence of [sub] (ASCII case-insensitive, [sub]
   lowercase) at or after [from]; returns the index or [len] when
   absent. *)
let find_ci st sub from =
  let m = String.length sub in
  let rec matches_at i j =
    j >= m
    || Char.lowercase_ascii (String.unsafe_get st.src (i + j))
       = String.unsafe_get sub j
       && matches_at i (j + 1)
  in
  let rec go i =
    if i + m > st.len then st.len
    else if matches_at i 0 then i
    else go (i + 1)
  in
  go from

(* The index of the first '>' at or after [i], or [len]. *)
let rec index_gt_in src len i =
  if i >= len || String.unsafe_get src i = '>' then i
  else index_gt_in src len (i + 1)

let index_gt st from = index_gt_in st.src st.len from

(* A tag or attribute name, lowercased: an interned constant when it is
   one of [names] (its index left in [st.name_id]), else a fresh copy. *)
let read_name st =
  let start = st.pos in
  st.pos <- skip_class name_char st.src st.len start;
  let len = st.pos - start in
  let id = find_name st.src start len in
  st.name_id <- id;
  if id >= 0 then Array.unsafe_get names id
  else
    let name = String.sub st.src start len in
    if String.exists (fun c -> c >= 'A' && c <= 'Z') name then
      String.lowercase_ascii name
    else name

let skip_spaces st = st.pos <- skip_class space st.src st.len st.pos

(* Read an attribute value after '='.  Quoted or unquoted. *)
let read_attr_value st =
  skip_spaces st;
  let src = st.src and len = st.len in
  let amp = ref false in
  if at st 0 '"' || at st 0 '\'' then begin
    let q = String.unsafe_get src st.pos in
    let start = st.pos + 1 in
    let i = ref start in
    while
      !i < len
      &&
      let c = String.unsafe_get src !i in
      if c = '&' then amp := true;
      c <> q
    do
      incr i
    done;
    let v = slice st start !i ~amp:!amp in
    st.pos <- (if !i < len then !i + 1 else !i);
    v
  end
  else begin
    let start = st.pos in
    let i = ref start in
    while
      !i < len
      &&
      let c = String.unsafe_get src !i in
      if c = '&' then amp := true;
      not (is_space c) && c <> '>'
    do
      incr i
    done;
    st.pos <- !i;
    slice st start !i ~amp:!amp
  end

(* Read attributes up to (but not consuming) '>' or end of input.  Returns
   the attribute list; [st.self_closing] tells whether the tag ends in
   '/'. *)
let read_attributes st =
  let attrs = ref [] in
  st.self_closing <- false;
  let continue = ref true in
  while !continue do
    skip_spaces st;
    if st.pos >= st.len || at st 0 '>' then continue := false
    else if at st 0 '/' then begin
      st.pos <- st.pos + 1;
      if at st 0 '>' then st.self_closing <- true
    end
    else if name_start_at st 0 then begin
      let name = read_name st in
      skip_spaces st;
      let value =
        if at st 0 '=' then begin
          st.pos <- st.pos + 1;
          read_attr_value st
        end else ""
      in
      attrs := (name, value) :: !attrs
    end
    else
      (* Stray character in a tag: skip it, as browsers do. *)
      st.pos <- st.pos + 1
  done;
  match !attrs with [] | [ _ ] as l -> l | l -> List.rev l

let read_comment st =
  (* st.pos is just past "<!--". *)
  let close = find_ci st "-->" st.pos in
  let body = String.sub st.src st.pos (close - st.pos) in
  st.pos <- Int.min st.len (close + 3);
  st.sink.comment body

let read_doctype_or_bogus st =
  (* st.pos is just past "<!". *)
  let close = index_gt st st.pos in
  let body = String.sub st.src st.pos (close - st.pos) in
  st.pos <- Int.min st.len (close + 1);
  if String.length body >= 7
  && String.lowercase_ascii (String.sub body 0 7) = "doctype"
  then st.sink.doctype (String.trim body)
  else st.sink.comment body

(* Consume the raw content of a raw-text element and its close tag. *)
let read_raw_text st name id mode =
  let close_tag = "</" ^ name in
  let close = find_ci st close_tag st.pos in
  if close > st.pos then
    st.sink.text
      (match mode with
       | `Verbatim -> String.sub st.src st.pos (close - st.pos)
       | `Decoded ->
         let amp = ref false in
         for i = st.pos to close - 1 do
           if String.unsafe_get st.src i = '&' then amp := true
         done;
         slice st st.pos close ~amp:!amp);
  if close < st.len then begin
    (* Consume "</name ... >". *)
    let gt = index_gt st (close + String.length close_tag) in
    st.pos <- Int.min st.len (gt + 1);
    st.sink.close_tag name id
  end else st.pos <- st.len

let read_open_tag st =
  (* st.pos is at the first character of the tag name. *)
  let name = read_name st in
  let id = st.name_id in
  let attrs = read_attributes st in
  let self_closing = st.self_closing in
  if st.pos < st.len then st.pos <- st.pos + 1; (* consume '>' *)
  st.sink.open_tag name id attrs self_closing;
  if not self_closing then
    match raw_text_mode name with
    | Some mode -> read_raw_text st name id mode
    | None -> ()

let read_close_tag st =
  (* st.pos is just past "</".  "</" followed by a non-name: browsers
     treat "</>" as nothing and "</ ..." as a bogus comment; we drop up
     to '>'. *)
  if name_start_at st 0 then begin
    let name = read_name st in
    let id = st.name_id in
    (* Skip any junk up to '>'. *)
    st.pos <- Int.min st.len (index_gt st st.pos + 1);
    st.sink.close_tag name id
  end
  else st.pos <- Int.min st.len (index_gt st st.pos + 1)

let scan sink src =
  let st =
    { src; len = String.length src; sink; pos = 0; name_id = -1;
      self_closing = false }
  in
  let text_start = ref 0 in
  let amp = ref false in
  let flush_text upto =
    if upto > !text_start then sink.text (slice st !text_start upto ~amp:!amp)
  in
  let len = st.len in
  while st.pos < len do
    (* Text up to the next '<', noting any '&' on the way. *)
    let i = ref st.pos in
    while
      !i < len
      &&
      let c = String.unsafe_get src !i in
      c <> '<' && (c <> '&' || (amp := true; true))
    do
      incr i
    done;
    st.pos <- !i;
    if !i < len then begin
      let tag_kind =
        if name_start_at st 1 then `Open
        else if at st 1 '/' then `Close
        else if at st 1 '!' then
          if at st 2 '-' && at st 3 '-' then `Comment else `Declaration
        else if at st 1 '?' then `Processing
        else `NotATag
      in
      (match tag_kind with
       | `NotATag -> st.pos <- st.pos + 1
       | kind ->
         flush_text st.pos;
         (match kind with
          | `Open ->
            st.pos <- st.pos + 1;
            read_open_tag st
          | `Close ->
            st.pos <- st.pos + 2;
            read_close_tag st
          | `Comment ->
            st.pos <- st.pos + 4;
            read_comment st
          | `Declaration ->
            st.pos <- st.pos + 2;
            read_doctype_or_bogus st
          | `Processing -> st.pos <- Int.min st.len (index_gt st st.pos + 1)
          | `NotATag -> assert false);
         text_start := st.pos;
         amp := false)
    end
  done;
  flush_text st.len

let tokenize src =
  let out = ref [] in
  let emit tok = out := tok :: !out in
  scan
    { text = (fun s -> emit (Text s));
      open_tag = (fun name _ attrs self -> emit (Open (name, attrs, self)));
      close_tag = (fun name _ -> emit (Close name));
      comment = (fun s -> emit (Comment s));
      doctype = (fun s -> emit (Doctype s)) }
    src;
  List.rev !out
