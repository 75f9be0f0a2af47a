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

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '_' || c = ':'

(* Raw-text elements whose content must not be parsed as markup. *)
let raw_text_mode name =
  match name with
  | "script" | "style" -> Some `Verbatim
  | "textarea" | "title" -> Some `Decoded
  | _ -> None

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable out : token list; (* reversed *)
}

(* Look-ahead without allocating: is the byte [off] past the cursor
   [c] / a name-start character?  Both are false past the end. *)
let at st off c =
  let i = st.pos + off in
  i < st.len && String.unsafe_get st.src i = c

let name_start_at st off =
  let i = st.pos + off in
  i < st.len && is_name_start (String.unsafe_get st.src i)

let emit st tok = st.out <- tok :: st.out

let emit_text st s = if s <> "" then emit st (Text (Entity.decode s))

(* Find the next occurrence of [sub] (ASCII case-insensitive) at or after
   [from]; returns the index or [len] when absent. *)
let find_ci st sub from =
  let sub = String.lowercase_ascii sub in
  let m = String.length sub in
  let rec matches_at i j =
    j >= m
    || (Char.lowercase_ascii st.src.[i + j] = sub.[j] && matches_at i (j + 1))
  in
  let rec go i =
    if i + m > st.len then st.len
    else if matches_at i 0 then i
    else go (i + 1)
  in
  go from

(* The scanners below advance [st.pos] past a run and return the run;
   each tests its byte class directly rather than through a predicate
   closure. *)
let take st start = String.sub st.src start (st.pos - start)

(* A tag or attribute name, lowercased; copied once unless it has
   capitals. *)
let read_name st =
  let start = st.pos in
  while st.pos < st.len && is_name_char (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done;
  let name = take st start in
  if String.exists (fun c -> c >= 'A' && c <= 'Z') name then
    String.lowercase_ascii name
  else name

let skip_spaces st =
  while st.pos < st.len && is_space (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done

(* Read an attribute value after '='.  Quoted or unquoted. *)
let read_attr_value st =
  skip_spaces st;
  if at st 0 '"' || at st 0 '\'' then begin
    let q = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    let start = st.pos in
    while st.pos < st.len && String.unsafe_get st.src st.pos <> q do
      st.pos <- st.pos + 1
    done;
    let v = take st start in
    if st.pos < st.len then st.pos <- st.pos + 1;
    Entity.decode v
  end
  else begin
    let start = st.pos in
    while
      st.pos < st.len
      &&
      let c = String.unsafe_get st.src st.pos in
      not (is_space c) && c <> '>'
    do
      st.pos <- st.pos + 1
    done;
    Entity.decode (take st start)
  end

(* Read attributes up to (but not consuming) '>' or end of input.  Returns
   the attribute list and whether the tag ends in '/'. *)
let read_attributes st =
  let attrs = ref [] in
  let self_closing = ref false in
  let continue = ref true in
  while !continue do
    skip_spaces st;
    if st.pos >= st.len || at st 0 '>' then continue := false
    else if at st 0 '/' then begin
      st.pos <- st.pos + 1;
      if at st 0 '>' then self_closing := true
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
  (List.rev !attrs, !self_closing)

let read_comment st =
  (* st.pos is just past "<!--". *)
  let close = find_ci st "-->" st.pos in
  let body = String.sub st.src st.pos (close - st.pos) in
  st.pos <- Int.min st.len (close + 3);
  emit st (Comment body)

let read_doctype_or_bogus st =
  (* st.pos is just past "<!". *)
  let close =
    match String.index_from_opt st.src st.pos '>' with
    | Some i -> i
    | None -> st.len
  in
  let body = String.sub st.src st.pos (close - st.pos) in
  st.pos <- Int.min st.len (close + 1);
  if String.length body >= 7
  && String.lowercase_ascii (String.sub body 0 7) = "doctype"
  then emit st (Doctype (String.trim body))
  else emit st (Comment body)

(* Consume the raw content of a raw-text element and its close tag. *)
let read_raw_text st name mode =
  let close_tag = "</" ^ name in
  let close = find_ci st close_tag st.pos in
  let body = String.sub st.src st.pos (close - st.pos) in
  (match mode with
   | `Verbatim -> if body <> "" then emit st (Text body)
   | `Decoded -> emit_text st body);
  if close < st.len then begin
    st.pos <- close;
    (* Consume "</name ... >". *)
    st.pos <- st.pos + String.length close_tag;
    let gt =
      match String.index_from_opt st.src st.pos '>' with
      | Some i -> i + 1
      | None -> st.len
    in
    st.pos <- gt;
    emit st (Close name)
  end else st.pos <- st.len

let read_open_tag st =
  (* st.pos is at the first character of the tag name. *)
  let name = read_name st in
  let attrs, self_closing = read_attributes st in
  if st.pos < st.len then st.pos <- st.pos + 1; (* consume '>' *)
  emit st (Open (name, attrs, self_closing));
  if not self_closing then
    match raw_text_mode name with
    | Some mode -> read_raw_text st name mode
    | None -> ()

let read_close_tag st =
  (* st.pos is just past "</". *)
  if name_start_at st 0 then begin
    let name = read_name st in
    (* Skip any junk up to '>'. *)
    let gt =
      match String.index_from_opt st.src st.pos '>' with
      | Some i -> i + 1
      | None -> st.len
    in
    st.pos <- gt;
    emit st (Close name)
  end
  else begin
    (* "</" followed by a non-name: browsers treat "</>" as nothing and
       "</ ..." as a bogus comment; we drop up to '>'. *)
    let gt =
      match String.index_from_opt st.src st.pos '>' with
      | Some i -> i + 1
      | None -> st.len
    in
    st.pos <- gt
  end

let tokenize src =
  let st = { src; len = String.length src; pos = 0; out = [] } in
  let text_start = ref 0 in
  let flush_text upto =
    if upto > !text_start then
      emit_text st (String.sub st.src !text_start (upto - !text_start))
  in
  while st.pos < st.len do
    if st.src.[st.pos] = '<' then begin
      let tag_kind =
        if name_start_at st 1 then `Open
        else if at st 1 '/' then `Close
        else if at st 1 '!' then
          if at st 2 '-' && at st 3 '-' then `Comment else `Declaration
        else if at st 1 '?' then `Processing
        else `NotATag
      in
      match tag_kind with
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
         | `Processing ->
           let gt =
             match String.index_from_opt st.src st.pos '>' with
             | Some i -> i + 1
             | None -> st.len
           in
           st.pos <- gt
         | `NotATag -> assert false);
        text_start := st.pos
    end else st.pos <- st.pos + 1
  done;
  flush_text st.len;
  List.rev st.out
