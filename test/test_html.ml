(* Unit tests for the HTML substrate: entities, lexer, tree builder,
   serializer. *)

module Entity = Wqi_html.Entity
module Lexer = Wqi_html.Lexer
module Dom = Wqi_html.Dom
module Parser = Wqi_html.Parser
module Printer = Wqi_html.Printer

(* ------------------------------------------------------------------ *)
(* Reference front end                                                *)
(* ------------------------------------------------------------------ *)

(* The HTML front end before the one-pass scanner, kept verbatim as the
   reference: character-reference decoding with the unbounded prefix
   search, the lexer that builds a token list, and the tree builder
   that walks it.  The property below checks that the library returns
   the same DOM on every input. *)
module Ref_entity = struct
  let lookup_named = Entity.lookup_named

  let utf8_of_code_point cp =
    let cp = if cp < 0 || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)
      then 0xFFFD else cp in
    let b = Buffer.create 4 in
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end;
    Buffer.contents b

  let is_alnum c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

  let is_digit c = c >= '0' && c <= '9'

  let is_hex_digit c =
    is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

  (* Parse one reference starting at [i] (s.[i] = '&').  Returns
     [Some (expansion, next_index)] or [None] when the text after '&' does not
     form a reference. *)
  let parse_reference s i =
    let n = String.length s in
    if i + 1 >= n then None
    else if s.[i + 1] = '#' then begin
      let hex = i + 2 < n && (s.[i + 2] = 'x' || s.[i + 2] = 'X') in
      let start = if hex then i + 3 else i + 2 in
      let valid = if hex then is_hex_digit else is_digit in
      let j = ref start in
      while !j < n && valid s.[!j] do incr j done;
      if !j = start then None
      else
        let digits = String.sub s start (!j - start) in
        let cp =
          try int_of_string ((if hex then "0x" else "") ^ digits)
          with Failure _ -> 0xFFFD
        in
        let next = if !j < n && s.[!j] = ';' then !j + 1 else !j in
        Some (utf8_of_code_point cp, next)
    end else begin
      let j = ref (i + 1) in
      while !j < n && is_alnum s.[!j] do incr j done;
      if !j = i + 1 then None
      else
        let name = String.sub s (i + 1) (!j - (i + 1)) in
        let lookup n =
          match lookup_named n with
          | Some _ as r -> r
          (* Browsers also try the lowercase form of legacy references. *)
          | None -> lookup_named (String.lowercase_ascii n)
        in
        match lookup name with
        | Some expansion ->
          let next = if !j < n && s.[!j] = ';' then !j + 1 else !j in
          Some (expansion, next)
        | None ->
          (* Without a semicolon, browsers match the longest known prefix
             ("&ltb" decodes as "<b"). *)
          let rec prefix k =
            if k < 2 then None
            else
              match lookup (String.sub name 0 k) with
              | Some expansion -> Some (expansion, i + 1 + k)
              | None -> prefix (k - 1)
          in
          prefix (String.length name - 1)
    end

  let decode s =
    if not (String.contains s '&') then s
    else begin
      let n = String.length s in
      let b = Buffer.create n in
      let i = ref 0 in
      while !i < n do
        if s.[!i] = '&' then
          match parse_reference s !i with
          | Some (expansion, next) ->
            Buffer.add_string b expansion;
            i := next
          | None ->
            Buffer.add_char b '&';
            incr i
        else begin
          Buffer.add_char b s.[!i];
          incr i
        end
      done;
      Buffer.contents b
    end
end

module Ref_lexer = struct
  module Entity = Ref_entity

  type token =
    | Text of string
    | Open of string * (string * string) list * bool
    | Close of string
    | Comment of string
    | Doctype of string

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
end

module Ref_parser = struct
  module Lexer = Ref_lexer

  let is_void = function
    | "area" | "base" | "br" | "col" | "embed" | "hr" | "img" | "input"
    | "link" | "meta" | "param" | "source" | "track" | "wbr" ->
      true
    | _ -> false

  (* For an incoming open tag [name], the set of currently-open element names
     it implicitly closes (checked innermost-first, repeatedly). *)
  let implicitly_closes name open_name =
    match name with
    | "li" -> open_name = "li"
    | "option" -> open_name = "option"
    | "optgroup" -> open_name = "option" || open_name = "optgroup"
    | "td" | "th" -> open_name = "td" || open_name = "th"
    | "tr" -> open_name = "td" || open_name = "th" || open_name = "tr"
    | "thead" | "tbody" | "tfoot" ->
      (match open_name with
       | "td" | "th" | "tr" | "thead" | "tbody" | "tfoot" -> true
       | _ -> false)
    | "p" | "div" | "table" | "form" | "ul" | "ol" | "h1" | "h2" | "h3"
    | "h4" | "h5" | "h6" | "hr" | "pre" | "blockquote" ->
      open_name = "p"
    | _ -> false

  (* Elements that stop the upward search when recovering from an unmatched
     close tag: we never close past these scoping boundaries. *)
  let is_scope_boundary = function
    | "html" | "body" | "table" | "td" | "th" -> true
    | _ -> false

  type frame = {
    f_name : string;
    f_attrs : (string * string) list;
    mutable f_children : Dom.t list; (* reversed *)
  }

  type builder = { mutable stack : frame list (* innermost first *) }

  let new_frame name attrs = { f_name = name; f_attrs = attrs; f_children = [] }

  let add_child b node =
    match b.stack with
    | top :: _ -> top.f_children <- node :: top.f_children
    | [] -> assert false

  let pop b =
    match b.stack with
    | top :: rest ->
      b.stack <- rest;
      add_child b
        (Dom.Element (top.f_name, top.f_attrs, List.rev top.f_children))
    | [] -> assert false

  let push b name attrs = b.stack <- new_frame name attrs :: b.stack

  let rec close_implicit b name =
    match b.stack with
    | top :: _ :: _ when implicitly_closes name top.f_name ->
      pop b;
      close_implicit b name
    | _ -> ()

  let handle_open b name attrs self_closing =
    match name with
    | "html" | "head" | "body" ->
      (* The skeleton is synthesized; ignore explicit skeleton tags but keep
         any attributes off (they do not matter for form extraction). *)
      ()
    | _ ->
      close_implicit b name;
      if is_void name || self_closing then
        add_child b (Dom.Element (name, attrs, []))
      else push b name attrs

  let handle_close b name =
    if name = "br" then add_child b (Dom.Element ("br", [], []))
    else if is_void name || name = "html" || name = "head" || name = "body"
    then ()
    else begin
      (* Search for a matching open element without crossing a scope
         boundary; if absent, ignore the close tag. *)
      let rec find_depth depth = function
        | [] -> None
        | f :: _ when f.f_name = name -> Some depth
        | f :: _ when is_scope_boundary f.f_name -> None
        | _ :: rest -> find_depth (depth + 1) rest
      in
      match find_depth 0 b.stack with
      | None -> ()
      | Some depth ->
        for _ = 0 to depth do
          pop b
        done
    end

  (* Text inside elements that only admit element children is dropped when it
     is pure whitespace, otherwise it is reparented conceptually; we keep it
     in place (the layout engine ignores inter-cell text anyway). *)
  let handle_text b s = add_child b (Dom.Text s)

  exception Out_of_budget

  let build ?gauge tokens =
    let root = new_frame "#root" [] in
    let b = { stack = [ root ] } in
    (* Charge one budget unit per node-creating markup token.  A trip
       stops consuming input; whatever was built so far is closed up and
       returned — tree construction degrades, it never fails. *)
    let spend () =
      match gauge with
      | None -> ()
      | Some g -> if not (Wqi_budget.Budget.html_node g) then raise Out_of_budget
    in
    (try
       List.iter
         (fun tok ->
            match tok with
            | Lexer.Text s ->
              spend ();
              handle_text b s
            | Lexer.Open (name, attrs, self) ->
              spend ();
              handle_open b name attrs self
            | Lexer.Close name -> handle_close b name
            | Lexer.Comment c ->
              spend ();
              add_child b (Dom.Comment c)
            | Lexer.Doctype _ -> ())
         tokens
     with Out_of_budget -> ());
    let rec close_all () =
      match b.stack with
      | _ :: _ :: _ ->
        pop b;
        close_all ()
      | [ _ ] | [] -> ()
    in
    close_all ();
    List.rev root.f_children

  let parse html =
    Dom.element "html" [ Dom.element "body" (build (Lexer.tokenize html)) ]
end

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- entities --- *)

let test_named_entities () =
  check "amp" "&" (Entity.decode "&amp;");
  check "lt-gt" "<tag>" (Entity.decode "&lt;tag&gt;");
  check "quote" "\"q\"" (Entity.decode "&quot;q&quot;");
  check "nbsp is utf8" "\xc2\xa0" (Entity.decode "&nbsp;")

let test_numeric_entities () =
  check "decimal" "A" (Entity.decode "&#65;");
  check "hex" "A" (Entity.decode "&#x41;");
  check "hex uppercase X" "A" (Entity.decode "&#X41;");
  check "two-byte" "\xc2\xa9" (Entity.decode "&#169;");
  check "three-byte" "\xe2\x82\xac" (Entity.decode "&#8364;");
  check "replacement for surrogate" "\xef\xbf\xbd" (Entity.decode "&#xD800;");
  check "replacement for out of range" "\xef\xbf\xbd"
    (Entity.decode "&#1114112;")

let test_entity_recovery () =
  check "bare ampersand kept" "a & b" (Entity.decode "a & b");
  check "unknown entity kept" "&bogus;" (Entity.decode "&bogus;");
  check "missing semicolon still decodes" "a<b" (Entity.decode "a&ltb");
  check "single pass" "&amp;" (Entity.decode "&amp;amp;");
  check "uppercase legacy name" "<" (Entity.decode "&LT;")

let test_entity_encode () =
  check "text escape" "a &amp; &lt;b&gt;" (Entity.encode_text "a & <b>");
  check "attribute escape" "say &quot;hi&quot;"
    (Entity.encode_attribute "say \"hi\"");
  check "text keeps quotes" "\"q\"" (Entity.encode_text "\"q\"");
  check "roundtrip" "a & <b>" (Entity.decode (Entity.encode_text "a & <b>"))

(* --- lexer --- *)

let tokens_of = Lexer.tokenize

let test_lexer_basic () =
  match tokens_of "<p>hi</p>" with
  | [ Lexer.Open ("p", [], false); Lexer.Text "hi"; Lexer.Close "p" ] -> ()
  | toks ->
    Alcotest.failf "unexpected tokens: %a"
      Fmt.(list ~sep:comma Lexer.pp_token)
      toks

let test_lexer_attributes () =
  match tokens_of {|<input type="text" NAME='q' checked size=20>|} with
  | [ Lexer.Open ("input", attrs, false) ] ->
    check "type" "text" (List.assoc "type" attrs);
    check "lowercased name" "q" (List.assoc "name" attrs);
    check "valueless" "" (List.assoc "checked" attrs);
    check "unquoted" "20" (List.assoc "size" attrs)
  | _ -> Alcotest.fail "expected one open tag"

let test_lexer_attribute_entities () =
  match tokens_of {|<a title="a&amp;b">|} with
  | [ Lexer.Open ("a", [ ("title", v) ], false) ] -> check "decoded" "a&b" v
  | _ -> Alcotest.fail "expected one open tag"

let test_lexer_self_closing () =
  match tokens_of "<br/>" with
  | [ Lexer.Open ("br", [], true) ] -> ()
  | _ -> Alcotest.fail "expected self-closing br"

let test_lexer_comment_doctype () =
  match tokens_of "<!DOCTYPE html><!-- note --><b>x</b>" with
  | [ Lexer.Doctype _; Lexer.Comment " note "; Lexer.Open ("b", [], false);
      Lexer.Text "x"; Lexer.Close "b" ] ->
    ()
  | toks ->
    Alcotest.failf "unexpected tokens: %a"
      Fmt.(list ~sep:comma Lexer.pp_token)
      toks

let test_lexer_raw_text () =
  (match tokens_of "<script>if (a < b) x();</script>" with
   | [ Lexer.Open ("script", [], false); Lexer.Text body; Lexer.Close "script" ]
     ->
     check "verbatim" "if (a < b) x();" body
   | _ -> Alcotest.fail "script content must be raw");
  match tokens_of "<textarea>a &amp; b</textarea>" with
  | [ Lexer.Open ("textarea", [], false); Lexer.Text body;
      Lexer.Close "textarea" ] ->
    check "decoded" "a & b" body
  | _ -> Alcotest.fail "textarea content must be text"

let test_lexer_recovery () =
  (match tokens_of "a < b" with
   | [ Lexer.Text t ] -> check "lone < is text" "a < b" t
   | _ -> Alcotest.fail "expected one text run");
  (match tokens_of "<p" with
   | [ Lexer.Open ("p", [], false) ] -> ()
   | _ -> Alcotest.fail "unterminated tag extends to eof");
  match tokens_of "<!-- unterminated" with
  | [ Lexer.Comment " unterminated" ] -> ()
  | _ -> Alcotest.fail "unterminated comment extends to eof"

let test_lexer_processing_instruction () =
  match tokens_of "<?xml version=\"1.0\"?>x" with
  | [ Lexer.Text "x" ] -> ()
  | _ -> Alcotest.fail "processing instructions are dropped"

(* --- tree builder --- *)

let body_of html =
  match Wqi_html.Parser.parse html with
  | Dom.Element ("html", _, [ (Dom.Element ("body", _, _) as body) ]) -> body
  | _ -> Alcotest.fail "expected html > body skeleton"

let test_parser_skeleton () =
  let body = body_of "hello" in
  check "text content" "hello" (Dom.text_content body)

let test_parser_nesting () =
  match Parser.parse_fragment "<div><b>x</b><i>y</i></div>" with
  | [ Dom.Element ("div", [], [ Dom.Element ("b", _, _); Dom.Element ("i", _, _) ]) ]
    ->
    ()
  | _ -> Alcotest.fail "bad nesting"

let test_parser_void_elements () =
  match Parser.parse_fragment "<p>a<br>b</p>" with
  | [ Dom.Element ("p", _, [ Dom.Text "a"; Dom.Element ("br", _, []); Dom.Text "b" ]) ]
    ->
    ()
  | _ -> Alcotest.fail "br must be void and stay inside p"

let test_parser_implicit_li () =
  match Parser.parse_fragment "<ul><li>a<li>b</ul>" with
  | [ Dom.Element ("ul", _, [ Dom.Element ("li", _, _); Dom.Element ("li", _, _) ]) ]
    ->
    ()
  | _ -> Alcotest.fail "li must close previous li"

let test_parser_implicit_cells () =
  match Parser.parse_fragment "<table><tr><td>a<td>b<tr><td>c</table>" with
  | [ Dom.Element
        ( "table", _,
          [ Dom.Element ("tr", _, [ Dom.Element ("td", _, _); Dom.Element ("td", _, _) ]);
            Dom.Element ("tr", _, [ Dom.Element ("td", _, _) ]) ] ) ] ->
    ()
  | frag ->
    Alcotest.failf "bad table recovery: %a" Fmt.(list ~sep:comma Dom.pp) frag

let test_parser_implicit_option () =
  match Parser.parse_fragment "<select><option>a<option>b</select>" with
  | [ Dom.Element ("select", _, opts) ] -> check_int "options" 2 (List.length opts)
  | _ -> Alcotest.fail "bad select recovery"

let test_parser_p_closed_by_block () =
  match Parser.parse_fragment "<p>a<div>b</div>" with
  | [ Dom.Element ("p", _, [ Dom.Text "a" ]); Dom.Element ("div", _, _) ] -> ()
  | frag ->
    Alcotest.failf "p must close before div: %a"
      Fmt.(list ~sep:comma Dom.pp)
      frag

let test_parser_mismatched_close () =
  match Parser.parse_fragment "<b>x</i>y</b>" with
  | [ Dom.Element ("b", _, [ Dom.Text "x"; Dom.Text "y" ]) ] -> ()
  | _ -> Alcotest.fail "stray close tags are ignored"

let test_parser_close_scope_boundary () =
  (* A </div> inside a table cell must not close a div outside it. *)
  match
    Parser.parse_fragment "<div><table><tr><td>x</div>y</td></tr></table></div>"
  with
  | [ Dom.Element ("div", _, _) ] -> ()
  | frag ->
    Alcotest.failf "close must stop at cell boundary: %a"
      Fmt.(list ~sep:comma Dom.pp)
      frag

let test_parser_close_br () =
  match Parser.parse_fragment "a</br>b" with
  | [ Dom.Text "a"; Dom.Element ("br", _, _); Dom.Text "b" ] -> ()
  | _ -> Alcotest.fail "</br> behaves like <br>"

let test_dom_helpers () =
  let doc = Wqi_html.Parser.parse {|<div id="d"><span>one</span> two</div>|} in
  let div = Option.get (Dom.find_first (Dom.is_element ~named:"div") doc) in
  check "attr" "d" (Dom.attr_default "id" ~default:"?" div);
  check_bool "has_attr" true (Dom.has_attr "id" div);
  check "text content" "one two" (Dom.text_content div);
  check_int "find_all spans" 1
    (List.length (Dom.find_all (Dom.is_element ~named:"span") doc));
  check_int "fold counts nodes" 6 (Dom.fold (fun n _ -> n + 1) 0 doc)

(* --- printer --- *)

let test_printer_roundtrip () =
  let fragment = "<div class=\"x\"><p>a &amp; b</p><br><input type=\"text\"></div>" in
  let parsed = Parser.parse_fragment fragment in
  check "serialize" fragment (Printer.fragment_to_string parsed)

let test_printer_escapes () =
  let node = Dom.element "p" ~attrs:[ ("title", "a\"b") ] [ Dom.text "x<y" ] in
  check "escaped" "<p title=\"a&quot;b\">x&lt;y</p>" (Printer.to_string node)

let test_printer_void_no_close () =
  let node = Dom.element "img" ~attrs:[ ("src", "a.gif") ] [] in
  check "void" "<img src=\"a.gif\">" (Printer.to_string node)

(* --- one-pass front end against the reference --- *)

module Q = QCheck
module Gen = QCheck.Gen

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The library's and the reference lexer's tokens as comparable data. *)
let token_view = function
  | Lexer.Text s -> `Text s
  | Lexer.Open (n, a, self) -> `Open (n, a, self)
  | Lexer.Close n -> `Close n
  | Lexer.Comment s -> `Comment s
  | Lexer.Doctype s -> `Doctype s

let ref_token_view = function
  | Ref_lexer.Text s -> `Text s
  | Ref_lexer.Open (n, a, self) -> `Open (n, a, self)
  | Ref_lexer.Close n -> `Close n
  | Ref_lexer.Comment s -> `Comment s
  | Ref_lexer.Doctype s -> `Doctype s

(* The front end returns the reference's DOM (and, through
   [Lexer.tokenize], its tokens) and does not raise. *)
let same_as_reference html =
  match Parser.parse html, Lexer.tokenize html with
  | dom, tokens ->
    dom = Ref_parser.parse html
    && List.map token_view tokens
       = List.map ref_token_view (Ref_lexer.tokenize html)
  | exception _ -> false

let read_file path = In_channel.with_open_bin path In_channel.input_all

let html_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".html")
  |> List.sort String.compare
  |> List.map (fun f -> read_file (Filename.concat dir f))

(* Seed documents: generated forms, the example fixtures, the golden
   inputs and the hand-written replicas. *)
let seeds =
  lazy
    (let g = Wqi_corpus.Prng.create 0x4854_4D4CL in
     let domains = Array.of_list Wqi_corpus.Vocabulary.all in
     let generated =
       List.init 40 (fun i ->
           (Wqi_corpus.Generator.generate g
              ~id:(Printf.sprintf "html-%02d" i)
              ~domain:domains.(i mod Array.length domains)
              ~complexity:(if i mod 2 = 0 then `Simple else `Rich)
              ~oog_prob:0.1 ~header_prob:0.2 ())
             .Wqi_corpus.Generator.html)
     in
     Array.of_list
       (generated
        @ html_files "../examples/fixtures"
        @ html_files "golden"
        @ List.map (fun (f : Fixtures.fixture) -> f.Fixtures.html) Fixtures.all))

(* Markup fragments that exercise the recovery paths. *)
let snippets =
  [ "<"; "</"; ">"; "/>"; "&"; "&amp"; "&amp;"; "&lt"; "&#"; "&#x"; "&#65;";
    "&#xZZ;"; "&copyright"; "&NBSP;"; "&#99999999999999999999;"; "<!--";
    "-->"; "<!DOCTYPE html>"; "<!x>"; "<?pi?>"; "<td>"; "</td>"; "<tr>";
    "</tr>"; "<table>"; "</table>"; "<th>"; "</div>"; "<div>"; "</span>";
    "<span>"; "<p>"; "</p>"; "<li>"; "</li>"; "<option>"; "<optgroup>";
    "<select>"; "</select>"; "<script>"; "</script>"; "<style>"; "<title>";
    "</TITLE>"; "<textarea>"; "</textarea>"; "<br>"; "</br>"; "<input ";
    " type=radio"; " value='a&b'"; " checked"; "=\""; "\""; "'"; "</html>";
    "<body>"; "<HEAD>"; "<Table Border=1>"; "<x-custom:tag a_b=1>";
    "</x-custom:tag>"; " "; "\n"; "\t" ]

let chars s = List.of_seq (String.to_seq s)

let mutate g doc =
  let n = String.length doc in
  let pos () = Gen.int_bound n g in
  let cut a b = String.sub doc a (b - a) in
  match Gen.int_bound 6 g with
  | 0 ->
    let p = pos () in
    cut 0 p ^ Gen.oneofl snippets g ^ cut p n
  | 1 ->
    let p = pos () in
    let q = Int.min n (p + Gen.int_bound 24 g) in
    cut 0 p ^ cut q n
  | 2 ->
    let p = pos () in
    let q = Int.min n (p + Gen.int_bound 40 g) in
    cut 0 q ^ cut p n
  | 3 -> cut 0 (pos ())
  | 4 ->
    let p = pos () in
    let q = Int.min n (p + Gen.int_bound 16 g) in
    cut 0 p ^ String.uppercase_ascii (cut p q) ^ cut q n
  | 5 ->
    let p = pos () in
    if p >= n then doc
    else
      cut 0 p
      ^ String.make 1 (Gen.oneofl (chars "<>/&;#=\"' !-?xX0a") g)
      ^ cut (p + 1) n
  | _ ->
    String.concat "" (Gen.list_size (Gen.int_bound 30) (Gen.oneofl snippets) g)

let seed_gen g =
  let seeds = Lazy.force seeds in
  seeds.(Gen.int_bound (Array.length seeds - 1) g)

(* Seed documents as they are, mutated up to six times, snippet soup,
   and short strings over markup bytes. *)
let html_gen =
  Gen.(
    frequency
      [ (1, seed_gen);
        (6,
         fun g ->
           let doc = ref (seed_gen g) in
           for _ = 0 to int_bound 5 g do
             doc := mutate g !doc
           done;
           !doc);
        (3, map (String.concat "") (list_size (int_bound 40) (oneofl snippets)));
        (1,
         string_size ~gen:(oneofl (chars "<>/&;#ab= \"'!-tdr")) (int_bound 80))
      ])

let prop_front_end_matches_reference =
  Q.Test.make ~name:"front end = reference lexer + builder, never raises"
    ~count:1500
    (Q.make
       ~print:(fun s ->
           if String.length s <= 2000 then Printf.sprintf "%S" s
           else
             Printf.sprintf "%S... (%d bytes)" (String.sub s 0 2000)
               (String.length s))
       html_gen)
    same_as_reference

let prop_entity_matches_reference =
  Q.Test.make ~name:"Entity.decode = reference decode" ~count:3000
    Q.(make ~print:Print.string
         Gen.(
           string_size
             ~gen:(oneofl (chars "&#;xXaAmMpPlLtTgqocyrNBS0189 "))
             (int_bound 24)))
    (fun s -> String.equal (Entity.decode s) (Ref_entity.decode s))

let test_seeds_match_reference () =
  Array.iteri
    (fun i html ->
       if not (same_as_reference html) then
         Alcotest.failf "seed document %d: DOM differs from the reference" i)
    (Lazy.force seeds)

(* An unknown reference with a long name: the prefix search stops at
   the longest entity name, so decoding is linear in the name. *)
let test_entity_long_name () =
  let name = String.make 200_000 'a' in
  let decoded, dt = time (fun () -> Entity.decode ("&" ^ name)) in
  check_bool "kept verbatim" true (String.equal decoded ("&" ^ name));
  let dom, dt' =
    time (fun () -> Parser.parse_fragment ("<p title=\"&" ^ name ^ "\">x</p>"))
  in
  (match dom with
   | [ Dom.Element ("p", [ ("title", v) ], _) ] ->
     check_bool "attribute kept" true (String.equal v ("&" ^ name))
   | _ -> Alcotest.fail "expected one p");
  check "known prefix" "\xc2\xa9rightxyz" (Entity.decode "&copyrightxyz");
  check "prefix of a long name" ("&" ^ String.make 50 'x')
    (Entity.decode ("&amp" ^ String.make 50 'x'));
  check_bool
    (Printf.sprintf "200,000 letters decode in %.3f s + %.3f s (< 0.5 s)" dt dt')
    true (dt +. dt' < 0.5)

(* Unmatched close tags under a deep stack: finding a close tag's
   target does not walk the stack. *)
let test_close_tags_linear () =
  let n = 20_000 in
  let repeat k s = String.concat "" (List.init k (fun _ -> s)) in
  let html = repeat n "<div>" ^ repeat n "</span>" ^ "x" in
  let frag, dt = time (fun () -> Parser.parse_fragment html) in
  let rec depth d = function
    | [ Dom.Element ("div", [], children) ] -> depth (d + 1) children
    | [ Dom.Text "x" ] -> d
    | _ -> -1
  in
  check_int "20,000 nested divs, text innermost" n (depth 0 frag);
  check_bool (Printf.sprintf "parsed in %.3f s (< 1 s)" dt) true (dt < 1.0);
  (* Small cases of the same shapes match the reference builder. *)
  for k = 0 to 24 do
    List.iter
      (fun html ->
         if not (same_as_reference html) then
           Alcotest.failf "differs from the reference: %S" html)
      [ repeat k "<div>" ^ repeat k "</span>";
        repeat k "<div><span>" ^ repeat k "</div>";
        repeat k "<b><table><tr><td>" ^ repeat k "</b></div>" ^ "</table>y";
        repeat k "<span>" ^ "<td>" ^ repeat k "</span>" ^ repeat k "</td>";
        repeat k "<x-a><p>" ^ repeat (k / 2) "</x-a>" ^ repeat k "</p>z" ]
  done

let suite =
  [ ("entities: named", `Quick, test_named_entities);
    ("entities: numeric", `Quick, test_numeric_entities);
    ("entities: recovery", `Quick, test_entity_recovery);
    ("entities: encoding", `Quick, test_entity_encode);
    ("lexer: basic", `Quick, test_lexer_basic);
    ("lexer: attributes", `Quick, test_lexer_attributes);
    ("lexer: attribute entities", `Quick, test_lexer_attribute_entities);
    ("lexer: self-closing", `Quick, test_lexer_self_closing);
    ("lexer: comment and doctype", `Quick, test_lexer_comment_doctype);
    ("lexer: raw text elements", `Quick, test_lexer_raw_text);
    ("lexer: recovery", `Quick, test_lexer_recovery);
    ("lexer: processing instruction", `Quick, test_lexer_processing_instruction);
    ("parser: skeleton", `Quick, test_parser_skeleton);
    ("parser: nesting", `Quick, test_parser_nesting);
    ("parser: void elements", `Quick, test_parser_void_elements);
    ("parser: implicit li", `Quick, test_parser_implicit_li);
    ("parser: implicit cells", `Quick, test_parser_implicit_cells);
    ("parser: implicit option", `Quick, test_parser_implicit_option);
    ("parser: p closed by block", `Quick, test_parser_p_closed_by_block);
    ("parser: mismatched close", `Quick, test_parser_mismatched_close);
    ("parser: close scope boundary", `Quick, test_parser_close_scope_boundary);
    ("parser: close br", `Quick, test_parser_close_br);
    ("dom: helpers", `Quick, test_dom_helpers);
    ("printer: roundtrip", `Quick, test_printer_roundtrip);
    ("printer: escapes", `Quick, test_printer_escapes);
    ("printer: void", `Quick, test_printer_void_no_close);
    ("front end: seed documents = reference", `Quick,
     test_seeds_match_reference);
    QCheck_alcotest.to_alcotest prop_front_end_matches_reference;
    QCheck_alcotest.to_alcotest prop_entity_matches_reference;
    ("entities: long unknown name is linear", `Quick, test_entity_long_name);
    ("parser: unmatched close tags are linear", `Quick, test_close_tags_linear) ]
