let named_entities =
  [ ("amp", "&"); ("lt", "<"); ("gt", ">"); ("quot", "\""); ("apos", "'");
    ("nbsp", "\xc2\xa0"); ("copy", "\xc2\xa9"); ("reg", "\xc2\xae");
    ("trade", "\xe2\x84\xa2"); ("deg", "\xc2\xb0"); ("middot", "\xc2\xb7");
    ("bull", "\xe2\x80\xa2"); ("hellip", "\xe2\x80\xa6");
    ("mdash", "\xe2\x80\x94"); ("ndash", "\xe2\x80\x93");
    ("lsquo", "\xe2\x80\x98"); ("rsquo", "\xe2\x80\x99");
    ("ldquo", "\xe2\x80\x9c"); ("rdquo", "\xe2\x80\x9d");
    ("laquo", "\xc2\xab"); ("raquo", "\xc2\xbb");
    ("cent", "\xc2\xa2"); ("pound", "\xc2\xa3"); ("yen", "\xc2\xa5");
    ("euro", "\xe2\x82\xac"); ("sect", "\xc2\xa7"); ("para", "\xc2\xb6");
    ("plusmn", "\xc2\xb1"); ("times", "\xc3\x97"); ("divide", "\xc3\xb7");
    ("frac12", "\xc2\xbd"); ("frac14", "\xc2\xbc"); ("frac34", "\xc2\xbe");
    ("iexcl", "\xc2\xa1"); ("iquest", "\xc2\xbf"); ("szlig", "\xc3\x9f");
    ("agrave", "\xc3\xa0"); ("aacute", "\xc3\xa1"); ("acirc", "\xc3\xa2");
    ("atilde", "\xc3\xa3"); ("auml", "\xc3\xa4"); ("aring", "\xc3\xa5");
    ("aelig", "\xc3\xa6"); ("ccedil", "\xc3\xa7"); ("egrave", "\xc3\xa8");
    ("eacute", "\xc3\xa9"); ("ecirc", "\xc3\xaa"); ("euml", "\xc3\xab");
    ("igrave", "\xc3\xac"); ("iacute", "\xc3\xad"); ("icirc", "\xc3\xae");
    ("iuml", "\xc3\xaf"); ("ntilde", "\xc3\xb1"); ("ograve", "\xc3\xb2");
    ("oacute", "\xc3\xb3"); ("ocirc", "\xc3\xb4"); ("otilde", "\xc3\xb5");
    ("ouml", "\xc3\xb6"); ("oslash", "\xc3\xb8"); ("ugrave", "\xc3\xb9");
    ("uacute", "\xc3\xba"); ("ucirc", "\xc3\xbb"); ("uuml", "\xc3\xbc") ]

module String_map = Map.Make (String)

let named_table =
  List.fold_left
    (fun m (k, v) -> String_map.add k v m)
    String_map.empty named_entities

let lookup_named name = String_map.find_opt name named_table

(* Encode a Unicode scalar value as UTF-8, substituting U+FFFD for invalid
   code points, as browsers do for numeric references. *)
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

(* The longest name in [named_entities]: no longer name can match, so
   neither the whole-name lookup nor the prefix fallback looks past it. *)
let max_name_length =
  List.fold_left (fun m (k, _) -> Int.max m (String.length k)) 0 named_entities

(* Parse one reference starting at [i] (s.[i] = '&'), reading no byte at
   or past [stop].  Returns [Some (expansion, next_index)] or [None] when
   the text after '&' does not form a reference. *)
let parse_reference s i stop =
  let n = stop in
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
    let len = !j - (i + 1) in
    if len = 0 then None
    else
      let lookup k =
        let n = String.sub s (i + 1) k in
        match lookup_named n with
        | Some _ as r -> r
        (* Browsers also try the lowercase form of legacy references. *)
        | None -> lookup_named (String.lowercase_ascii n)
      in
      match if len <= max_name_length then lookup len else None with
      | Some expansion ->
        let next = if !j < n && s.[!j] = ';' then !j + 1 else !j in
        Some (expansion, next)
      | None ->
        (* Without a semicolon, browsers match the longest known prefix
           ("&ltb" decodes as "<b"). *)
        let rec prefix k =
          if k < 2 then None
          else
            match lookup k with
            | Some expansion -> Some (expansion, i + 1 + k)
            | None -> prefix (k - 1)
        in
        prefix (Int.min (len - 1) max_name_length)
  end

let decode_sub s ~pos ~len =
  let b = Buffer.create len in
  let stop = pos + len in
  let i = ref pos in
  while !i < stop do
    let c = String.unsafe_get s !i in
    if c = '&' then
      match parse_reference s !i stop with
      | Some (expansion, next) ->
        Buffer.add_string b expansion;
        i := next
      | None ->
        Buffer.add_char b '&';
        incr i
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  Buffer.contents b

let decode s =
  if not (String.contains s '&') then s
  else decode_sub s ~pos:0 ~len:(String.length s)

let encode_with escapes s =
  let needs_escape c = List.mem_assoc c escapes in
  if String.exists needs_escape s then begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
         match List.assoc_opt c escapes with
         | Some e -> Buffer.add_string b e
         | None -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end else s

let encode_text =
  encode_with [ ('&', "&amp;"); ('<', "&lt;"); ('>', "&gt;") ]

let encode_attribute =
  encode_with
    [ ('&', "&amp;"); ('<', "&lt;"); ('>', "&gt;"); ('"', "&quot;") ]
