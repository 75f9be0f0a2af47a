(* One pass over the raw bytes; no DOM.  The hash chain mixes typed
   events (open tag / close tag / attributes / text) with distinct
   separator bytes so reorderings across event kinds cannot collide by
   concatenation. *)

let is_space = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = ':'

(* One FNV-1a/64 step, the one [Key.fold] takes per byte.  Repeated
   here because modules are compiled separately: a call into [Key] per
   byte would box the 64-bit state on every return. *)
let[@inline] step h c =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) Key.fnv_prime

(* Fold [s.[lo..hi)] into [h] with whitespace runs collapsed to one
   space, letters lowercased and leading/trailing whitespace dropped;
   returns [h] unchanged when the slice is pure whitespace.  The state
   stays in a local, so nothing is allocated per byte. *)
let fold_collapsed h s lo hi =
  let h = ref h in
  let pending_space = ref false in
  let emitted = ref false in
  for i = lo to hi - 1 do
    let c = s.[i] in
    if is_space c then (if !emitted then pending_space := true)
    else begin
      if !pending_space then begin
        h := step !h ' ';
        pending_space := false
      end;
      h := step !h (Char.lowercase_ascii c);
      emitted := true
    end
  done;
  !h

let rec skip_until s i sub =
  let n = String.length s and m = String.length sub in
  if i + m > n then n
  else if String.sub s i m = sub then i + m
  else skip_until s (i + 1) sub

type mode = Structural | Shape

let scan mode html =
  let n = String.length html in
  let h = ref (Key.fingerprint "sig1\x00") in
  let text_start = ref 0 in
  (* Whitespace-only regions are formatting, not content: emitting an
     event for them would make indentation and blank lines between
     elements signature-relevant, defeating the dedup. *)
  let text_event lo hi =
    if mode = Structural then begin
      let has_content = ref false in
      for i = lo to hi - 1 do
        if not (is_space html.[i]) then has_content := true
      done;
      if !has_content then begin
        h := Key.fold !h "\x01";  (* text event *)
        h := fold_collapsed !h html lo hi
      end
    end
  in
  let flush_text upto = text_event !text_start upto in
  let i = ref 0 in
  while !i < n do
    let c = html.[!i] in
    if c = '<' && !i + 1 < n then begin
      let next = html.[!i + 1] in
      if next = '!' || next = '?' then begin
        flush_text !i;
        (* Comment, doctype or PI: skip without recording. *)
        let j =
          if !i + 3 < n && html.[!i + 1] = '!' && html.[!i + 2] = '-'
             && html.[!i + 3] = '-'
          then skip_until html (!i + 4) "-->"
          else
            match String.index_from_opt html (!i + 1) '>' with
            | Some j -> j + 1
            | None -> n
        in
        i := j;
        text_start := j
      end
      else if next = '/' || is_name_char next then begin
        flush_text !i;
        let closing = next = '/' in
        let name_start = if closing then !i + 2 else !i + 1 in
        let j = ref name_start in
        while !j < n && is_name_char html.[!j] do incr j done;
        let name = String.lowercase_ascii
            (String.sub html name_start (!j - name_start))
        in
        h := Key.fold !h (if closing then "\x03/" else "\x02");
        h := Key.fold !h name;
        (* Scan to the closing '>' respecting quoted attribute values
           (which may contain '>'); hash the attribute text in
           structural mode. *)
        let attr_start = !j in
        let quote = ref '\000' in
        while
          !j < n
          && (html.[!j] <> '>' || !quote <> '\000')
        do
          let d = html.[!j] in
          if !quote <> '\000' then (if d = !quote then quote := '\000')
          else if d = '"' || d = '\'' then quote := d;
          incr j
        done;
        if mode = Structural && !j > attr_start then begin
          h := Key.fold !h "\x04";  (* attribute event *)
          h := fold_collapsed !h html attr_start !j
        end;
        let after = if !j < n then !j + 1 else n in
        (* Raw-text elements: their content is character data, not
           markup — hash it as text and skip to the matching close. *)
        (match name with
         | ("script" | "style" | "textarea") when not closing ->
           let close = "</" ^ name in
           let rec find_close k =
             if k + String.length close > n then n
             else if
               String.lowercase_ascii
                 (String.sub html k (String.length close))
               = close
             then k
             else find_close (k + 1)
           in
           let stop = find_close after in
           text_event after stop;
           i := stop;
           text_start := stop
         | _ ->
           i := after;
           text_start := after)
      end
      else begin
        (* '<' that opens no tag: plain text. *)
        incr i
      end
    end
    else incr i
  done;
  flush_text n;
  !h

let structural html = scan Structural html

let shape html = scan Shape html
