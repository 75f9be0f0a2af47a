(* See json.mli.  Both halves work on one buffer or one string window and
   keep their per-byte loops here, so a client's call costs one call per
   value, not one per byte. *)

(* ------------------------------------------------------------------ *)
(* Writing                                                            *)
(* ------------------------------------------------------------------ *)

let hex = "0123456789abcdef"

(* The first index at or after [i] whose byte JSON must escape, or
   [String.length s]. *)
let rec plain_until s i =
  if i >= String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> plain_until s (i + 1)

(* From the escapable byte at [i] on: plain runs are copied one blit
   each, each escapable byte as its escape. *)
let rec add_escaped b s i =
  let n = String.length s in
  if i < n then begin
    (match String.unsafe_get s i with
     | '"' -> Buffer.add_string b "\\\""
     | '\\' -> Buffer.add_string b "\\\\"
     | '\n' -> Buffer.add_string b "\\n"
     | '\r' -> Buffer.add_string b "\\r"
     | '\t' -> Buffer.add_string b "\\t"
     | c ->
       Buffer.add_string b "\\u00";
       Buffer.add_char b hex.[Char.code c lsr 4];
       Buffer.add_char b hex.[Char.code c land 0xf]);
    let j = plain_until s (i + 1) in
    Buffer.add_substring b s (i + 1) (j - i - 1);
    add_escaped b s j
  end

(* A string with nothing to escape — nearly every label — is one blit,
   after one scan and no closure. *)
let add_string b s =
  Buffer.add_char b '"';
  let i = plain_until s 0 in
  Buffer.add_substring b s 0 i;
  add_escaped b s i;
  Buffer.add_char b '"'

(* Decimal digits straight into the buffer, no string per number. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (Int.to_string n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

external format_float : string -> float -> string = "caml_format_float"

let add_float b f =
  Buffer.add_string b
    (format_float
       (if Float.is_integer f && Float.abs f < 1e15 then "%.0f" else "%.12g")
       f)

let add_field b ~first key =
  if not first then Buffer.add_string b ", ";
  add_string b key;
  Buffer.add_string b ": "

let add_list b add items =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
       if i > 0 then Buffer.add_string b ", ";
       add b x)
    items;
  Buffer.add_char b ']'

let render ?(size = 64) add v =
  let b = Buffer.create size in
  add b v;
  Buffer.contents b

let string s = render ~size:(String.length s + 2) add_string s

let float f = render ~size:16 add_float f

let obj fields =
  render
    (fun b fields ->
       Buffer.add_char b '{';
       List.iteri
         (fun i (k, v) ->
            add_field b ~first:(i = 0) k;
            Buffer.add_string b v)
         fields;
       Buffer.add_char b '}')
    fields

(* ------------------------------------------------------------------ *)
(* Reading                                                            *)
(* ------------------------------------------------------------------ *)

exception Malformed

type value = Str | Int | Num

type reader = {
  src : string;
  hi : int;
  mutable pos : int;
  mutable lo : int;
  mutable stop : int;
  mutable esc : bool;
  mutable kind : value;
  mutable int : int;
  mutable num : float;
}

let[@inline] malformed () = raise_notrace Malformed

let[@inline] peek r =
  if r.pos < r.hi then String.unsafe_get r.src r.pos else malformed ()

let rec skip_run s i hi =
  if i < hi
  && (match String.unsafe_get s i with ' ' | '\t' -> true | _ -> false)
  then skip_run s (i + 1) hi
  else i

(* Written lines hold no whitespace, so the usual cost is one test. *)
let[@inline] skip_ws r =
  let p = r.pos in
  if p < r.hi then
    match String.unsafe_get r.src p with
    | ' ' | '\t' -> r.pos <- skip_run r.src (p + 1) r.hi
    | _ -> ()

let[@inline] expect r c =
  skip_ws r;
  if peek r <> c then malformed ();
  r.pos <- r.pos + 1

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* The value of [n] hex digits at [s.[i]], as [int_of_string] reads
   them after a "0x": the first a digit, each later one a digit or an
   ignored '_'.  -1 when they are not. *)
let hex_run s i n =
  if hex_digit (String.unsafe_get s i) < 0 then -1
  else begin
    let v = ref 0 and ok = ref true in
    for j = i to i + n - 1 do
      match String.unsafe_get s j with
      | '_' -> ()
      | c ->
        let d = hex_digit c in
        if d < 0 then ok := false else v := (!v lsl 4) lor d
    done;
    if !ok then !v else -1
  end

(* The first index at or after [i] of a '"', a '\\' or a '\n', or
   [hi]: the plain run of a string body. *)
let rec body_run s i hi =
  if i < hi then
    match String.unsafe_get s i with
    | '"' | '\\' | '\n' -> i
    | _ -> body_run s (i + 1) hi
  else i

(* The rest of the body that starts at [lo], from [i]: plain runs
   skipped in one loop each, escapes checked (and decoded later by
   [unescape]), a '\n' malformed when [eol] (reading a line: a '\n'
   ends it). *)
let rec scan_body eol r lo i esc =
  let s = r.src and hi = r.hi in
  let i = body_run s i hi in
  if i >= hi then malformed ();
  match String.unsafe_get s i with
  | '"' ->
    r.lo <- lo;
    r.stop <- i;
    r.esc <- esc;
    r.pos <- i + 1
  | '\n' -> if eol then malformed () else scan_body eol r lo (i + 1) esc
  | _ ->
    let i = i + 1 in
    if i >= hi then malformed ();
    (match String.unsafe_get s i with
     | 'n' | 't' | 'r' | '"' | '\\' | '/' -> scan_body eol r lo (i + 1) true
     | 'u' ->
       if i + 4 >= hi then malformed ();
       let code = hex_run s (i + 1) 4 in
       if code < 0 || code >= 256 then malformed ();
       scan_body eol r lo (i + 5) true
     | _ -> malformed ())

(* Advance past the string whose opening quote is at [r.pos], leaving
   its body in [r.lo .. r.stop) and whether it holds an escape in
   [r.esc]. *)
let scan_string eol r =
  if peek r <> '"' then malformed ();
  scan_body eol r (r.pos + 1) (r.pos + 1) false

(* The bytes of a checked string body [s.[lo .. hi)] with its escapes
   decoded. *)
let unescape s lo hi =
  let b = Buffer.create (hi - lo) in
  let i = ref lo in
  while !i < hi do
    (match String.unsafe_get s !i with
     | '\\' ->
       incr i;
       (match String.unsafe_get s !i with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          Buffer.add_char b (Char.chr (hex_run s (!i + 1) 4));
          i := !i + 4
        | c -> Buffer.add_char b c)
     | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let string_value r =
  if r.esc then unescape r.src r.lo r.stop
  else String.sub r.src r.lo (r.stop - r.lo)

(* 10^0 .. 10^22: every power of ten a double holds exactly. *)
let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* Digits accumulate up to this bound and then stop: the bound times 10
   plus 9 is still an [int], every 18-digit run stays below it, and a
   value held at it is past 2^53. *)
let saturated = max_int / 10

let rec token_end s i hi =
  if i < hi
  && (match String.unsafe_get s i with
      | '0' .. '9' | '+' | '-' | '.' | 'e' | 'E' -> true
      | _ -> false)
  then token_end s (i + 1) hi
  else i

(* The token in [r.src.[start .. stop)] through the stdlib: as
   [int_of_string_opt], else [float_of_string_opt], would decode it. *)
let slow_number r start stop =
  let s = String.sub r.src start (stop - start) in
  match int_of_string_opt s with
  | Some v ->
    r.int <- v;
    Int
  | None ->
    (match float_of_string_opt s with
     | Some x when Float.is_finite x ->
       r.num <- x;
       Num
     | Some _ | None -> malformed ())

(* A number token: the bytes [0-9+-.eE], decoded as [int_of_string_opt],
   else [float_of_string_opt], would decode them.  Two shapes are
   decoded in place, with no substring:
   - a run of at most 18 digits, an [Int];
   - [digits.digits] with at most 22 fraction digits and all its digits,
     read as one integer [w], at most 2^53: [float w /. 10^k] for [k]
     fraction digits.  Both operands are exact doubles, so the one
     correctly rounded division is the correctly rounded value of the
     decimal (Clinger's fast path), which [float_of_string] returns.
   Any other token goes through the stdlib.  The first loop reads the
   digits and at most one '.' after a digit; [token_end] takes the rest
   of the token, if any. *)
let number r =
  let s = r.src and hi = r.hi and start = r.pos in
  let i = ref start and w = ref 0 and dot = ref (-1) in
  while
    !i < hi
    &&
    match String.unsafe_get s !i with
    | '0' .. '9' as c ->
      if !w < saturated then w := (!w * 10) + (Char.code c - 48);
      true
    | '.' when !dot < 0 && !i > start ->
      dot := !i;
      true
    | _ -> false
  do incr i done;
  let run = !i in
  let stop = token_end s run hi in
  if stop = start then malformed ();
  r.pos <- stop;
  r.lo <- start;
  if stop <> run then slow_number r start stop
  else if !dot < 0 then
    if run - start <= 18 then begin
      r.int <- !w;
      Int
    end
    else slow_number r start stop
  else
    let k = run - !dot - 1 in
    if k >= 1 && k <= 22 && !w <= 1 lsl 53 then begin
      r.num <- float_of_int !w /. Array.unsafe_get pow10 k;
      Num
    end
    else slow_number r start stop

(* Whether [name] lies at [s.[at ..]], the length checked by the
   caller. *)
let rec same s at name j =
  j = String.length name
  || (String.unsafe_get s (at + j) = String.unsafe_get name j
      && same s at name (j + 1))

(* The index in [names] of the name in [s.[at .. at + len)], or -1. *)
let rec find names s at len i =
  if i = Array.length names then -1
  else
    let name = Array.unsafe_get names i in
    if String.length name = len && same s at name 0 then i
    else find names s at len (i + 1)

(* The id of the member name at [r.pos], tried first against
   [names.(guess)]: when the guess's bytes and a closing quote lie
   there, the name is read in that one pass, as [scan_string] would
   have read it.  That holds because a schema's names hold no quote,
   backslash or newline, so no byte equal to one of theirs ends or
   escapes a string body. *)
let field eol names r guess =
  if peek r <> '"' then malformed ();
  let s = r.src and at = r.pos + 1 in
  let len =
    if guess < Array.length names then
      String.length (Array.unsafe_get names guess)
    else -1
  in
  if len >= 0
  && at + len < r.hi
  && String.unsafe_get s (at + len) = '"'
  && same s at (Array.unsafe_get names guess) 0
  then begin
    r.lo <- at;
    r.stop <- at + len;
    r.esc <- false;
    r.pos <- at + len + 1;
    guess
  end
  else begin
    scan_string eol r;
    if r.esc then
      let name = unescape r.src r.lo r.stop in
      find names name 0 (String.length name) 0
    else
      let len' = r.stop - r.lo in
      if len' = len && same r.src r.lo (Array.unsafe_get names guess) 0
      then guess
      else find names r.src r.lo len' 0
  end

(* Each name is guessed to follow the previous one in [names], so a line
   written in that order costs one name comparison per member, not a
   scan of [names]. *)
let rec members eol names member st r guess =
  skip_ws r;
  let f = field eol names r guess in
  expect r ':';
  skip_ws r;
  let v =
    if peek r = '"' then begin
      scan_string eol r;
      Str
    end
    else number r
  in
  r.kind <- v;
  member st r f;
  skip_ws r;
  match peek r with
  | ',' ->
    r.pos <- r.pos + 1;
    members eol names member st r (f + 1)
  | '}' -> r.pos <- r.pos + 1
  | _ -> malformed ()

(* The object at [lo], and the spaces and tabs after it: [r.pos] is
   left at the first byte past them. *)
let read names member st src lo hi eol =
  let r =
    { src; hi; pos = lo; lo = 0; stop = 0; esc = false; kind = Str;
      int = 0; num = 0. }
  in
  expect r '{';
  skip_ws r;
  if peek r = '}' then r.pos <- r.pos + 1 else members eol names member st r 0;
  skip_ws r;
  r.pos

let read_object names member st src lo hi =
  if read names member st src lo hi false <> hi then malformed ()

let read_line names member st src lo hi =
  let e = read names member st src lo hi true in
  if e < hi && String.unsafe_get src e <> '\n' then malformed ();
  e

let float_value r =
  match r.kind with
  | Num -> r.num
  | Int ->
    if r.int = 0 && String.unsafe_get r.src r.lo = '-' then -0.
    else float_of_int r.int
  | Str -> invalid_arg "Json.float_value: a string"
