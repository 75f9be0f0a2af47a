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

let skip_ws r =
  while
    r.pos < r.hi
    && (match String.unsafe_get r.src r.pos with
        | ' ' | '\t' -> true
        | _ -> false)
  do r.pos <- r.pos + 1 done

let expect r c =
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

(* Advance past the string whose opening quote is at [r.pos], leaving
   its body in [r.lo .. r.stop) and whether it holds an escape in
   [r.esc].  Escapes are checked here, decoded by [unescape]. *)
let scan_string r =
  if peek r <> '"' then malformed ();
  let s = r.src and hi = r.hi in
  let i = ref (r.pos + 1) and esc = ref false in
  while
    if !i >= hi then malformed ();
    String.unsafe_get s !i <> '"'
  do
    if String.unsafe_get s !i = '\\' then begin
      esc := true;
      incr i;
      if !i >= hi then malformed ();
      match String.unsafe_get s !i with
      | 'n' | 't' | 'r' | '"' | '\\' | '/' -> ()
      | 'u' ->
        if !i + 4 >= hi then malformed ();
        let code = hex_run s (!i + 1) 4 in
        if code < 0 || code >= 256 then malformed ();
        i := !i + 4
      | _ -> malformed ()
    end;
    incr i
  done;
  r.lo <- r.pos + 1;
  r.stop <- !i;
  r.esc <- !esc;
  r.pos <- !i + 1

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

(* A number token: the bytes [0-9+-.eE], decoded as [int_of_string_opt],
   else [float_of_string_opt], would decode them.  A plain run of at
   most 18 digits is decoded in place; [int_of_string] reads only a
   sign and digits, so a token with '.', 'e' or 'E' goes straight to
   [float_of_string_opt]. *)
let number r =
  let start = r.pos in
  let shape = ref 0 (* 0 digits, 1 and a sign, 2 not an int *) in
  let v = ref 0 in
  while
    r.pos < r.hi
    &&
    match String.unsafe_get r.src r.pos with
    | '0' .. '9' as c ->
      v := (!v * 10) + (Char.code c - 48);
      true
    | '-' | '+' ->
      shape := Int.max !shape 1;
      true
    | '.' | 'e' | 'E' ->
      shape := 2;
      true
    | _ -> false
  do r.pos <- r.pos + 1 done;
  let n = r.pos - start in
  if n = 0 then malformed ();
  r.lo <- start;
  if !shape = 0 && n <= 18 then begin
    r.int <- !v;
    Int
  end
  else begin
    let s = String.sub r.src start n in
    match if !shape = 2 then None else int_of_string_opt s with
    | Some v ->
      r.int <- v;
      Int
    | None ->
      (match float_of_string_opt s with
       | Some x when Float.is_finite x ->
         r.num <- x;
         Num
       | Some _ | None -> malformed ())
  end

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
   [names.(guess)]. *)
let field names r guess =
  scan_string r;
  if r.esc then
    let name = unescape r.src r.lo r.stop in
    find names name 0 (String.length name) 0
  else
    let len = r.stop - r.lo in
    if guess < Array.length names
       && String.length (Array.unsafe_get names guess) = len
       && same r.src r.lo (Array.unsafe_get names guess) 0
    then guess
    else find names r.src r.lo len 0

(* Each name is guessed to follow the previous one in [names], so a line
   written in that order costs one name comparison per member, not a
   scan of [names]. *)
let rec members names member st r guess =
  skip_ws r;
  let f = field names r guess in
  expect r ':';
  skip_ws r;
  let v =
    if peek r = '"' then begin
      scan_string r;
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
    members names member st r (f + 1)
  | '}' -> r.pos <- r.pos + 1
  | _ -> malformed ()

let read_object names member st src lo hi =
  let r =
    { src; hi; pos = lo; lo = 0; stop = 0; esc = false; kind = Str; int = 0;
      num = 0. }
  in
  expect r '{';
  skip_ws r;
  if peek r = '}' then r.pos <- r.pos + 1 else members names member st r 0;
  skip_ws r;
  if r.pos <> hi then malformed ()

let float_value r =
  match r.kind with
  | Num -> r.num
  | Int ->
    if r.int = 0 && String.unsafe_get r.src r.lo = '-' then -0.
    else float_of_int r.int
  | Str -> invalid_arg "Json.float_value: a string"
