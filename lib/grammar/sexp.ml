type pos = { line : int; col : int }

type t =
  | Atom of pos * string
  | List of pos * t list

let no_pos = { line = 0; col = 0 }

let pos = function Atom (p, _) | List (p, _) -> p

exception Parse_error of pos * string

let error p fmt = Format.kasprintf (fun m -> raise (Parse_error (p, m))) fmt

let is_bare_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '_' | '+' | '*' | '/' | '.' | ':' | '@' | '%' | '<' | '>' | '=' | '!'
  | '?' | '-' ->
    true
  | _ -> false

(* A hand-rolled reader: the project deliberately has no sexp library
   dependency, and grammar files are small enough that a simple
   character scanner with explicit line/column tracking is the whole
   story. *)
type cursor = {
  src : string;
  mutable off : int;
  mutable line : int;
  mutable col : int;
}

let at_end c = c.off >= String.length c.src

(* The byte under the cursor; callers check [at_end] first. *)
let cur c = c.src.[c.off]

let advance c =
  if not (at_end c) then
    if cur c = '\n' then begin
      c.line <- c.line + 1;
      c.col <- 1
    end
    else c.col <- c.col + 1;
  c.off <- c.off + 1

let here c = { line = c.line; col = c.col }

let rec skip_ws c =
  if not (at_end c) then
    match cur c with
    | ' ' | '\t' | '\r' | '\n' ->
      advance c;
      skip_ws c
    | ';' ->
      while not (at_end c || cur c = '\n') do
        advance c
      done;
      skip_ws c
    | _ -> ()

let read_string c =
  let start = here c in
  advance c (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end c then error start "unterminated string";
    match cur c with
    | '"' -> advance c
    | '\\' ->
      advance c;
      if at_end c then error start "unterminated string";
      (match cur c with
       | '\\' -> Buffer.add_char buf '\\'
       | '"' -> Buffer.add_char buf '"'
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | ch -> error (here c) "unknown escape '\\%c'" ch);
      advance c;
      go ()
    | ch ->
      Buffer.add_char buf ch;
      advance c;
      go ()
  in
  go ();
  Atom (start, Buffer.contents buf)

(* Bare atoms never contain a newline, so only the column moves. *)
let read_bare c =
  let start = here c and off = c.off in
  while not (at_end c) && is_bare_char (cur c) do
    c.off <- c.off + 1
  done;
  c.col <- c.col + (c.off - off);
  Atom (start, String.sub c.src off (c.off - off))

let rec read_form c =
  skip_ws c;
  if at_end c then None
  else
    match cur c with
    | '(' ->
      let start = here c in
      advance c;
      let items = ref [] in
      let rec go () =
        skip_ws c;
        if at_end c then error start "unclosed '('";
        if cur c = ')' then advance c
        else
          match read_form c with
          | Some f ->
            items := f :: !items;
            go ()
          | None -> error start "unclosed '('"
      in
      go ();
      Some (List (start, List.rev !items))
    | ')' -> error (here c) "unexpected ')'"
    | '"' -> Some (read_string c)
    | ch when is_bare_char ch -> Some (read_bare c)
    | ch -> error (here c) "unexpected character %C" ch

let parse_string src =
  let c = { src; off = 0; line = 1; col = 1 } in
  let rec go acc =
    match read_form c with
    | Some f -> go (f :: acc)
    | None -> List.rev acc
  in
  go []

let atom s = Atom (no_pos, s)
let list items = List (no_pos, items)

let is_bare s = s <> "" && String.for_all is_bare_char s

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
       match ch with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | _ -> Buffer.add_char buf ch)
    s;
  Buffer.add_char buf '"'

let rec to_buf buf = function
  | Atom (_, s) -> if is_bare s then Buffer.add_string buf s else add_quoted buf s
  | List (_, items) ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i f ->
         if i > 0 then Buffer.add_char buf ' ';
         to_buf buf f)
      items;
    Buffer.add_char buf ')'

let to_string f =
  let buf = Buffer.create 64 in
  to_buf buf f;
  Buffer.contents buf
