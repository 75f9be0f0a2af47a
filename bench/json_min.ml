(* Minimal recursive-descent JSON parser shared by the bench-record
   validators (validate_bench_json, validate_trace_json).  The build
   environment has no JSON library; this handles exactly the subset the
   emitters produce. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

module Parser = struct
  type st = { s : string; mutable pos : int }

  let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

  let advance st = st.pos <- st.pos + 1

  let rec skip_ws st =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
    | _ -> ()

  let expect st c =
    skip_ws st;
    match peek st with
    | Some c' when c' = c -> advance st
    | _ -> bad "expected %c at offset %d" c st.pos

  let literal st word value =
    if
      st.pos + String.length word <= String.length st.s
      && String.sub st.s st.pos (String.length word) = word
    then begin
      st.pos <- st.pos + String.length word;
      value
    end
    else bad "bad literal at offset %d" st.pos

  let string st =
    expect st '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek st with
      | None -> bad "unterminated string"
      | Some '"' -> advance st
      | Some '\\' ->
        advance st;
        (match peek st with
         | Some 'n' -> Buffer.add_char b '\n'
         | Some 't' -> Buffer.add_char b '\t'
         | Some 'u' ->
           (* \uXXXX: we only emit ASCII escapes; decode as a byte. *)
           let hex = String.sub st.s (st.pos + 1) 4 in
           Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex) land 0xff));
           st.pos <- st.pos + 4
         | Some c -> Buffer.add_char b c
         | None -> bad "unterminated escape");
        advance st;
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance st;
        go ()
    in
    go ();
    Buffer.contents b

  let number st =
    let start = st.pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek st with Some c -> is_num_char c | None -> false) do
      advance st
    done;
    if st.pos = start then bad "expected number at offset %d" start;
    float_of_string (String.sub st.s start (st.pos - start))

  let rec value st =
    skip_ws st;
    match peek st with
    | Some '{' -> obj st
    | Some '[' -> arr st
    | Some '"' -> Str (string st)
    | Some 't' -> literal st "true" (Bool true)
    | Some 'f' -> literal st "false" (Bool false)
    | Some 'n' -> literal st "null" Null
    | Some _ -> Num (number st)
    | None -> bad "unexpected end of input"

  and obj st =
    expect st '{';
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        let key = string st in
        expect st ':';
        let v = value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance st;
          Obj (List.rev ((key, v) :: acc))
        | _ -> bad "expected , or } at offset %d" st.pos
      in
      fields []
    end

  and arr st =
    expect st '[';
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec items acc =
        let v = value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          Arr (List.rev (v :: acc))
        | _ -> bad "expected , or ] at offset %d" st.pos
      in
      items []
    end

  let parse s =
    let st = { s; pos = 0 } in
    let v = value st in
    skip_ws st;
    if st.pos <> String.length s then bad "trailing garbage at %d" st.pos;
    v
end

let parse = Parser.parse

(* --- schema-check helpers --- *)

let field obj name =
  match obj with
  | Obj fields ->
    (match List.assoc_opt name fields with
     | Some v -> v
     | None -> bad "missing field %S" name)
  | _ -> bad "expected object while looking for %S" name

let num ctx = function Num f -> f | _ -> bad "%s: expected number" ctx
let str ctx = function Str s -> s | _ -> bad "%s: expected string" ctx

let positive ctx v =
  let f = num ctx v in
  if not (f > 0.) then bad "%s: expected > 0, got %g" ctx f;
  f

let non_negative ctx v =
  let f = num ctx v in
  if not (f >= 0.) then bad "%s: expected >= 0, got %g" ctx f;
  f

let read_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s
