exception Malformed of string
exception Too_large of string

let max_head_bytes = 32 * 1024

type request = {
  meth : string;
  target : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
  keep_alive : bool;
}

let header r name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name r.headers

let query_param r name = List.assoc_opt name r.query

(* ------------------------------------------------------------------ *)
(* Buffered reading                                                   *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (* consumed prefix of [0, len) *)
  mutable len : int;  (* valid bytes in [buf] *)
}

let conn fd = { fd; buf = Bytes.create 8192; pos = 0; len = 0 }

(* Refill returns false on EOF. *)
let refill c =
  if c.pos = c.len then begin
    c.pos <- 0;
    c.len <- 0
  end
  else if c.pos > 0 then begin
    Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
    c.len <- c.len - c.pos;
    c.pos <- 0
  end;
  if c.len = Bytes.length c.buf then true (* no room; caller bounds lines *)
  else begin
    let n = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
    if n = 0 then false
    else begin
      c.len <- c.len + n;
      true
    end
  end

(* One CRLF- (or bare-LF-) terminated line, without the terminator. *)
let read_line c ~budget =
  let line = Buffer.create 64 in
  let rec go () =
    if Buffer.length line > budget then raise (Too_large "header line");
    if c.pos = c.len && not (refill c) then
      if Buffer.length line = 0 then None else raise (Malformed "eof in line")
    else begin
      match Bytes.index_from_opt c.buf c.pos '\n' with
      | Some i when i < c.len ->
        Buffer.add_subbytes line c.buf c.pos (i - c.pos);
        c.pos <- i + 1;
        let s = Buffer.contents line in
        let s =
          if s <> "" && s.[String.length s - 1] = '\r' then
            String.sub s 0 (String.length s - 1)
          else s
        in
        Some s
      | _ ->
        Buffer.add_subbytes line c.buf c.pos (c.len - c.pos);
        c.pos <- c.len;
        go ()
    end
  in
  go ()

let read_exact c n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if c.pos < c.len then begin
      let take = min (n - !filled) (c.len - c.pos) in
      Bytes.blit c.buf c.pos out !filled take;
      c.pos <- c.pos + take;
      filled := !filled + take
    end
    else if not (refill c) then raise (Malformed "eof in body")
  done;
  Bytes.unsafe_to_string out

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

let hex_val = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> raise (Malformed "bad percent escape")

let percent_decode s =
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    (match s.[!i] with
     | '%' ->
       if !i + 2 >= n then raise (Malformed "truncated percent escape");
       Buffer.add_char b
         (Char.chr ((hex_val s.[!i + 1] * 16) + hex_val s.[!i + 2]));
       i := !i + 2
     | '+' -> Buffer.add_char b ' '
     | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_query q =
  if q = "" then []
  else
    String.split_on_char '&' q
    |> List.filter_map (fun pair ->
        if pair = "" then None
        else
          match String.index_opt pair '=' with
          | None -> Some (percent_decode pair, "")
          | Some i ->
            Some
              ( percent_decode (String.sub pair 0 i),
                percent_decode
                  (String.sub pair (i + 1) (String.length pair - i - 1)) ))

(* RFC 9110 §5.6.2 tchar: a field name is one or more of these, so
   "Content-Length : 5" (a space before the colon) and an obs-fold line
   (leading SP/HTAB) are malformed (RFC 9112 §5.1-5.2) rather than
   headers named "content-length " or " x". *)
let is_tchar = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '!' | '#' | '$' | '%' | '&'
  | '\'' | '*' | '+' | '-' | '.' | '^' | '_' | '`' | '|' | '~' -> true
  | _ -> false

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> raise (Malformed "header without colon")
  | Some i ->
    let name = String.sub line 0 i in
    if name = "" || not (String.for_all is_tchar name) then
      raise (Malformed "bad header name");
    let value =
      String.trim (String.sub line (i + 1) (String.length line - i - 1))
    in
    (String.lowercase_ascii name, value)

(* RFC 9110 §8.6: one or more ASCII digits, nothing else ([int_of_string]
   would also take "0x10", "+5" and "1_0").  A value too long for an
   int is a body too large to accept.  Repeated headers must agree: two
   different lengths leave the message's framing ambiguous. *)
let content_length headers =
  let parse v =
    let digit = function '0' .. '9' -> true | _ -> false in
    if v = "" || not (String.for_all digit v) then
      raise (Malformed "bad content-length");
    match int_of_string_opt v with
    | Some n -> n
    | None -> raise (Too_large "body")
  in
  List.fold_left
    (fun acc (name, v) ->
       if name <> "content-length" then acc
       else
         let n = parse v in
         match acc with
         | Some m when m <> n -> raise (Malformed "conflicting content-length")
         | _ -> Some n)
    None headers

let read_request c ~max_body =
  match read_line c ~budget:max_head_bytes with
  | None -> None
  | Some request_line ->
    let meth, target, version =
      match String.split_on_char ' ' request_line with
      | [ m; t; v ] when m <> "" && t <> "" -> (String.uppercase_ascii m, t, v)
      | _ -> raise (Malformed "bad request line")
    in
    (match version with
     | "HTTP/1.1" | "HTTP/1.0" -> ()
     | _ -> raise (Malformed "unsupported HTTP version"));
    let headers = ref [] in
    let head_bytes = ref (String.length request_line) in
    let rec headers_loop () =
      match read_line c ~budget:max_head_bytes with
      | None -> raise (Malformed "eof in headers")
      | Some "" -> ()
      | Some line ->
        head_bytes := !head_bytes + String.length line;
        if !head_bytes > max_head_bytes then raise (Too_large "headers");
        headers := parse_header_line line :: !headers;
        headers_loop ()
    in
    headers_loop ();
    let headers = List.rev !headers in
    let find name = List.assoc_opt name headers in
    (match find "transfer-encoding" with
     | Some _ -> raise (Malformed "transfer-encoding not supported")
     | None -> ());
    let body =
      match content_length headers with
      | None ->
        if meth = "POST" || meth = "PUT" then
          raise (Malformed "missing content-length")
        else ""
      | Some n ->
        if n > max_body then raise (Too_large "body");
        read_exact c n
    in
    let path, query =
      match String.index_opt target '?' with
      | None -> (target, [])
      | Some i ->
        ( String.sub target 0 i,
          parse_query (String.sub target (i + 1) (String.length target - i - 1))
        )
    in
    let keep_alive =
      let conn_header =
        Option.map String.lowercase_ascii (find "connection")
      in
      match (version, conn_header) with
      | _, Some "close" -> false
      | "HTTP/1.0", Some "keep-alive" -> true
      | "HTTP/1.0", _ -> false
      | _, _ -> true
    in
    Some { meth; target; path; query; headers; body; keep_alive }

(* ------------------------------------------------------------------ *)
(* Responses                                                          *)
(* ------------------------------------------------------------------ *)

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

let write_response ?scratch fd ~status ?(headers = [])
    ?(content_type = "application/json") body =
  (* A handler serving a keep-alive connection reuses one scratch
     buffer across responses instead of allocating per response. *)
  let b =
    match scratch with
    | Some b ->
      Buffer.clear b;
      b
    | None -> Buffer.create (String.length body + 256)
  in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_reason status));
  Buffer.add_string b (Printf.sprintf "content-type: %s\r\n" content_type);
  Buffer.add_string b
    (Printf.sprintf "content-length: %d\r\n" (String.length body));
  List.iter
    (fun (name, value) ->
       Buffer.add_string b (Printf.sprintf "%s: %s\r\n" name value))
    headers;
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  write_all fd (Buffer.contents b)
