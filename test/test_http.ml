(* Http.read_request, driven over a socket pair: request framing by
   Content-Length.  The header takes ASCII digits only (RFC 9110 §8.6),
   repeated headers must agree, a body cut short is malformed, and a
   field name must be a token (RFC 9112 §5.1).  A property mutates
   well-formed requests and requires the reader to answer or raise
   only its own two exceptions. *)

module Http = Wqi_serve.Http
module Q = QCheck

type outcome = Body of string | Malformed | Too_large | Closed

let show = function
  | Body b -> Printf.sprintf "Body %S" b
  | Malformed -> "Malformed"
  | Too_large -> "Too_large"
  | Closed -> "Closed"

let outcome = Alcotest.testable (Fmt.of_to_string show) ( = )

(* The bytes are written, then the sending side shut down, so a short
   body reads as end-of-stream rather than a wait. *)
let read ?(max_body = 64) raw =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
       ignore (Unix.write_substring a raw 0 (String.length raw));
       Unix.shutdown a Unix.SHUTDOWN_SEND;
       match Http.read_request (Http.conn b) ~max_body with
       | Some r -> Body r.Http.body
       | None -> Closed
       | exception Http.Malformed _ -> Malformed
       | exception Http.Too_large _ -> Too_large)

let post headers body =
  "POST /extract HTTP/1.1\r\n"
  ^ String.concat "" (List.map (fun h -> h ^ "\r\n") headers)
  ^ "\r\n" ^ body

let check name expected raw = Alcotest.check outcome name expected (read raw)

let test_accepted () =
  check "plain" (Body "hello") (post [ "Content-Length: 5" ] "hello");
  check "name case, spaces around the value" (Body "hello")
    (post [ "content-LENGTH:   5  " ] "hello");
  check "leading zeros" (Body "hello") (post [ "Content-Length: 005" ] "hello");
  check "zero" (Body "") (post [ "Content-Length: 0" ] "");
  check "repeated, equal" (Body "hello")
    (post [ "Content-Length: 5"; "Host: x"; "Content-Length: 05" ] "hello");
  check "GET without a length" (Body "") "GET /health HTTP/1.1\r\n\r\n";
  check "at max_body" (Body (String.make 64 'x'))
    (post [ "Content-Length: 64" ] (String.make 64 'x'));
  check "nothing sent" Closed ""

let test_rejected () =
  List.iter
    (fun v ->
       check ("Content-Length: " ^ v) Malformed
         (post [ "Content-Length: " ^ v ] "hello"))
    [ "0x5"; "+5"; "5_"; "0_5"; "-5"; "-0"; ""; "5 5"; "5,5"; "5, 5"; "5.0";
      "5e0"; "five"; "\t" ];
  check "POST without a length" Malformed (post [] "hello")

let test_conflicting () =
  check "repeated, different" Malformed
    (post [ "Content-Length: 5"; "Content-Length: 6" ] "hello!");
  check "repeated, one malformed" Malformed
    (post [ "Content-Length: 5"; "Content-Length: +5" ] "hello")

let test_sizes () =
  check "over max_body" Too_large
    (post [ "Content-Length: 65" ] (String.make 65 'x'));
  check "past the int range" Too_large
    (post [ "Content-Length: 99999999999999999999999" ] "hello");
  check "body shorter than its length" Malformed
    (post [ "Content-Length: 10" ] "abc")

(* A space before the colon once made the header "content-length ",
   so the GET below had no body and its 5 bytes were read as the next
   pipelined request.  An obs-fold line was a header named " x". *)
let test_field_names () =
  check "space before the colon" Malformed
    "GET / HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello";
  check "obs-fold continuation" Malformed
    "GET / HTTP/1.1\r\nHost: a\r\n x: y\r\n\r\n";
  check "tab before the name" Malformed
    "GET / HTTP/1.1\r\n\tHost: a\r\n\r\n";
  check "token punctuation accepted" (Body "")
    "GET / HTTP/1.1\r\nX-A!#$%&'*+.^_`|~1: v\r\n\r\n"

(* Well-formed requests, then one mutation: truncation, 1-4 byte
   substitutions, a duplicated span, or an injected header line. *)
let request_gen =
  let open Q.Gen in
  let* meth = oneofl [ "GET"; "POST"; "PUT"; "HEAD" ] in
  let* target = oneofl [ "/extract?name=a%20b&x=+"; "/healthz"; "/metrics" ] in
  let* version = oneofl [ "HTTP/1.1"; "HTTP/1.0" ] in
  let* eol = oneofl [ "\r\n"; "\n" ] in
  let* headers =
    list_size (int_bound 3)
      (oneofl
         [ "Host: smoke"; "Connection: close"; "Connection: keep-alive";
           "X-Wqi-Trace: 1"; "Accept: */*" ])
  in
  let* body = string_size ~gen:printable (int_bound 80) in
  let headers =
    headers @ [ Printf.sprintf "Content-Length: %d" (String.length body) ]
  in
  return
    (Printf.sprintf "%s %s %s%s%s%s" meth target version eol
       (String.concat "" (List.map (fun h -> h ^ eol) headers))
       eol
     ^ body)

let mutate_gen raw =
  let open Q.Gen in
  let n = String.length raw in
  let alphabet =
    oneof [ oneofl [ ':'; ' '; '\t'; '\r'; '\n'; '0'; '9'; '%'; '-' ]; char ]
  in
  let injected =
    oneofl
      [ "Content-Length : 5"; " x: y"; "\tHost: a"; "Content-Length: -1";
        "Content-Length: 99999999999999999999"; "Content-Length: 3";
        "Transfer-Encoding: chunked"; ":"; "a";
        "Content-Length: 1\r\nContent-Length: 2" ]
  in
  frequency
    [ (2, map (fun i -> String.sub raw 0 i) (int_bound n));
      ( 3,
        let* subs =
          list_size (int_range 1 4) (pair (int_bound (n - 1)) alphabet)
        in
        let b = Bytes.of_string raw in
        List.iter (fun (i, c) -> Bytes.set b i c) subs;
        return (Bytes.to_string b) );
      ( 2,
        let* i = int_bound n in
        let* len = int_bound (n - i) in
        let* at = int_bound n in
        let span = String.sub raw i len in
        return (String.sub raw 0 at ^ span ^ String.sub raw at (n - at)) );
      ( 3,
        let* line = injected in
        let at =
          match String.index_opt raw '\n' with Some i -> i + 1 | None -> n
        in
        return
          (String.sub raw 0 at ^ line ^ "\r\n" ^ String.sub raw at (n - at)) ) ]

(* Pipelined reads until end of stream: every request the bytes frame
   is read or refused.  The writer is closed first, so a read that
   wanted more bytes sees end-of-stream instead of waiting; the loop is
   bounded by the input length, since each request consumes bytes. *)
let prop_never_raises =
  Q.Test.make ~name:"Http.read_request: mutated requests never raise"
    ~count:2000
    (Q.make ~print:String.escaped Q.Gen.(request_gen >>= mutate_gen))
    (fun raw ->
       let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       ignore (Unix.write_substring a raw 0 (String.length raw));
       Unix.close a;
       let c = Http.conn b in
       let rec go k =
         k <= String.length raw
         &&
         match Http.read_request c ~max_body:64 with
         | Some _ -> go (k + 1)
         | None | (exception (Http.Malformed _ | Http.Too_large _)) -> true
       in
       Fun.protect ~finally:(fun () -> Unix.close b) (fun () -> go 0))

let suite =
  [ ("content-length: accepted forms", `Quick, test_accepted);
    ("content-length: non-digit forms rejected", `Quick, test_rejected);
    ("content-length: repeated headers must agree", `Quick, test_conflicting);
    ("content-length: bounds and short bodies", `Quick, test_sizes);
    ("field names must be tokens", `Quick, test_field_names);
    QCheck_alcotest.to_alcotest prop_never_raises ]
