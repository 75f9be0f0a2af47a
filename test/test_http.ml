(* Http.read_request, driven over a socket pair: request framing by
   Content-Length.  The header takes ASCII digits only (RFC 9110 §8.6),
   repeated headers must agree, a body cut short is malformed, and a
   field name must be a token (RFC 9112 §5.1).  A request read is
   bounded from its first byte, so a trickling client is cut off while
   well-paced keep-alive requests are not.  A property mutates
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

(* The whole-request deadline, with a per-receive timeout set as serve
   sets it.  [writes] are (delay, bytes) steps run on a writer domain;
   the reader's socket is closed only after the writer has finished. *)
let with_writer ~rcvtimeo writes f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float b Unix.SO_RCVTIMEO rcvtimeo;
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        List.iter
          (fun (delay, bytes) ->
             if not (Atomic.get stop) then begin
               Unix.sleepf delay;
               ignore (Unix.write_substring a bytes 0 (String.length bytes))
             end)
          writes)
  in
  Fun.protect
    ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join writer;
        Unix.close a;
        Unix.close b)
    (fun () -> f (Http.conn b))

(* One byte every 0.3 s keeps every receive inside a 1 s socket
   timeout; the 1 s request bound still ends the read, well within
   2 s of the first byte. *)
let test_trickling_client () =
  let raw = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" in
  let writes =
    List.init (String.length raw) (fun i -> (0.3, String.make 1 raw.[i]))
  in
  with_writer ~rcvtimeo:1.0 writes (fun c ->
      let t0 = Unix.gettimeofday () in
      match Http.read_request ~timeout_s:1.0 c ~max_body:64 with
      | _ -> Alcotest.fail "a trickled request must not complete"
      | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) ->
        let elapsed = Unix.gettimeofday () -. t0 in
        if elapsed > 2.5 then
          Alcotest.failf "read abandoned after %.2f s, want about 2 s" elapsed)

(* Keep-alive: the bound counts from each request's first byte, not
   from the call.  The second request arrives 1.3 s after the first, in
   two parts 0.4 s apart, and still reads under a 1 s bound. *)
let test_paced_keep_alive () =
  let writes =
    [ (0., "GET /a HTTP/1.1\r\nHost: x\r\n\r\n");
      (1.3, "GET /b HTTP/1.1\r\n");
      (0.4, "Host: x\r\n\r\n") ]
  in
  with_writer ~rcvtimeo:2.0 writes (fun c ->
      List.iter
        (fun path ->
           match Http.read_request ~timeout_s:1.0 c ~max_body:64 with
           | Some r -> Alcotest.(check string) "path" path r.Http.path
           | None -> Alcotest.fail "connection closed early")
        [ "/a"; "/b" ])

let suite =
  [ ("content-length: accepted forms", `Quick, test_accepted);
    ("content-length: non-digit forms rejected", `Quick, test_rejected);
    ("content-length: repeated headers must agree", `Quick, test_conflicting);
    ("content-length: bounds and short bodies", `Quick, test_sizes);
    ("field names must be tokens", `Quick, test_field_names);
    ("slow client: request read deadline", `Quick, test_trickling_client);
    ("paced keep-alive: deadline per request", `Quick, test_paced_keep_alive);
    QCheck_alcotest.to_alcotest prop_never_raises ]
