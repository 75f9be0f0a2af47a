(* Http.read_request, driven over a socket pair: request framing by
   Content-Length.  The header takes ASCII digits only (RFC 9110 §8.6),
   repeated headers must agree, and a body cut short is malformed. *)

module Http = Wqi_serve.Http

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

let suite =
  [ ("content-length: accepted forms", `Quick, test_accepted);
    ("content-length: non-digit forms rejected", `Quick, test_rejected);
    ("content-length: repeated headers must agree", `Quick, test_conflicting);
    ("content-length: bounds and short bodies", `Quick, test_sizes) ]
