(** Minimal HTTP/1.1 on raw [Unix] sockets — just enough protocol for
    the extraction service: request-line + headers + [Content-Length]
    bodies, percent-decoded query strings, and keep-alive.  No TLS, no
    chunked transfer encoding (a request carrying one is rejected as
    unsupported), no multipart. *)

exception Malformed of string
(** The bytes on the wire are not a request this server accepts; the
    connection should answer 400 and close. *)

exception Too_large of string
(** Headers or body exceed the configured bounds; answer 413 and
    close. *)

type request = {
  meth : string;            (** verb, uppercased: ["GET"], ["POST"], … *)
  target : string;          (** raw request target, e.g. ["/extract?a=1"] *)
  path : string;            (** target up to [?] *)
  query : (string * string) list;
      (** decoded query parameters, in order of appearance *)
  headers : (string * string) list;
      (** names lowercased, values trimmed, in order of appearance *)
  body : string;
  keep_alive : bool;
      (** what the request's HTTP version + [Connection] header ask for *)
}

val header : request -> string -> string option
(** Case-insensitive header lookup (first occurrence). *)

val query_param : request -> string -> string option

type conn
(** A buffered connection: carries read-ahead between keep-alive
    requests on the same socket. *)

val conn : Unix.file_descr -> conn

val read_request : conn -> max_body:int -> request option
(** Read one request.  [None] on a clean end-of-stream before the first
    byte of a request; raises {!Malformed} on protocol errors (including
    EOF mid-request, and a header whose field name is not an RFC 9110
    token, such as ["Name : v"] or an obs-fold line), {!Too_large} when
    headers exceed 32 KiB or the body exceeds [max_body].
    [Unix.Unix_error] from the socket (e.g. a receive timeout) passes
    through.

    The body is framed by [Content-Length], whose value must be ASCII
    digits only (RFC 9110 §8.6: no sign, [0x] prefix or [_]); a
    repeated header must repeat the same length.  Anything else is
    {!Malformed}, as is a body shorter than its length; a length past
    the [int] range is {!Too_large}. *)

val write_response :
  ?scratch:Buffer.t ->
  Unix.file_descr ->
  status:int ->
  ?headers:(string * string) list ->
  ?content_type:string ->
  string ->
  unit
(** Write a full response with [Content-Length].  [content_type]
    defaults to [application/json].  The caller decides connection
    reuse; pass [("connection", "close")] in [headers] when closing.
    [scratch], when given, is cleared and used to assemble the
    response bytes — a per-connection handler passes the same buffer
    for every response so keep-alive traffic stops allocating. *)

val status_reason : int -> string
(** Reason phrase for the status codes this server emits. *)
