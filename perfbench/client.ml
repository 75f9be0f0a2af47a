(* Minimal HTTP/1.1 keep-alive client for driving wqi_serve.

   Requests are written whole; responses are read with a per-connection
   buffer and framed by content-length, which the server always sends. *)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

exception Closed

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

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
  if c.len = Bytes.length c.buf then failwith "response header too large";
  let n = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  if n = 0 then raise Closed;
  c.len <- c.len + n

let rec read_line c =
  match Bytes.index_from_opt c.buf c.pos '\n' with
  | Some i when i < c.len ->
    let stop = if i > c.pos && Bytes.get c.buf (i - 1) = '\r' then i - 1 else i in
    let s = Bytes.sub_string c.buf c.pos (stop - c.pos) in
    c.pos <- i + 1;
    s
  | _ ->
    refill c;
    read_line c

let read_exact c n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if c.pos = c.len then refill c;
    let take = min (n - !filled) (c.len - c.pos) in
    Bytes.blit c.buf c.pos out !filled take;
    c.pos <- c.pos + take;
    filled := !filled + take
  done;
  Bytes.unsafe_to_string out

let send c ~meth ~target ~body =
  let s =
    Printf.sprintf "%s %s HTTP/1.1\r\nhost: perfbench\r\ncontent-length: %d\r\n\r\n%s"
      meth target (String.length body) body
  in
  let sent = ref 0 in
  while !sent < String.length s do
    sent := !sent + Unix.write_substring c.fd s !sent (String.length s - !sent)
  done

(* Bytes already buffered count as a response having started, so a
   caller multiplexing with [select] must check [pending] first. *)
let pending c = c.pos < c.len

(* Read one response: status and body.  [on_first_byte] fires once the
   status line is in. *)
let receive ?(on_first_byte = ignore) c =
  let status_line = read_line c in
  on_first_byte ();
  let status =
    match String.split_on_char ' ' status_line with
    | _ :: code :: _ -> (try int_of_string code with Failure _ -> 0)
    | _ -> 0
  in
  let len = ref 0 in
  let rec headers () =
    match read_line c with
    | "" -> ()
    | line ->
      (match String.index_opt line ':' with
       | Some i
         when String.lowercase_ascii (String.sub line 0 i) = "content-length" ->
         len :=
           int_of_string
             (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
       | _ -> ());
      headers ()
  in
  headers ();
  (status, read_exact c !len)

let request c ~meth ~target ~body =
  send c ~meth ~target ~body;
  receive c
