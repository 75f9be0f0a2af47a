(* End-to-end smoke of the wqi_serve daemon over real sockets, run by
   the @serve-smoke alias (and dune runtest):

     - /healthz liveness;
     - /extract under --jobs 4 (shared-nothing, one accept loop and
       cache shard per domain): a Complete source, a Degraded
       (instance-capped) source, a cache hit byte-identical to its miss
       on the same keep-alive connection (connection affinity pins both
       requests to one domain's shard), a malformed request (400), and
       method/path errors (405/404);
     - /metrics merge-on-scrape exposition (request counters, latency
       histogram, per-domain request split);
     - a cold then a warm pass over the tractable fixtures on one
       keep-alive connection: every warm response a cache hit,
       byte-identical to its cold response;
     - deterministic 503 load-shedding once the global max_inflight is
       reached, from any domain;
     - SIGTERM graceful drain across all domains: the in-flight
       extraction completes and the process exits 0;
     - single-flight, against a --jobs 1 server:
       concurrent identical cold misses run exactly one extraction;
     - the grammar registry, against the same server started with
       --grammar-dir: per-request ?grammar= selection (x-wqi-grammar
       echoes the choice), per-grammar cache keying (same HTML under
       two grammars misses twice; the default and ?grammar=std share
       one key), deterministic 404 for unknown names listing the
       available grammars, wqi_grammar_info rows and the
       grammar-labelled wqi_requests_total split in /metrics; and
       identity across servers: books.html under this server's
       default (directory-loaded) grammar is byte-identical to the
       --jobs 4 built-in server's body.

   usage: serve_smoke SERVER_EXE FIXTURES_DIR GRAMMARS_DIR *)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
       prerr_endline ("serve_smoke: FAIL: " ^ msg);
       exit 1)
    fmt

let note fmt = Printf.ksprintf (fun msg -> prerr_endline ("  " ^ msg)) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* --- tiny HTTP/1.1 client, one connection per call --- *)

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let recv_all fd =
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  go ();
  Buffer.contents b

let parse_response raw =
  match String.index_opt raw '\n' with
  | None -> fail "no status line in %S" raw
  | Some _ ->
    let headers_end =
      let rec find i =
        if i + 3 >= String.length raw then fail "no header terminator"
        else if String.sub raw i 4 = "\r\n\r\n" then i
        else find (i + 1)
      in
      find 0
    in
    let head = String.sub raw 0 headers_end in
    let body =
      String.sub raw (headers_end + 4) (String.length raw - headers_end - 4)
    in
    (match String.split_on_char '\r' head with
     | [] -> fail "empty response head"
     | status_line :: rest ->
       let status =
         match String.split_on_char ' ' status_line with
         | _ :: code :: _ -> (
             try int_of_string code with _ -> fail "bad status %s" status_line)
         | _ -> fail "bad status line %S" status_line
       in
       let headers =
         List.filter_map
           (fun line ->
              let line =
                if line <> "" && line.[0] = '\n' then
                  String.sub line 1 (String.length line - 1)
                else line
              in
              match String.index_opt line ':' with
              | None -> None
              | Some i ->
                Some
                  ( String.lowercase_ascii (String.sub line 0 i),
                    String.trim
                      (String.sub line (i + 1) (String.length line - i - 1))
                  ))
           rest
       in
       { status; headers; body })

let request port ~meth ~target ?(headers = []) ?(body = "") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect fd
         (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
       let extra =
         String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
       in
       let req =
         Printf.sprintf
           "%s %s HTTP/1.1\r\nhost: smoke\r\nconnection: close\r\n%s\
            content-length: %d\r\n\r\n%s"
           meth target extra (String.length body) body
       in
       let sent = ref 0 in
       while !sent < String.length req do
         sent :=
           !sent
           + Unix.write_substring fd req !sent (String.length req - !sent)
       done;
       parse_response (recv_all fd))

let header r name = List.assoc_opt name r.headers

(* Keep-alive client: several requests on ONE connection, so they all
   land on the same serving domain (and cache shard).  Byte-at-a-time
   reads are fine at smoke scale. *)
let kconnect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let krequest fd ~meth ~target ?(headers = []) ?(body = "") () =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  let req =
    Printf.sprintf
      "%s %s HTTP/1.1\r\nhost: smoke\r\n%scontent-length: %d\r\n\r\n%s" meth
      target extra (String.length body) body
  in
  let sent = ref 0 in
  while !sent < String.length req do
    sent := !sent + Unix.write_substring fd req !sent (String.length req - !sent)
  done;
  let head = Buffer.create 512 in
  let one = Bytes.create 1 in
  let rec read_head () =
    (match Unix.read fd one 0 1 with
     | 0 -> fail "eof in keep-alive response head"
     | _ -> Buffer.add_subbytes head one 0 1);
    let s = Buffer.contents head in
    let l = String.length s in
    if l >= 4 && String.sub s (l - 4) 4 = "\r\n\r\n" then s else read_head ()
  in
  let raw_head = read_head () in
  let content_length =
    String.split_on_char '\n' raw_head
    |> List.find_map (fun line ->
        match String.index_opt line ':' with
        | Some i
          when String.lowercase_ascii (String.trim (String.sub line 0 i))
               = "content-length" ->
          int_of_string_opt
            (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
    |> Option.value ~default:0
  in
  let body_buf = Bytes.create content_length in
  let filled = ref 0 in
  while !filled < content_length do
    match Unix.read fd body_buf !filled (content_length - !filled) with
    | 0 -> fail "eof in keep-alive response body"
    | n -> filled := !filled + n
  done;
  parse_response (raw_head ^ Bytes.to_string body_buf)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let metric_value metrics name =
  (* First sample line starting with `name` followed by a space. *)
  String.split_on_char '\n' metrics
  |> List.find_map (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> float_of_string_opt v
      | _ -> None)

(* --- server lifecycle --- *)

let spawn server_exe args =
  let r, w = Unix.pipe () in
  let argv = Array.of_list (server_exe :: args) in
  let pid = Unix.create_process server_exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let banner = input_line ic in
  let port =
    match String.rindex_opt banner ':' with
    | None -> fail "unparseable banner %S" banner
    | Some i ->
      let rest = String.sub banner (i + 1) (String.length banner - i - 1) in
      (match String.split_on_char ' ' (String.trim rest) with
       | p :: _ -> (
           try int_of_string p with _ -> fail "unparseable banner %S" banner)
       | [] -> fail "unparseable banner %S" banner)
  in
  (pid, port, ic, banner)

let () =
  (match Sys.argv with
   | [| _; _; _; _ |] -> ()
   | _ -> fail "usage: serve_smoke SERVER_EXE FIXTURES_DIR GRAMMARS_DIR");
  let server_exe = Sys.argv.(1)
  and fixtures = Sys.argv.(2)
  and grammars_dir = Sys.argv.(3) in
  (* A hung server must fail the alias, not wedge CI. *)
  ignore (Unix.alarm 120);
  let books = read_file (Filename.concat fixtures "books.html") in
  let jobs_html = read_file (Filename.concat fixtures "jobs.html") in
  let wide = read_file (Filename.concat fixtures "wide_form.html") in
  (* --trace-sample is huge on purpose: only extract request #0 lands
     on the sampling grid, so exactly one request is trace-sampled and
     the rest exercise the untraced path. *)
  let pid, port, _banner_ic, banner =
    spawn server_exe
      [ "--port"; "0"; "--jobs"; "4"; "--max-inflight"; "1";
        "--idle-timeout-s"; "2"; "--trace-dir"; "smoke-traces";
        "--trace-sample"; "1000000"; "--access-log"; "smoke-access.log";
        "--slow-ms"; "100000" ]
  in
  note "server pid %d on port %d (%s)" pid port banner;

  (* healthz *)
  let r = request port ~meth:"GET" ~target:"/healthz" () in
  if r.status <> 200 || r.body <> "ok\n" then
    fail "/healthz: %d %S" r.status r.body;
  note "healthz ok";

  (* Complete extraction — on a keep-alive connection, because the
     cache-hit check below must land on the same domain (per-domain
     cache shards; a new connection could reach a different shard). *)
  let books_conn = kconnect port in
  let r =
    krequest books_conn ~meth:"POST" ~target:"/extract?name=books" ~body:books
      ()
  in
  if r.status <> 200 then fail "/extract books: %d %s" r.status r.body;
  if header r "x-wqi-outcome" <> Some "complete" then
    fail "books outcome: %s" (Option.value ~default:"-" (header r "x-wqi-outcome"));
  if header r "x-wqi-cache" <> Some "miss" then
    fail "books first request must miss";
  if not (contains r.body "\"wqi_extraction_version\": 2") then
    fail "books body is not a v2 export: %s" r.body;
  let books_body = r.body in
  note "extract complete ok (%d bytes)" (String.length books_body);

  (* Request #0 landed on the --trace-sample grid: its trace id names a
     Chrome trace file in the trace dir. *)
  let trace_of r =
    match header r "x-wqi-trace-id" with
    | None -> fail "extract response without x-wqi-trace-id"
    | Some id -> Filename.concat "smoke-traces" (id ^ ".json")
  in
  let sampled_trace = trace_of r in
  if not (Sys.file_exists sampled_trace) then
    fail "sampled trace %s was not written" sampled_trace;
  let trace_body = read_file sampled_trace in
  if not (contains trace_body "\"traceEvents\"") then
    fail "sampled trace is not Chrome trace JSON: %s" trace_body;
  if not (contains trace_body "parser.round") then
    fail "sampled trace has no parser rounds";
  note "trace sampling ok (%s)" sampled_trace;

  (* Cache hit, byte-identical, same connection -> same shard. *)
  let r =
    krequest books_conn ~meth:"POST" ~target:"/extract?name=books" ~body:books
      ()
  in
  if r.status <> 200 || header r "x-wqi-cache" <> Some "hit" then
    fail "books repeat must hit the cache (%d, %s)" r.status
      (Option.value ~default:"-" (header r "x-wqi-cache"));
  if r.body <> books_body then fail "cache hit is not byte-identical";
  (try Unix.close books_conn with Unix.Unix_error _ -> ());
  note "cache hit ok";

  (* On-demand tracing: x-wqi-trace: 1 on a cache miss. *)
  let r =
    request port ~meth:"POST" ~target:"/extract?name=jobs-traced"
      ~headers:[ ("x-wqi-trace", "1") ]
      ~body:jobs_html ()
  in
  if r.status <> 200 then fail "/extract jobs-traced: %d" r.status;
  let demand_trace = trace_of r in
  if not (Sys.file_exists demand_trace) then
    fail "on-demand trace %s was not written" demand_trace;
  if not (contains (read_file demand_trace) "\"traceEvents\"") then
    fail "on-demand trace is not Chrome trace JSON";
  note "on-demand tracing ok (%s)" demand_trace;

  (* degraded extraction: the wide form under an instance cap *)
  let r =
    request port ~meth:"POST"
      ~target:"/extract?name=wide&max_instances=2000" ~body:wide ()
  in
  if r.status <> 200 then fail "/extract wide: %d" r.status;
  if header r "x-wqi-outcome" <> Some "degraded" then
    fail "wide outcome: %s" (Option.value ~default:"-" (header r "x-wqi-outcome"));
  if not (contains r.body "\"status\": \"degraded\"") then
    fail "wide body does not report degradation";
  note "extract degraded ok";

  (* malformed budget parameter *)
  let r =
    request port ~meth:"POST" ~target:"/extract?deadline_ms=abc" ~body:books ()
  in
  if r.status <> 400 then fail "malformed budget: %d (want 400)" r.status;
  note "malformed request 400 ok";

  (* method/path errors *)
  let r = request port ~meth:"GET" ~target:"/extract" () in
  if r.status <> 405 then fail "GET /extract: %d (want 405)" r.status;
  let r = request port ~meth:"GET" ~target:"/nope" () in
  if r.status <> 404 then fail "GET /nope: %d (want 404)" r.status;

  (* metrics exposition *)
  let r = request port ~meth:"GET" ~target:"/metrics" () in
  if r.status <> 200 then fail "/metrics: %d" r.status;
  List.iter
    (fun needle ->
       if not (contains r.body needle) then
         fail "/metrics missing %S in:\n%s" needle r.body)
    [ "wqi_requests_total{code=\"200\"}";
      "wqi_requests_total{code=\"400\"}";
      "wqi_extract_outcomes_total{outcome=\"complete\"}";
      "wqi_extract_outcomes_total{outcome=\"degraded\"}";
      "wqi_cache_answered_total 1";
      "wqi_request_seconds_bucket";
      "wqi_cache_hits_total";
      "wqi_cache_coalesced_total";
      "wqi_pool_jobs 4";
      "wqi_pool_peak_inflight";
      "wqi_domain_requests_total{domain=\"0\"}";
      "wqi_domain_requests_total{domain=\"3\"}";
      "wqi_build_info{version=\"1.0.0\"} 1";
      "wqi_uptime_seconds";
      "wqi_stage_seconds_bucket{stage=\"parse\",le=\"+Inf\"}";
      "wqi_stage_seconds_count{stage=\"merge\"}" ];
  (match metric_value r.body "wqi_uptime_seconds" with
   | Some v when v >= 0. -> ()
   | _ -> fail "wqi_uptime_seconds not a non-negative sample");
  (* The merged per-domain split must account for exactly the requests
     the merged status counters saw — same scrape, same snapshots. *)
  let sum_prefix prefix =
    String.split_on_char '\n' r.body
    |> List.fold_left
      (fun acc line ->
         if
           String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
         then
           match String.rindex_opt line ' ' with
           | Some i ->
             acc
             +. Option.value ~default:0.
                  (float_of_string_opt
                     (String.sub line (i + 1) (String.length line - i - 1)))
           | None -> acc
         else acc)
      0.
  in
  let by_code = sum_prefix "wqi_requests_total{" in
  let by_domain = sum_prefix "wqi_domain_requests_total{" in
  if by_code <> by_domain then
    fail "merge mismatch: %g requests by code, %g by domain" by_code by_domain;
  note "metrics ok (merge: %g requests across 4 domains)" by_domain;

  (* Cold then warm pass over the tractable fixtures on one keep-alive
     connection (one domain, one cache shard): every warm response is a
     hit, byte-identical to its cold response. *)
  let pass_fixtures =
    [ "airfare"; "books"; "jobs"; "malformed"; "nested_deep"; "truncated" ]
  in
  let pass_conn = kconnect port in
  let pass () =
    List.map
      (fun f ->
         let body = read_file (Filename.concat fixtures (f ^ ".html")) in
         let r =
           krequest pass_conn ~meth:"POST" ~target:("/extract?name=pass-" ^ f)
             ~body ()
         in
         if r.status <> 200 then fail "pass %s: %d" f r.status;
         (f, r))
      pass_fixtures
  in
  let cold = pass () in
  List.iter2
    (fun (f, c) (_, w) ->
       if header w "x-wqi-cache" <> Some "hit" then
         fail "warm %s: cache %s (want hit)" f
           (Option.value ~default:"-" (header w "x-wqi-cache"));
       if w.body <> c.body then fail "warm %s is not byte-identical to cold" f)
    cold (pass ());
  (try Unix.close pass_conn with Unix.Unix_error _ -> ());
  note "warm pass ok (%d fixtures, all hits)" (List.length pass_fixtures);

  (* Deterministic 503: park a slow extraction (the wide form under a
     wall-clock deadline; ungoverned it runs for tens of seconds) in
     the single admission slot, wait until /metrics shows it admitted,
     then any cache-missing extraction must be shed. *)
  let slow_done = ref None in
  let slow =
    Thread.create
      (fun () ->
         slow_done :=
           Some
             (request port ~meth:"POST"
                ~target:"/extract?name=wide&deadline_ms=700" ~body:wide ()))
      ()
  in
  let rec await_inflight tries =
    if tries = 0 then fail "slow request never became in-flight";
    let m = request port ~meth:"GET" ~target:"/metrics" () in
    match metric_value m.body "wqi_inflight_requests" with
    | Some v when v >= 1. -> ()
    | _ ->
      Thread.delay 0.01;
      await_inflight (tries - 1)
  in
  await_inflight 200;
  let r = request port ~meth:"POST" ~target:"/extract?name=jobs" ~body:jobs_html () in
  if r.status <> 503 then fail "overload: %d (want 503)" r.status;
  if header r "retry-after" = None then fail "503 without retry-after";
  Thread.join slow;
  (match !slow_done with
   | Some { status = 200; _ } -> ()
   | Some r -> fail "slow request: %d (want 200)" r.status
   | None -> fail "slow request returned nothing");
  let m = request port ~meth:"GET" ~target:"/metrics" () in
  (match metric_value m.body "wqi_shed_total" with
   | Some v when v >= 1. -> ()
   | v ->
     fail "wqi_shed_total: %s (want >= 1)"
       (match v with Some f -> string_of_float f | None -> "absent"));
  note "deterministic 503 ok";

  (* Graceful drain: park another slow extraction (different deadline,
     so a different cache key), SIGTERM mid-flight, and require both a
     complete response and a clean exit. *)
  let drain_done = ref None in
  let drain =
    Thread.create
      (fun () ->
         drain_done :=
           Some
             (request port ~meth:"POST"
                ~target:"/extract?name=wide&deadline_ms=701" ~body:wide ()))
      ()
  in
  await_inflight 200;
  Unix.kill pid Sys.sigterm;
  Thread.join drain;
  (match !drain_done with
   | Some { status = 200; _ } -> ()
   | Some r -> fail "drained request: %d (want 200)" r.status
   | None -> fail "drained request returned nothing");
  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> ()
   | _, Unix.WEXITED c -> fail "server exited %d (want 0)" c
   | _, Unix.WSIGNALED s -> fail "server killed by signal %d" s
   | _, Unix.WSTOPPED s -> fail "server stopped by signal %d" s);
  note "graceful drain ok (exit 0)";

  (* Structured access log: flushed per line, so complete after exit. *)
  let log = read_file "smoke-access.log" in
  List.iter
    (fun needle ->
       if not (contains log needle) then
         fail "access log missing %S in:\n%s" needle log)
    [ "\"method\":\"POST\"";
      "\"path\":\"/extract\"";
      "\"path\":\"/healthz\"";
      "\"status\":200";
      "\"status\":503";
      "\"cache\":\"hit\"";
      "\"cache\":\"miss\"";
      "\"cache\":\"shed\"";
      "\"outcome\":\"complete\"";
      "\"outcome\":\"degraded\"";
      "\"ts\":\"";
      "\"id\":\"" ];
  note "access log ok (%d bytes)" (String.length log);

  (* Single-flight: 4 concurrent identical cold misses must run ONE
     extraction — the leader's — and feed the other three from its
     result.  jobs=1 keeps all four on one shard. *)
  let pid2, port2, _ic2, _banner2 =
    spawn server_exe
      [ "--port"; "0"; "--jobs"; "1";
        "--max-inflight"; "4"; "--idle-timeout-s"; "2";
        "--grammar-dir"; grammars_dir ]
  in
  let results = Array.make 4 None in
  let posters =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
             results.(i) <-
               Some
                 (request port2 ~meth:"POST"
                    ~target:"/extract?name=wide&deadline_ms=700" ~body:wide ()))
          ())
  in
  List.iter Thread.join posters;
  let bodies =
    Array.to_list results
    |> List.map (function
        | Some { status = 200; body; _ } -> body
        | Some r -> fail "single-flight request: %d (want 200)" r.status
        | None -> fail "single-flight request returned nothing")
  in
  (match bodies with
   | first :: rest ->
     if List.exists (fun b -> b <> first) rest then
       fail "single-flight responses are not byte-identical"
   | [] -> assert false);
  let m = request port2 ~meth:"GET" ~target:"/metrics" () in
  (* Exactly one request went through the extractor... *)
  (match metric_value m.body "wqi_extractions_total" with
   | Some 1. -> ()
   | v ->
     fail "single-flight: expected wqi_extractions_total 1, got %s"
       (match v with Some f -> string_of_float f | None -> "absent"));
  (match metric_value m.body "wqi_stage_seconds_count{stage=\"parse\"}" with
   | Some 1. -> ()
   | v ->
     fail "single-flight: expected exactly 1 extraction, stage count %s"
       (match v with Some f -> string_of_float f | None -> "absent"));
  (* ...and at least one waiter was fed by the in-flight leader. *)
  (match metric_value m.body "wqi_cache_coalesced_total" with
   | Some v when v >= 1. -> ()
   | v ->
     fail "wqi_cache_coalesced_total: %s (want >= 1)"
       (match v with Some f -> string_of_float f | None -> "absent"));
  note "single-flight ok (1 extraction for 4 concurrent identical requests)";

  (* Grammar registry: the same server runs with --grammar-dir, so the
     registry holds the built-in std plus the example variants.  Every
     grammar serves concurrently; selection is per request. *)
  let extract ?grammar body =
    let target =
      match grammar with
      | None -> "/extract?name=gsel"
      | Some g -> "/extract?name=gsel&grammar=" ^ g
    in
    request port2 ~meth:"POST" ~target ~body ()
  in
  let expect_cache label r want =
    if r.status <> 200 then fail "%s: %d (want 200)" label r.status;
    if header r "x-wqi-cache" <> Some want then
      fail "%s: cache %s (want %s)" label
        (Option.value ~default:"-" (header r "x-wqi-cache"))
        want
  in
  let r_air = extract ~grammar:"airline" books in
  expect_cache "airline miss" r_air "miss";
  if header r_air "x-wqi-grammar" <> Some "airline" then
    fail "airline request did not echo x-wqi-grammar: airline";
  expect_cache "airline hit" (extract ~grammar:"airline" books) "hit";
  (* Same HTML under another grammar must be a fresh cache key... *)
  let r_re = extract ~grammar:"realestate" books in
  expect_cache "realestate miss" r_re "miss";
  if r_re.body = r_air.body then
    fail "airline and realestate produced identical models on books \
          (variant grammars are not being applied)";
  expect_cache "realestate hit" (extract ~grammar:"realestate" books) "hit";
  (* ...while the default grammar and ?grammar=std share one key. *)
  expect_cache "default miss" (extract books) "miss";
  let r_std = extract ~grammar:"std" books in
  expect_cache "std aliases default" r_std "hit";
  if header r_std "x-wqi-grammar" <> Some "std" then
    fail "std request did not echo x-wqi-grammar: std";
  (* The registry's std.wqg, loaded from the directory, shadows the
     built-in pack: across servers and jobs counts, the same document
     must come back byte-identical. *)
  let r =
    request port2 ~meth:"POST" ~target:"/extract?name=books" ~body:books ()
  in
  if r.status <> 200 then fail "grammar-dir books: %d" r.status;
  if r.body <> books_body then
    fail "books under --grammar-dir --jobs 1 differs from the built-in \
          --jobs 4 body";
  note "identity across servers ok (grammar-dir std = built-in std)";
  (* Unknown names are a deterministic 404 listing what is loaded. *)
  let r = extract ~grammar:"nope" books in
  if r.status <> 404 then fail "unknown grammar: %d (want 404)" r.status;
  if
    not
      (contains r.body
         "unknown grammar \\\"nope\\\"; available: airline, realestate, std")
  then fail "unknown-grammar 404 body not deterministic: %s" r.body;
  let m = request port2 ~meth:"GET" ~target:"/metrics" () in
  List.iter
    (fun needle ->
       if not (contains m.body needle) then
         fail "/metrics missing %S in:\n%s" needle m.body)
    [ "wqi_grammar_info{name=\"airline\",version=\"1\"} 1";
      "wqi_grammar_info{name=\"realestate\",version=\"1\"} 1";
      "wqi_grammar_info{name=\"std\",version=\"1\"} 1";
      (* >1 grammar loaded: the requests split grows the grammar label,
         cache hits included. *)
      "wqi_requests_total{code=\"200\",grammar=\"airline\"} 2";
      "wqi_requests_total{code=\"200\",grammar=\"realestate\"} 2";
      "wqi_requests_total{code=\"404\",grammar=\"\"}" ];
  note "grammar registry ok (3 grammars, per-grammar cache keys)";
  Unix.kill pid2 Sys.sigterm;
  (match Unix.waitpid [] pid2 with
   | _, Unix.WEXITED 0 -> ()
   | _, Unix.WEXITED c -> fail "single-flight server exited %d (want 0)" c
   | _, s ->
     fail "single-flight server did not exit cleanly (%s)"
       (match s with
        | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
        | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n
        | Unix.WEXITED n -> string_of_int n));
  (* Persistent store as the warm tier: a server started with --store
     writes extractions behind the cache; a NEW process over the same
     directory must answer the same request from the store — no
     extraction — byte-identical to the original response. *)
  let pid3, port3, _ic3, _banner3 =
    spawn server_exe
      [ "--port"; "0"; "--jobs"; "1"; "--idle-timeout-s"; "2";
        "--store"; "smoke-store" ]
  in
  let r =
    request port3 ~meth:"POST" ~target:"/extract?name=books" ~body:books ()
  in
  if r.status <> 200 || header r "x-wqi-cache" <> Some "miss" then
    fail "store server first request: %d cache=%s (want 200 miss)" r.status
      (Option.value ~default:"-" (header r "x-wqi-cache"));
  let stored_body = r.body in
  Unix.kill pid3 Sys.sigterm;
  (match Unix.waitpid [] pid3 with
   | _, Unix.WEXITED 0 -> ()
   | _, Unix.WEXITED c -> fail "store server exited %d (want 0)" c
   | _, _ -> fail "store server did not exit cleanly");
  let pid4, port4, _ic4, _banner4 =
    spawn server_exe
      [ "--port"; "0"; "--jobs"; "1"; "--idle-timeout-s"; "2";
        "--store"; "smoke-store" ]
  in
  let r =
    request port4 ~meth:"POST" ~target:"/extract?name=books" ~body:books ()
  in
  if r.status <> 200 then fail "restarted store server: %d" r.status;
  if header r "x-wqi-cache" <> Some "store" then
    fail "restart must answer from the store, got cache=%s"
      (Option.value ~default:"-" (header r "x-wqi-cache"));
  if r.body <> stored_body then
    fail "store hit is not byte-identical across restart";
  (* And the in-memory cache now fronts the store entry. *)
  let r2 =
    request port4 ~meth:"POST" ~target:"/extract?name=books" ~body:books ()
  in
  if r2.status <> 200 then fail "post-store request: %d" r2.status;
  if r2.body <> stored_body then fail "post-store hit not byte-identical";
  let m = request port4 ~meth:"GET" ~target:"/metrics" () in
  (match metric_value m.body "wqi_store_hits_total" with
   | Some v when v >= 1. -> ()
   | v ->
     fail "wqi_store_hits_total: %s (want >= 1)"
       (match v with Some f -> string_of_float f | None -> "absent"));
  (match metric_value m.body "wqi_store_entries" with
   | Some v when v >= 1. -> ()
   | v ->
     fail "wqi_store_entries: %s (want >= 1)"
       (match v with Some f -> string_of_float f | None -> "absent"));
  (match metric_value m.body "wqi_extractions_total" with
   | Some 0. | None -> ()
   | Some v -> fail "restarted server extracted %g times (want 0)" v);
  Unix.kill pid4 Sys.sigterm;
  (match Unix.waitpid [] pid4 with
   | _, Unix.WEXITED 0 -> ()
   | _, Unix.WEXITED c -> fail "restarted store server exited %d (want 0)" c
   | _, _ -> fail "restarted store server did not exit cleanly");
  note "persistent store ok (hit across restart, byte-identical, 0 \
        extractions)";

  print_endline "serve smoke ok"
