(* The extraction service daemon: POST HTML query interfaces at
   /extract, get version-2 JSON source descriptions back; /healthz and
   /metrics for fleet observability.  See Wqi_serve.Serve for the
   endpoint and admission-control semantics.

   The process runs until SIGTERM/SIGINT, then drains: in-flight
   requests finish, idle keep-alive connections are closed, every
   serving domain is joined, and the process exits 0. *)

module Serve = Wqi_serve.Serve
module Cache = Wqi_serve.Cache
module Extractor = Wqi_core.Extractor
module Budget = Wqi_budget.Budget

let run host port jobs max_inflight max_body cache_bytes
    cache_ttl_s cache_shards store grammar_dir deadline_ms max_instances
    cap_deadline_ms cap_instances idle_timeout_s drain_grace_s trace_sample
    trace_dir slow_ms access_log quality_exemplars quality_window =
  let budget = Budget.make ?deadline_ms ?max_instances () in
  let cap_budget =
    Budget.make ?deadline_ms:cap_deadline_ms ?max_instances:cap_instances ()
  in
  let cache =
    if cache_bytes <= 0 then None
    else
      Some
        { Cache.max_bytes = cache_bytes;
          ttl_s = cache_ttl_s;
          shards = cache_shards }
  in
  let config =
    { Serve.host;
      port;
      jobs;
      max_inflight;
      max_body;
      cache;
      store;
      extractor = Extractor.Config.(default |> with_budget budget);
      grammar_dir;
      cap_budget;
      idle_timeout_s;
      drain_grace_s;
      trace_sample;
      trace_dir;
      slow_ms;
      access_log;
      quality_exemplars;
      quality_window }
  in
  match
    Serve.run config ~on_listen:(fun t ->
        (* The listening banner must stay the first stdout line, with
           no colon in the parenthesized part: perfbench's serve-mix
           client and the serve smoke test parse the port as the text
           after the last ':'. *)
        Printf.printf
          "wqi_serve: listening on %s:%d (jobs=%d, max-inflight=%d)\n"
          host (Serve.port t) (Serve.domain_count t) max_inflight;
        Printf.printf "wqi_serve: grammars loaded: %s\n"
          (String.concat ", " (Serve.grammar_names t));
        flush stdout)
  with
  | () -> 0
  | exception Unix.Unix_error (e, fn, _) ->
    Format.eprintf "wqi_serve: %s: %s@." fn (Unix.error_message e);
    1
  | exception Invalid_argument msg ->
    (* Grammar-registry load failure: the server refuses to start. *)
    Format.eprintf "wqi_serve: %s@." msg;
    1

open Cmdliner

let host =
  let doc = "Address to bind." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let port =
  let doc = "Port to bind; 0 picks an ephemeral port (printed on stdout)." in
  Arg.(value & opt int 8080 & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let jobs =
  let doc =
    "Serving domains, each with its own accept loop, cache shard and \
     telemetry arena (default: the machine's recommended domain count)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let max_inflight =
  let doc =
    "Admission-control bound: at most $(docv) extractions admitted (queued \
     or running) at once; cache misses beyond it are shed with 503 + \
     Retry-After.  0 sheds every miss."
  in
  Arg.(value
       & opt int Serve.default_config.Serve.max_inflight
       & info [ "max-inflight" ] ~docv:"N" ~doc)

let max_body =
  let doc = "Request-body byte bound (413 beyond it)." in
  Arg.(value
       & opt int Serve.default_config.Serve.max_body
       & info [ "max-body-bytes" ] ~docv:"BYTES" ~doc)

let cache_bytes =
  let doc = "Result-cache byte bound across shards; 0 disables the cache." in
  Arg.(value
       & opt int Cache.default_config.Cache.max_bytes
       & info [ "cache-bytes" ] ~docv:"BYTES" ~doc)

let cache_ttl_s =
  let doc = "Result-cache entry TTL in seconds; 0 = entries never expire." in
  Arg.(value & opt float 0. & info [ "cache-ttl-s" ] ~docv:"SECONDS" ~doc)

let cache_shards =
  let doc = "Result-cache shard count." in
  Arg.(value
       & opt int Cache.default_config.Cache.shards
       & info [ "cache-shards" ] ~docv:"N" ~doc)

let store =
  let doc =
    "Persistent extraction store at $(docv) (created if missing): a warm \
     tier below the in-memory cache.  Cache misses probe the store before \
     extracting (answered with $(b,x-wqi-cache: store)) and fresh \
     extractions are written behind, so warm throughput survives \
     restarts.  The store is replayed at startup and compacted at \
     shutdown; the same directory is shared with wqi_batch/wqi_crawl \
     --store."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let grammar_dir =
  let doc =
    "Load every .wqg grammar file in $(docv) into the grammar registry \
     at startup; requests select one with ?grammar=NAME (default: the \
     built-in standard grammar).  A malformed file refuses to start the \
     server.  SIGHUP re-scans the directory and hot-swaps the registry; \
     a failed re-scan keeps the previous grammars serving."
  in
  Arg.(value & opt (some dir) None & info [ "grammar-dir" ] ~docv:"DIR" ~doc)

let deadline_ms =
  let doc =
    "Default per-request wall-clock budget in milliseconds (requests may \
     override with ?deadline_ms=, capped by $(b,--cap-deadline-ms))."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let max_instances =
  let doc = "Default per-request cap on parser instances." in
  Arg.(value & opt (some int) None & info [ "max-instances" ] ~docv:"N" ~doc)

let cap_deadline_ms =
  let doc =
    "Ceiling on per-request deadline overrides; requests cannot run longer \
     than this even by omitting ?deadline_ms=."
  in
  Arg.(value & opt (some int) None & info [ "cap-deadline-ms" ] ~docv:"MS" ~doc)

let cap_instances =
  let doc = "Ceiling on per-request parser-instance overrides." in
  Arg.(value & opt (some int) None & info [ "cap-instances" ] ~docv:"N" ~doc)

let idle_timeout_s =
  let doc =
    "Keep-alive receive timeout in seconds, and the bound on reading \
     one request from its first byte, so a client trickling bytes is \
     closed too; also bounds how long idle connections can delay a \
     graceful drain."
  in
  Arg.(value
       & opt float Serve.default_config.Serve.idle_timeout_s
       & info [ "idle-timeout-s" ] ~docv:"SECONDS" ~doc)

let drain_grace_s =
  let doc =
    "How long a graceful drain waits for live connection handlers \
     before deadline-killing their sockets."
  in
  Arg.(value
       & opt float Serve.default_config.Serve.drain_grace_s
       & info [ "drain-grace-s" ] ~docv:"SECONDS" ~doc)

let trace_sample =
  let doc =
    "Trace every $(docv)-th extract request end to end (requires \
     $(b,--trace-dir)); 0 disables sampling.  Individual requests can \
     always opt in with an $(b,x-wqi-trace: 1) header."
  in
  Arg.(value & opt int 0 & info [ "trace-sample" ] ~docv:"N" ~doc)

let trace_dir =
  let doc =
    "Write Chrome trace-event JSON for traced requests into $(docv) \
     (created if missing), one file per request named by its trace id."
  in
  Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)

let slow_ms =
  let doc =
    "Log requests slower than $(docv) milliseconds to stderr, with \
     their trace id."
  in
  Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS" ~doc)

let access_log =
  let doc =
    "Append a structured (JSONL) access log to $(docv): timestamp, \
     method, path, status, response bytes, latency, cache disposition, \
     outcome and trace id per request.  Pass $(b,-) for stderr."
  in
  Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE" ~doc)

let quality_exemplars =
  let doc =
    "Capture the $(docv) worst-quality extractions of each \
     $(b,--quality-window) as Chrome traces named \
     $(i,quality-<id>.json) in $(b,--trace-dir) (required); 0 disables \
     exemplar capture."
  in
  Arg.(value & opt int 0 & info [ "quality-exemplars" ] ~docv:"K" ~doc)

let quality_window =
  let doc =
    "Extractions per exemplar window, per serving domain (each domain \
     keeps its own window)."
  in
  Arg.(value & opt int 128 & info [ "quality-window" ] ~docv:"N" ~doc)

let cmd =
  let doc = "serve query-interface extraction over HTTP" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Runs the governed form extractor as a long-lived HTTP service: \
         $(b,POST /extract) with an HTML body returns the version-2 JSON \
         source description; $(b,GET /healthz) and $(b,GET /metrics) \
         expose liveness and Prometheus-style counters (request/outcome \
         counts, latency histogram, cache hit ratio, parser guard \
         pressure, pool queue depth).";
      `P
        "Requests may tighten their own resource budget with query \
         parameters (deadline_ms, max_html_nodes, max_boxes, max_tokens, \
         max_instances, max_rounds), each clamped by the server's caps.  \
         Identical (normalized) HTML under the same budget is answered \
         from a content-addressed LRU cache.";
      `P
        "SIGTERM/SIGINT drain gracefully: in-flight requests finish, new \
         extractions are refused with 503, and the process exits 0." ]
  in
  let term =
    Term.(
      const run $ host $ port $ jobs $ max_inflight $ max_body
      $ cache_bytes $ cache_ttl_s $ cache_shards $ store $ grammar_dir
      $ deadline_ms
      $ max_instances $ cap_deadline_ms $ cap_instances $ idle_timeout_s
      $ drain_grace_s $ trace_sample $ trace_dir $ slow_ms $ access_log
      $ quality_exemplars $ quality_window)
  in
  Cmd.v (Cmd.info "wqi_serve" ~version:"1.0.0" ~doc ~man) term

let () = exit (Cmd.eval' cmd)
