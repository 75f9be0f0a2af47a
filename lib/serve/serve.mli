(** The extraction service: a long-lived HTTP/1.1 daemon over the
    governed extractor, shared-nothing across cores.

    {b Architecture.} With [jobs = N] the server spawns [N] domains
    ({!Wqi_parallel.Pool.Group}); each domain owns its complete serving
    stack — its own accept loop on its own [SO_REUSEPORT] listening
    socket, its own {!Cache} shard, its own {!Telemetry} arena and its
    own set of connection-handler threads.  A request's whole
    accept → parse → extract → respond path executes inside one domain;
    no mutex is shared between domains on that path.  The only global
    coordination points are a single atomic admission counter (one
    lock-free fetch-and-add per admitted extraction), the optional
    access-log sink, and [GET /metrics], which merges per-domain
    telemetry snapshots at scrape time ({i merge-on-scrape}).
    [SO_REUSEPORT] is required: where the socket option cannot be set,
    {!start} fails like any other bind error.

    {b Connection affinity.} The kernel's reuseport balancing keys on
    the connection 4-tuple, so a keep-alive connection — and every
    request on it — stays on one domain, and therefore on one cache
    shard.  Clients that reuse connections get shard-warm hits; the
    process-wide cache byte bound is split evenly across shards.

    {b Single-flight.} Concurrent identical cold misses inside a shard
    run one extraction: the first request leads, the rest wait on the
    in-flight key table and are answered from the leader's result
    (counted as cache hits, plus the [wqi_cache_coalesced_total]
    counter).

    {b Grammars.} The server holds a registry of compiled 2P grammars:
    the configured default plus every [*.wqg] file in
    [config.grammar_dir] (loaded and validated at startup — a bad file
    refuses to start the server).  [POST /extract?grammar=NAME] selects
    the grammar per request; an unknown name is a deterministic 404
    listing the available grammars.  The grammar's name and version are
    part of the cache key, so the same HTML under two grammars (or two
    versions across a reload) never shares a cache entry.  SIGHUP
    (wired by {!run}) re-scans the directory and hot-swaps the registry
    wholesale on a serving thread's next tick; a failed re-scan keeps
    the previous registry serving.

    {b Endpoints.}
    - [POST /extract] — body: raw HTML; optional query parameters
      [name] (source name in the JSON), [grammar] (registry grammar to
      parse with; default the configured grammar) and per-request
      budget overrides [deadline_ms], [max_html_nodes], [max_boxes],
      [max_tokens], [max_instances], [max_rounds], each clamped by the
      server's cap budget.  Responds 200 with the version-2 JSON
      source description ([Complete] and [Degraded] outcomes; see the
      [x-wqi-outcome], [x-wqi-cache] and [x-wqi-grammar] headers), 500
      with the same envelope for [Failed] extractions, 400 for
      malformed requests and parameters, 404 for unknown [grammar]
      names, 413 for oversized bodies, 503 (with
      [Retry-After]) when admission control sheds the request.
    - [GET /healthz] — 200 ["ok"] while serving, 503 ["draining"]
      during shutdown.
    - [GET /metrics] — Prometheus text exposition merged over every
      domain's arena: requests by status, outcomes, latency histogram,
      per-stage latency histograms ([wqi_stage_seconds{stage=...}]),
      the loaded grammars ([wqi_grammar_info{name=...,version=...}]),
      summed cache hit/miss/eviction/coalesced counters,
      persistent-store counters and gauges ([wqi_store_hits_total],
      [wqi_store_misses_total], [wqi_store_puts_total],
      [wqi_store_entries], [wqi_store_bytes]) when [config.store] is
      set, aggregated parser guard/index counters, per-domain request
      counts
      ([wqi_domain_requests_total{domain="i"}]) — with
      [wqi_requests_total] gaining a [grammar] label once more than one
      grammar is loaded — in-flight gauges
      (including the [wqi_pool_peak_inflight] high-water mark), build
      info and uptime.

    {b Observability.} Every response to a parsed request carries an
    [x-wqi-trace-id] header on [/extract].  With [config.trace_dir]
    set, a request carrying [x-wqi-trace: 1] — or every
    [config.trace_sample]-th extract request — is traced end to end and
    its Chrome trace-event JSON written to [trace_dir/<id>.json].
    [config.access_log] enables a structured JSONL access log;
    [config.slow_ms] logs slower requests to stderr.

    {b Quality.} Every extraction (fresh or answered from the store)
    feeds its [Wqi_quality] record into the arena: [/metrics] exposes
    [wqi_quality_score] and [wqi_coverage_ratio] histograms and the
    [wqi_conflicts_total] counter, merged on scrape like everything
    else, plus OCaml runtime health ([wqi_gc_minor_words_total] summed
    across domains, [wqi_gc_major_collections_total] and
    [wqi_gc_heap_bytes] as the max across per-domain samples — the
    major heap is shared) and [wqi_store_orphaned_bytes] when a store
    is attached.  With [config.quality_exemplars = K] (and a
    [trace_dir]), each domain keeps the K worst-scoring extractions of
    every [config.quality_window]-extraction window and writes their
    Chrome traces to [trace_dir/quality-<id>.json] when the window
    completes — automatic exemplars of exactly the requests worth
    debugging.

    {b Admission control.} At most [max_inflight] extractions are
    admitted across all domains at once; beyond that, misses are
    refused immediately with 503 + [Retry-After] instead of queueing
    without bound.  Cache hits bypass admission — they cost
    microseconds and keep a saturated server useful.

    {b Shutdown.} {!stop} (wired to SIGTERM/SIGINT by {!run}) flips the
    drain flag and writes the self-pipe, waking every domain's accept
    loop at once.  Each domain stops accepting, waits for its live
    handlers to finish (requests in flight complete; idle keep-alive
    connections close at their receive timeout), deadline-kills
    stragglers after [drain_grace_s] by shutting their sockets, and
    joins every handler thread it ever spawned before exiting.
    {!wait} joins the domains and closes the listeners; a drained
    server exits 0 with no leaked threads. *)

type config = {
  host : string;
  port : int;  (** 0 binds an ephemeral port; read it back with {!port} *)
  jobs : int option;
      (** serving domains; [None] = recommended domain count *)
  max_inflight : int;
      (** admission-control bound on concurrently admitted extractions
          across all domains; 0 sheds every cache miss (useful for
          overload tests) *)
  max_body : int;  (** request-body byte bound (413 beyond it) *)
  cache : Cache.config option;
      (** [None] disables the result cache.  [max_bytes] is a
          process-wide bound, split evenly across the per-domain
          shards. *)
  store : string option;
      (** directory of a persistent {!Wqi_store.Store} used as a warm
          tier below the in-memory cache: an LRU miss probes the store
          before extracting ([x-wqi-cache: store] on a hit), and fresh
          extractions are persisted before the response goes out, so
          warm throughput survives restarts.  Cache and store
          share keys ({!Cache.key} {i is} {!Wqi_store.Key.make}), the
          store holds the same Export-v2 bytes a fresh extraction
          produces, and {!wait} compacts it on shutdown.  [None]
          disables the tier. *)
  extractor : Wqi_core.Extractor.Config.t;
      (** base extractor configuration; its budget is the per-request
          default and its grammar the default (and always-resolvable)
          registry entry *)
  grammar_dir : string option;
      (** directory of [*.wqg] grammar files loaded into the registry
          at startup and on SIGHUP; [None] serves only the configured
          default grammar *)
  cap_budget : Wqi_budget.Budget.t;
      (** per-field ceilings for request budget overrides: a request
          can tighten a cap but never exceed these; unlimited fields
          are uncapped *)
  idle_timeout_s : float;
      (** keep-alive receive timeout; also bounds how long an idle
          connection can delay a drain *)
  drain_grace_s : float;
      (** how long a drain waits for live handlers before
          deadline-killing their sockets *)
  trace_sample : int;
      (** trace every Nth extract request; 0 disables sampling.  Traces
          are written only when [trace_dir] is set. *)
  trace_dir : string option;
      (** directory for per-request Chrome trace-event JSON files
          (created if missing); [None] disables tracing entirely, even
          for requests carrying [x-wqi-trace: 1] *)
  slow_ms : float option;
      (** log requests slower than this many milliseconds to stderr *)
  access_log : string option;
      (** structured (JSONL) access-log sink: a path (appended to) or
          ["-"] for stderr; [None] disables the access log *)
  quality_exemplars : int;
      (** capture the K worst-quality extractions of each window as
          Chrome traces ([trace_dir/quality-<id>.json]); requires
          [trace_dir], 0 disables.  While enabled, every fresh
          extraction is traced speculatively (cache and store hits are
          not), so the hot path stays untraced and only extraction-heavy
          windows pay the tracing overhead. *)
  quality_window : int;
      (** extractions per exemplar window, per serving domain (each
          domain keeps its own window so capture needs no cross-domain
          coordination); default 128 *)
}

val default_config : config
(** Port 8080 on 127.0.0.1, recommended jobs,
    [max_inflight] = 4 × recommended domain count, 4 MiB bodies,
    default cache config, no persistent store, default extractor config
    (unlimited budget), no caps, 5 s idle timeout, 30 s drain grace; no
    tracing, no slow-request log, no access log. *)

val version : string
(** Server version, reported by the [wqi_build_info] metric. *)

type t

val start : config -> t
(** Bind the listeners and spawn the serving domains.  Raises
    [Unix.Unix_error] if the address cannot be bound (including when
    [SO_REUSEPORT] cannot be set) and
    [Invalid_argument] if [config.grammar_dir] fails to load (missing
    directory, malformed file, duplicate grammar name). *)

val grammar_names : t -> string list
(** Names the registry currently serves, sorted (always includes the
    default grammar's name). *)

val reload_grammars : t -> (int, string) result
(** Re-scan [config.grammar_dir] and swap the registry wholesale;
    returns the number of grammars now loaded.  On [Error] the previous
    registry keeps serving.  Safe to call from any thread; requests
    racing the swap see either the old or the new registry, never a
    mix. *)

val request_reload : t -> unit
(** Ask a serving thread to {!reload_grammars} at its next tick (at
    most ~0.25 s later).  Async-signal-safe — this is what the SIGHUP
    handler installed by {!run} calls. *)

val port : t -> int
(** The actually-bound port (useful with [config.port = 0]). *)

val domain_count : t -> int
(** Serving domains spawned (the resolved [jobs]). *)

val stop : t -> unit
(** Initiate a graceful drain.  Safe to call from a signal handler and
    idempotent; returns immediately — use {!wait} to block until the
    drain finishes. *)

val wait : t -> unit
(** Block until the server has fully drained: every domain's accept
    loop exited, its handlers joined, and the listeners closed. *)

val run : ?on_listen:(t -> unit) -> config -> unit
(** [run config] = {!start}, install SIGTERM/SIGINT handlers that
    {!stop} and a SIGHUP handler that {!request_reload}s the grammar
    registry, ignore SIGPIPE, then {!wait}.  [on_listen] fires once the
    sockets are bound (the CLI prints the address there). *)
