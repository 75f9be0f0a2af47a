module Extractor = Wqi_core.Extractor
module Engine = Wqi_parser.Engine
module Budget = Wqi_budget.Budget
module Export = Wqi_model.Export
module Trace = Wqi_obs.Trace
module Group = Wqi_parallel.Pool.Group
module Store = Wqi_store.Store
module Key = Wqi_store.Key
module Quality = Wqi_quality.Quality

let version = "1.0.0"

type config = {
  host : string;
  port : int;
  jobs : int option;
  max_inflight : int;
  max_body : int;
  cache : Cache.config option;
  store : string option;
  extractor : Extractor.Config.t;
  grammar_dir : string option;
  cap_budget : Budget.t;
  idle_timeout_s : float;
  drain_grace_s : float;
  trace_sample : int;
  trace_dir : string option;
  slow_ms : float option;
  access_log : string option;
  quality_exemplars : int;
      (* K worst-quality extractions per window get a Chrome trace into
         trace_dir; 0 disables exemplar capture *)
  quality_window : int;  (* extractions per exemplar window *)
}

let default_config =
  { host = "127.0.0.1";
    port = 8080;
    jobs = None;
    max_inflight = 4 * Domain.recommended_domain_count ();
    max_body = 4 * 1024 * 1024;
    cache = Some Cache.default_config;
    store = None;
    extractor = Extractor.Config.default;
    grammar_dir = None;
    cap_budget = Budget.unlimited;
    idle_timeout_s = 5.;
    drain_grace_s = 30.;
    trace_sample = 0;
    trace_dir = None;
    slow_ms = None;
    access_log = None;
    quality_exemplars = 0;
    quality_window = 128 }

(* ------------------------------------------------------------------ *)
(* Per-domain state                                                   *)
(* ------------------------------------------------------------------ *)

(* One live connection handler.  [h_thread] is filled by the accept
   loop right after [Thread.create]; only the accept loop and the
   handler itself touch the registry, both under [s_mutex]. *)
type handler = {
  h_fd : Unix.file_descr;
  mutable h_thread : Thread.t option;
}

(* Everything a serving domain touches on its request path lives here
   and belongs to this domain alone: its own listening socket, its own
   cache shard, its own telemetry arena and its own handler registry.
   Nothing in a request's accept → parse → extract → respond path
   crosses into another domain's shard. *)
type shard = {
  s_index : int;
  s_listen : Unix.file_descr;  (* own SO_REUSEPORT socket *)
  s_cache : Cache.t option;
  s_telemetry : Telemetry.t;
  s_mutex : Mutex.t;  (* guards registry, zombies and token *)
  s_live : (int, handler) Hashtbl.t;  (* token -> live handler *)
  mutable s_zombies : Thread.t list;  (* finished handlers, to join *)
  mutable s_token : int;
  (* OCaml runtime health, sampled by this domain's own accept-loop
     tick so each shard reports its own domain's view; the scrape
     merges them without ever running code on another domain.  Guarded
     by s_mutex. *)
  mutable s_gc_minor_words : float;
  mutable s_gc_major : int;
  mutable s_gc_heap_bytes : int;
  (* Low-quality exemplar window: the K worst-scoring extractions of
     the current window, flushed to trace_dir when the window fills.
     Guarded by s_mutex; list kept sorted by ascending score, length
     <= quality_exemplars. *)
  mutable s_q_seen : int;
  mutable s_q_worst : (float * string * Trace.t) list;
}

type t = {
  config : config;
  bound_port : int;
  registry : (string * Engine.compiled) list Atomic.t;
      (* name → compiled pack, sorted by name; always contains the
         default grammar.  Swapped wholesale (never mutated) so request
         threads read a consistent registry with one atomic load. *)
  reload_flag : bool Atomic.t;  (* SIGHUP: re-scan grammar_dir *)
  store : Store.t option;
      (* warm tier below the per-domain caches.  Shared across domains,
         but only touched on cache misses (probe, then a buffered append
         after extraction), so its internal mutexes never sit on a
         cache-hit path. *)
  shards : shard array;
  inflight : int Atomic.t;  (* admitted extractions, all domains *)
  peak_inflight : int Atomic.t;
  req_seed : string;          (* per-process prefix of request ids *)
  req_counter : int Atomic.t; (* request-id sequence *)
  sample_counter : int Atomic.t;  (* extract requests seen, for --trace-sample *)
  access_out : out_channel option;  (* structured access log sink *)
  log_mutex : Mutex.t;        (* one access-log line at a time *)
  stop_r : Unix.file_descr;  (* self-pipe: wakes every accept loop *)
  stop_w : Unix.file_descr;
  draining : bool Atomic.t;
  mutable domains : Group.t option;
}

let draining t = Atomic.get t.draining

let port t = t.bound_port

(* ------------------------------------------------------------------ *)
(* Grammar registry                                                   *)
(* ------------------------------------------------------------------ *)

(* Load every *.wqg in [dir] (sorted, so errors are deterministic) into
   (name, pack) pairs.  The whole scan fails on the first malformed
   file — a server must not come up (or hot-swap to) a half-loaded
   registry. *)
let scan_grammar_dir dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | entries ->
    let files =
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".wqg")
      |> List.sort compare
    in
    List.fold_left
      (fun acc file ->
         match acc with
         | Error _ as e -> e
         | Ok packs ->
           (match Extractor.load_grammar (Filename.concat dir file) with
            | Error msg -> Error msg
            | Ok pack ->
              let name = pack.Engine.name in
              if List.mem_assoc name packs then
                Error
                  (Printf.sprintf "%s: duplicate grammar name %S"
                     (Filename.concat dir file) name)
              else Ok ((name, pack) :: packs)))
      (Ok []) files

(* The registry always resolves the default grammar under its own name;
   a directory file with the same name shadows the built-in. *)
let build_registry config =
  let dflt = config.extractor.Extractor.Config.grammar in
  let from_dir =
    match config.grammar_dir with
    | None -> Ok []
    | Some dir -> scan_grammar_dir dir
  in
  match from_dir with
  | Error _ as e -> e
  | Ok packs ->
    let packs =
      if List.mem_assoc dflt.Engine.name packs then packs
      else (dflt.Engine.name, dflt) :: packs
    in
    Ok (List.sort (fun (a, _) (b, _) -> compare a b) packs)

let grammar_names t = List.map fst (Atomic.get t.registry)

let reload_grammars t =
  match build_registry t.config with
  | Error _ as e -> e
  | Ok packs ->
    Atomic.set t.registry packs;
    Ok (List.length packs)

let request_reload t = Atomic.set t.reload_flag true

let maybe_reload t =
  if Atomic.exchange t.reload_flag false then
    match reload_grammars t with
    | Ok n -> Printf.eprintf "wqi_serve: reloaded %d grammar(s)\n%!" n
    | Error msg ->
      (* Keep serving the previous registry: a bad file must never take
         the old grammars down with it. *)
      Printf.eprintf "wqi_serve: grammar reload failed, keeping previous \
                      registry: %s\n%!" msg

let jobs_of config =
  match config.jobs with
  | Some j -> max 1 j
  | None -> Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Budget-override parsing                                            *)
(* ------------------------------------------------------------------ *)

(* Effective per-request budget: the request parameter if present,
   otherwise the server default — in both cases never looser than the
   server's cap for that field (an absent parameter cannot escape a
   cap either). *)
let merge_field ~request ~dflt ~cap =
  let chosen = match request with Some _ -> request | None -> dflt in
  match cap with
  | None -> chosen
  | Some c ->
    (match chosen with
     | Some v -> Some (min (max v 0) c)
     | None -> Some c)

let budget_of_query config req =
  let bad = ref None in
  let param name =
    match Http.query_param req name with
    | None -> None
    | Some raw ->
      (match int_of_string_opt raw with
       | Some v -> Some (max v 0)
       | None ->
         bad := Some (Printf.sprintf "%s: expected an integer, got %S" name raw);
         None)
  in
  let deadline_ms = param "deadline_ms" in
  let max_html_nodes = param "max_html_nodes" in
  let max_boxes = param "max_boxes" in
  let max_tokens = param "max_tokens" in
  let max_instances = param "max_instances" in
  let max_rounds = param "max_rounds" in
  match !bad with
  | Some msg -> Error msg
  | None ->
    let dflt = config.extractor.Extractor.Config.budget in
    let cap = config.cap_budget in
    Ok
      { Budget.deadline_ms =
          merge_field ~request:deadline_ms ~dflt:dflt.Budget.deadline_ms
            ~cap:cap.Budget.deadline_ms;
        max_html_nodes =
          merge_field ~request:max_html_nodes ~dflt:dflt.Budget.max_html_nodes
            ~cap:cap.Budget.max_html_nodes;
        max_boxes =
          merge_field ~request:max_boxes ~dflt:dflt.Budget.max_boxes
            ~cap:cap.Budget.max_boxes;
        max_tokens =
          merge_field ~request:max_tokens ~dflt:dflt.Budget.max_tokens
            ~cap:cap.Budget.max_tokens;
        max_instances =
          merge_field ~request:max_instances ~dflt:dflt.Budget.max_instances
            ~cap:cap.Budget.max_instances;
        max_rounds =
          merge_field ~request:max_rounds ~dflt:dflt.Budget.max_rounds
            ~cap:cap.Budget.max_rounds }

(* ------------------------------------------------------------------ *)
(* Request handling                                                   *)
(* ------------------------------------------------------------------ *)

let json_error msg =
  Export.obj [ ("error", Export.string msg) ]

let respond ?scratch fd ~status ?headers ?content_type body =
  try Http.write_response ?scratch fd ~status ?headers ?content_type body
  with Unix.Unix_error _ -> ()  (* peer went away; nothing to salvage *)

let observe sh ~code t0 =
  Telemetry.observe_request sh.s_telemetry ~code
    ~seconds:(Budget.now_s () -. t0) ()

(* Refresh this shard's view of its domain's GC counters.  Called from
   code already running on the shard's own domain (accept-loop ticks, a
   /metrics handler), so each sample is the owning domain's
   [Gc.quick_stat] — the scrape thread never has to run code on another
   domain to read it. *)
let word_bytes = Sys.word_size / 8

let sample_gc sh =
  let gc = Gc.quick_stat () in
  Mutex.lock sh.s_mutex;
  sh.s_gc_minor_words <- gc.Gc.minor_words;
  sh.s_gc_major <- gc.Gc.major_collections;
  sh.s_gc_heap_bytes <- gc.Gc.heap_words * word_bytes;
  Mutex.unlock sh.s_mutex

let outcome_tag = function
  | Budget.Complete -> `Complete
  | Budget.Degraded _ -> `Degraded
  | Budget.Failed _ -> `Failed

let outcome_name = function
  | `Complete -> "complete"
  | `Degraded -> "degraded"
  | `Failed -> "failed"

(* ------------------------------------------------------------------ *)
(* Request-level observability                                        *)
(* ------------------------------------------------------------------ *)

let fresh_id t =
  Printf.sprintf "%s-%06d" t.req_seed (Atomic.fetch_and_add t.req_counter 1)

let iso8601 now =
  let tm = Unix.gmtime now in
  let ms = int_of_float ((now -. Float.of_int (int_of_float now)) *. 1000.) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec ms

(* One JSON object per request, flushed per line so `tail -f` and crash
   post-mortems both see complete records.  The sink is the one piece
   of shared mutable state left on the request path — it only exists
   when --access-log is on, and interleaving lines from several
   domains into one file needs a lock by construction. *)
let log_access t ~meth ~path ~status ~bytes ~seconds ~cache ~outcome ~id =
  match t.access_out with
  | None -> ()
  | Some oc ->
    let line =
      Printf.sprintf
        "{\"ts\":%s,\"method\":%s,\"path\":%s,\"status\":%d,\"bytes\":%d,\
         \"ms\":%.3f,\"cache\":%s,\"outcome\":%s,\"id\":%s}"
        (Export.string (iso8601 (Unix.gettimeofday ())))
        (Export.string meth) (Export.string path) status bytes
        (1000. *. seconds) (Export.string cache) (Export.string outcome)
        (Export.string id)
    in
    Mutex.lock t.log_mutex;
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Mutex.unlock t.log_mutex

let log_slow t ~meth ~path ~status ~seconds ~id =
  match t.config.slow_ms with
  | Some threshold when 1000. *. seconds >= threshold ->
    Printf.eprintf "wqi_serve: slow request %s %s -> %d %.1f ms id=%s\n%!" meth
      path status (1000. *. seconds) id
  | _ -> ()

(* Respond and account in one move: telemetry (status, outcome, latency,
   per-stage histograms), the structured access log, and the
   slow-request log all see exactly the bytes that went on the wire.
   Telemetry lands in the serving domain's own arena. *)
let finish t sh ~scratch fd req ~t0 ~id ~status ?headers ?content_type ?grammar
    ?outcome ?cache_hit ?stats ?stage_seconds ?quality ?(cache = "-") body =
  let seconds = Budget.now_s () -. t0 in
  (* Account before writing: once the client has the response bytes, a
     /metrics scrape must already see this request, or a scrape racing
     the last response reads an undercounted split. *)
  Telemetry.observe_request sh.s_telemetry ~code:status ?grammar ?outcome
    ?cache_hit ?stats ?stage_seconds ?quality ~seconds ();
  respond ~scratch fd ~status ?headers ?content_type body;
  let meth = req.Http.meth and path = req.Http.path in
  let outcome =
    match outcome with Some o -> outcome_name o | None -> "-"
  in
  log_access t ~meth ~path ~status ~bytes:(String.length body) ~seconds ~cache
    ~outcome ~id;
  log_slow t ~meth ~path ~status ~seconds ~id

let stage_seconds_of (d : Extractor.diagnostics) =
  [ ("html", d.Extractor.html_seconds);
    ("layout", d.Extractor.layout_seconds);
    ("classify", d.Extractor.classify_seconds);
    ("parse", d.Extractor.parse_seconds);
    ("merge", d.Extractor.merge_seconds) ]

(* Tracing is opt-in twice over: the server must run with --trace-dir,
   and the request must either carry [x-wqi-trace: 1] or land on the
   --trace-sample grid.  Everything else runs with [?trace:None] — the
   untraced hot path. *)
let want_trace t req =
  match t.config.trace_dir with
  | None -> None
  | Some dir ->
    let on_demand = Http.header req "x-wqi-trace" = Some "1" in
    let sampled =
      t.config.trace_sample > 0
      && Atomic.fetch_and_add t.sample_counter 1 mod t.config.trace_sample = 0
    in
    if on_demand || sampled then Some dir else None

let write_trace dir ~id trace =
  let path = Filename.concat dir (id ^ ".json") in
  match open_out_bin path with
  | exception Sys_error _ -> ()  (* tracing must never fail a request *)
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
         output_string oc (Trace.to_chrome_json trace);
         output_char oc '\n')

(* Exemplar capture: keep the K lowest-scoring extractions of the
   current window in the shard (traces held in memory, bounded by K);
   when the window fills, write them as [quality-<id>.json] and start
   over.  Per-shard state, so capture needs no cross-domain
   coordination; request ids are process-unique, so exemplar filenames
   never collide. *)
let note_exemplar t sh ~score ~id trace =
  match (trace, t.config.trace_dir) with
  | Some tr, Some dir when t.config.quality_exemplars > 0 ->
    let k = t.config.quality_exemplars in
    let rec insert = function
      | [] -> [ (score, id, tr) ]
      | (s, _, _) :: _ as rest when score <= s -> (score, id, tr) :: rest
      | e :: rest -> e :: insert rest
    in
    let rec take n = function
      | e :: rest when n > 0 -> e :: take (n - 1) rest
      | _ -> []
    in
    Mutex.lock sh.s_mutex;
    sh.s_q_seen <- sh.s_q_seen + 1;
    sh.s_q_worst <- take k (insert sh.s_q_worst);
    let flushed =
      if sh.s_q_seen >= max 1 t.config.quality_window then begin
        let w = sh.s_q_worst in
        sh.s_q_worst <- [];
        sh.s_q_seen <- 0;
        w
      end
      else []
    in
    Mutex.unlock sh.s_mutex;
    List.iter
      (fun (_, eid, etr) -> write_trace dir ~id:("quality-" ^ eid) etr)
      flushed
  | _ -> ()

(* Cached values carry their outcome in a one-byte prefix so a hit can
   report the original outcome without re-parsing the JSON. *)
let encode_cached outcome body =
  (match outcome with `Complete -> "C" | `Degraded -> "D" | `Failed -> assert false)
  ^ body

let decode_cached s =
  if s = "" then (`Complete, s)
  else
    match s.[0] with
    | 'D' -> (`Degraded, String.sub s 1 (String.length s - 1))
    | _ -> (`Complete, String.sub s 1 (String.length s - 1))

(* Admission control is the one deliberately global limit: it bounds
   the whole process's concurrent extraction work, so it is a single
   atomic counter — one lock-free fetch-and-add per admitted request,
   never a mutex. *)
let admit t =
  let rec go () =
    let cur = Atomic.get t.inflight in
    if cur >= t.config.max_inflight then false
    else if Atomic.compare_and_set t.inflight cur (cur + 1) then begin
      let rec bump () =
        let p = Atomic.get t.peak_inflight in
        if cur + 1 > p
           && not (Atomic.compare_and_set t.peak_inflight p (cur + 1))
        then bump ()
      in
      bump ();
      true
    end
    else go ()
  in
  go ()

let release t = ignore (Atomic.fetch_and_add t.inflight (-1))

let respond_hit t sh ~scratch fd req ~t0 ~id ~grammar stored =
  let outcome, body = decode_cached stored in
  finish t sh ~scratch fd req ~t0 ~id ~status:200
    ~headers:
      [ ("x-wqi-outcome", outcome_name outcome);
        ("x-wqi-cache", "hit");
        ("x-wqi-grammar", grammar);
        ("x-wqi-trace-id", id) ]
    ~grammar ~outcome ~cache_hit:true ~cache:"hit" body

(* Run the extraction on this handler thread, inside this domain: the
   whole accept → parse → extract → respond path stays on one core.
   [publish] tells the single-flight leader path to feed waiters. *)
let run_extraction t sh ~scratch fd req ~t0 ~id ~budget ~pack ~name ~publish
    ckey =
  if not (admit t) then begin
    publish None;
    Telemetry.shed sh.s_telemetry;
    finish t sh ~scratch fd req ~t0 ~id ~status:503
      ~headers:[ ("retry-after", "1"); ("x-wqi-trace-id", id) ]
      ~cache:"shed"
      (json_error "server at capacity; retry shortly")
  end
  else begin
    let published = ref false in
    let publish_once v =
      if not !published then begin
        published := true;
        publish v
      end
    in
    Fun.protect
      ~finally:(fun () ->
          release t;
          publish_once None)
    @@ fun () ->
    let config =
      Extractor.Config.(
        t.config.extractor |> with_budget budget |> with_compiled pack)
    in
    let tdir = want_trace t req in
    (* Exemplar capture needs a trace for every fresh extraction — the
       worst-quality ones are only known after the fact.  Tracing is
       observational (the response bytes are identical) and this path
       already pays for a full extraction; hits stay untraced. *)
    let exemplars =
      t.config.quality_exemplars > 0 && Option.is_some t.config.trace_dir
    in
    let trace =
      if Option.is_some tdir || exemplars then Some (Trace.create ())
      else None
    in
    (* Warm tier: a store hit skips the extractor entirely.  Probed
       only on the leader path, under admission, so a popular key costs
       one probe per flight, not one per waiter. *)
    let from_store =
      match (t.store, ckey) with
      | Some store, Some k ->
        let p0 = Trace.now () in
        let r = try Store.find_entry store k with Invalid_argument _ -> None in
        Trace.span trace ~cat:"store" "store.probe" ~t0:p0 ~t1:(Trace.now ());
        r
      | _ -> None
    in
    (* The trace file must exist by the time the client reads its
       response (x-wqi-trace-id names it), so every branch writes the
       trace before [finish]. *)
    let flush_trace () =
      match (trace, tdir) with
      | Some tr, Some dir -> write_trace dir ~id tr
      | _ -> ()
    in
    match from_store with
    | Some (m, body) ->
      let tag = if m.Store.outcome = "degraded" then `Degraded else `Complete in
      let stored = encode_cached tag body in
      (match (sh.s_cache, ckey) with
       | Some cache, Some k -> Cache.add cache k stored
       | _ -> ());
      publish_once (Some stored);
      flush_trace ();
      finish t sh ~scratch fd req ~t0 ~id ~status:200
        ~headers:
          [ ("x-wqi-outcome", outcome_name tag);
            ("x-wqi-cache", "store");
            ("x-wqi-grammar", pack.Engine.name);
            ("x-wqi-trace-id", id) ]
        ~grammar:pack.Engine.name ~outcome:tag ~cache_hit:true
        ?quality:
          (Option.map
             (fun q ->
                (q.Store.q_score, q.Store.q_coverage, q.Store.q_conflicts))
             m.Store.quality)
        ~cache:"store" body
    | None ->
      let e = Extractor.run ?trace config (Extractor.Html req.Http.body) in
      let body = Extractor.export ~timings:false ~name e in
      let tag = outcome_tag e.Extractor.outcome in
      let q =
        Quality.of_extraction ~source:name ~grammar:(Quality.grammar_id pack) e
      in
      let status = match tag with `Failed -> 500 | _ -> 200 in
      (match (sh.s_cache, ckey, tag) with
       | Some cache, Some k, (`Complete | `Degraded) ->
         let stored = encode_cached tag body in
         Cache.add cache k stored;
         publish_once (Some stored)
       | _ -> publish_once None);
      (* Persist before responding: a buffered segment append costs
         microseconds against an extraction's milliseconds, and it
         makes the contract simple — once a client has its bytes, a
         restarted server can serve them from the store. *)
      (match (t.store, ckey, tag) with
       | Some store, Some k, (`Complete | `Degraded) ->
         let w0 = Trace.now () in
         (try
            Store.put store k ~meta:(Quality.to_meta q) body
          with Invalid_argument _ | Sys_error _ -> ());
         Trace.span trace ~cat:"store" "store.write" ~t0:w0 ~t1:(Trace.now ())
       | _ -> ());
      let cache = if Option.is_none sh.s_cache then "off" else "miss" in
      flush_trace ();
      (* Exemplars land on disk when the window completes, not per
         request — the K worst of a window are only known then. *)
      note_exemplar t sh ~score:q.Quality.score ~id trace;
      finish t sh ~scratch fd req ~t0 ~id ~status
        ~headers:
          [ ("x-wqi-outcome", outcome_name tag);
            ("x-wqi-cache", cache);
            ("x-wqi-grammar", pack.Engine.name);
            ("x-wqi-trace-id", id) ]
        ~grammar:pack.Engine.name ~outcome:tag
        ~stats:e.Extractor.diagnostics.Extractor.parse_stats
        ~stage_seconds:(stage_seconds_of e.Extractor.diagnostics)
        ~quality:(q.Quality.score, q.Quality.coverage, q.Quality.conflicts)
        ~cache body
  end

(* Resolve the pack serving this request: [?grammar=NAME] selects from
   the registry (one atomic load — a concurrent hot-swap cannot give
   half-old, half-new state), absent/empty means the configured
   default.  Unknown names are a deterministic 404 listing the
   available grammars (the registry is kept sorted by name). *)
let resolve_grammar t req =
  let packs = Atomic.get t.registry in
  match Http.query_param req "grammar" with
  | Some g when g <> "" ->
    (match List.assoc_opt g packs with
     | Some pack -> Ok pack
     | None ->
       Error
         (Printf.sprintf "unknown grammar %S; available: %s" g
            (String.concat ", " (List.map fst packs))))
  | _ ->
    let dflt = t.config.extractor.Extractor.Config.grammar in
    (* A grammar-dir file with the default's name shadows the built-in
       for unqualified requests too, so NAME and ?grammar=NAME always
       agree on which pack runs. *)
    (match List.assoc_opt dflt.Engine.name packs with
     | Some pack -> Ok pack
     | None -> Ok dflt)

let handle_extract t sh ~scratch fd req t0 ~id =
  match budget_of_query t.config req with
  | Error msg ->
    finish t sh ~scratch fd req ~t0 ~id ~status:400
      ~headers:[ ("x-wqi-trace-id", id) ]
      (json_error msg)
  | Ok budget ->
    (match resolve_grammar t req with
     | Error msg ->
       finish t sh ~scratch fd req ~t0 ~id ~status:404
         ~headers:[ ("x-wqi-trace-id", id) ]
         (json_error msg)
     | Ok pack ->
       let grammar = pack.Engine.name in
       let name =
         match Http.query_param req "name" with
         | Some n when n <> "" -> n
         | _ -> "request"
       in
       (* The grammar identity (name and version) is part of the cache
          key: the same HTML under two grammars — or two versions of
          one grammar, e.g. across a hot reload — never shares an
          entry.  The canonical spec renderer lives next to the key so
          the cache, the store and the batch tools agree byte for
          byte. *)
       let spec =
         Key.spec ~grammar_name:pack.Engine.name
           ~grammar_version:pack.Engine.version ~name budget
       in
       let ckey =
         if Option.is_some sh.s_cache || Option.is_some t.store then
           Some (Cache.key ~html:req.Http.body ~spec)
         else None
       in
       (* Single-flight retry loop: a follower woken without a value
          (leader shed or failed) re-checks the cache and competes to
          lead; the attempt bound is a backstop, after which the request
          extracts on its own rather than loop. *)
       let rec attempt n =
         let cached =
           match (sh.s_cache, ckey) with
           | Some cache, Some k -> Cache.find cache k
           | _ -> None
         in
         match cached with
         | Some stored -> respond_hit t sh ~scratch fd req ~t0 ~id ~grammar stored
         | None ->
           (match (sh.s_cache, ckey) with
            | Some cache, Some k when n < 8 ->
              (match Cache.begin_flight cache k with
               | Cache.Follower (Some stored) ->
                 respond_hit t sh ~scratch fd req ~t0 ~id ~grammar stored
               | Cache.Follower None -> attempt (n + 1)
               | Cache.Leader ->
                 run_extraction t sh ~scratch fd req ~t0 ~id ~budget ~pack ~name
                   ~publish:(fun v -> Cache.end_flight cache k v)
                   ckey)
            | _ ->
              run_extraction t sh ~scratch fd req ~t0 ~id ~budget ~pack ~name
                ~publish:(fun _ -> ())
                ckey)
       in
       attempt 0)

(* ------------------------------------------------------------------ *)
(* Metrics: merge-on-scrape                                           *)
(* ------------------------------------------------------------------ *)

let metrics_body t =
  (* One snapshot per domain arena (each under its own mutex, briefly),
     then a lock-free merge: the scrape pays the coordination cost, the
     request path pays none. *)
  let snaps = Array.map (fun sh -> Telemetry.snapshot sh.s_telemetry) t.shards in
  let merged = Telemetry.merge (Array.to_list snaps) in
  let cache_series =
    if Array.for_all (fun sh -> sh.s_cache = None) t.shards then []
    else begin
      let zero =
        { Cache.hits = 0; misses = 0; evictions = 0; expirations = 0;
          insertions = 0; coalesced = 0; entries = 0; bytes = 0; capacity = 0 }
      in
      let s =
        Array.fold_left
          (fun acc sh ->
             match sh.s_cache with
             | None -> acc
             | Some cache ->
               let s = Cache.stats cache in
               { Cache.hits = acc.Cache.hits + s.Cache.hits;
                 misses = acc.Cache.misses + s.Cache.misses;
                 evictions = acc.Cache.evictions + s.Cache.evictions;
                 expirations = acc.Cache.expirations + s.Cache.expirations;
                 insertions = acc.Cache.insertions + s.Cache.insertions;
                 coalesced = acc.Cache.coalesced + s.Cache.coalesced;
                 entries = acc.Cache.entries + s.Cache.entries;
                 bytes = acc.Cache.bytes + s.Cache.bytes;
                 capacity = acc.Cache.capacity + s.Cache.capacity })
          zero t.shards
      in
      [ ("wqi_cache_hits_total", "Result-cache hits.", `Counter,
         [ ("", float_of_int s.Cache.hits) ]);
        ("wqi_cache_misses_total", "Result-cache misses.", `Counter,
         [ ("", float_of_int s.Cache.misses) ]);
        ("wqi_cache_evictions_total",
         "Entries evicted to respect the byte bound.", `Counter,
         [ ("", float_of_int s.Cache.evictions) ]);
        ("wqi_cache_expirations_total", "Entries dropped by TTL.", `Counter,
         [ ("", float_of_int s.Cache.expirations) ]);
        ("wqi_cache_coalesced_total",
         "Cold misses answered by a single-flight leader.", `Counter,
         [ ("", float_of_int s.Cache.coalesced) ]);
        ("wqi_cache_entries", "Resident cache entries.", `Gauge,
         [ ("", float_of_int s.Cache.entries) ]);
        ("wqi_cache_bytes", "Resident cache bytes.", `Gauge,
         [ ("", float_of_int s.Cache.bytes) ]);
        ("wqi_cache_hit_ratio", "hits / (hits + misses).", `Gauge,
         [ ("", Cache.hit_ratio s) ]) ]
    end
  in
  let store_series =
    match t.store with
    | None -> []
    | Some store ->
      let s = Store.stats store in
      [ ("wqi_store_hits_total",
         "Requests answered from the persistent store.", `Counter,
         [ ("", float_of_int s.Store.hits) ]);
        ("wqi_store_misses_total",
         "Store probes that found no entry.", `Counter,
         [ ("", float_of_int s.Store.misses) ]);
        ("wqi_store_puts_total",
         "Extractions written behind to the persistent store.", `Counter,
         [ ("", float_of_int s.Store.puts) ]);
        ("wqi_store_entries", "Live entries in the persistent store.",
         `Gauge, [ ("", float_of_int s.Store.entries) ]);
        ("wqi_store_bytes", "Live value bytes in the persistent store.",
         `Gauge, [ ("", float_of_int s.Store.bytes) ]);
        ("wqi_store_orphaned_bytes",
         "Dead segment bytes (superseded, corrupt or unmanifested) \
          awaiting a segment rebuild.",
         `Gauge, [ ("", float_of_int s.Store.orphaned_bytes) ]) ]
  in
  (* Runtime health: minor heaps are per-domain, so allocation sums;
     the major heap and its collection count are runtime-global in
     OCaml 5, so the freshest (largest) per-domain sample wins. *)
  let gc_series =
    let minor = ref 0. and major = ref 0 and heap = ref 0 in
    Array.iter
      (fun sh ->
         Mutex.lock sh.s_mutex;
         minor := !minor +. sh.s_gc_minor_words;
         if sh.s_gc_major > !major then major := sh.s_gc_major;
         if sh.s_gc_heap_bytes > !heap then heap := sh.s_gc_heap_bytes;
         Mutex.unlock sh.s_mutex)
      t.shards;
    [ ("wqi_gc_minor_words_total",
       "Minor-heap words allocated, summed across domain samples.",
       `Counter, [ ("", !minor) ]);
      ("wqi_gc_major_collections_total",
       "Major GC cycles completed (runtime-wide).", `Counter,
       [ ("", float_of_int !major) ]);
      ("wqi_gc_heap_bytes", "Major heap size in bytes (shared).", `Gauge,
       [ ("", float_of_int !heap) ]) ]
  in
  let domain_rows =
    Array.to_list
      (Array.mapi
         (fun i sn ->
            (Printf.sprintf "domain=\"%d\"" i,
             float_of_int (Telemetry.requests sn)))
         snaps)
  in
  let inflight = Atomic.get t.inflight in
  let packs = Atomic.get t.registry in
  let grammar_rows =
    List.map
      (fun (name, pack) ->
         (Printf.sprintf "name=\"%s\",version=\"%s\"" name
            pack.Engine.version,
          1.))
      packs
  in
  (* The historical code-only wqi_requests_total contract holds while a
     single grammar is loaded; the grammar label appears only once
     there is more than one grammar to tell apart. *)
  Telemetry.render_snapshot ~grammar_label:(List.length packs > 1) merged
    ~extra:
      (cache_series @ store_series @ gc_series
       @ [ ("wqi_grammar_info",
            "Loaded grammars, by name and version; value is always 1.",
            `Gauge, grammar_rows);
           ("wqi_domain_requests_total",
            "Requests served, by owning domain (merge-on-scrape).",
            `Counter, domain_rows);
           ("wqi_pool_inflight", "Extractions executing across domains.",
            `Gauge, [ ("", float_of_int inflight) ]);
           ("wqi_inflight_requests",
            "Admitted extract requests currently running.", `Gauge,
            [ ("", float_of_int inflight) ]);
           ("wqi_pool_jobs", "Serving domains (one accept loop each).",
            `Gauge, [ ("", float_of_int (Array.length t.shards)) ]);
           ("wqi_pool_peak_inflight",
            "High-water mark of concurrent extractions.", `Gauge,
            [ ("", float_of_int (Atomic.get t.peak_inflight)) ]) ])

(* Returns whether the connection may be kept alive. *)
let handle_request t sh ~scratch fd req =
  let t0 = Budget.now_s () in
  let id = fresh_id t in
  (match (req.Http.meth, req.Http.path) with
   | "GET", "/healthz" ->
     if draining t then
       finish t sh ~scratch fd req ~t0 ~id ~status:503
         ~content_type:"text/plain" "draining\n"
     else
       finish t sh ~scratch fd req ~t0 ~id ~status:200
         ~content_type:"text/plain" "ok\n"
   | "GET", "/metrics" ->
     (* The scraped shard's own GC sample is refreshed here (we are on
        its domain); the others were refreshed by their accept ticks. *)
     sample_gc sh;
     finish t sh ~scratch fd req ~t0 ~id ~status:200
       ~content_type:"text/plain; version=0.0.4" (metrics_body t)
   | "POST", "/extract" ->
     if draining t then
       finish t sh ~scratch fd req ~t0 ~id ~status:503
         ~headers:[ ("retry-after", "1") ]
         (json_error "draining")
     else handle_extract t sh ~scratch fd req t0 ~id
   | ("GET" | "HEAD"), "/extract" ->
     finish t sh ~scratch fd req ~t0 ~id ~status:405
       ~headers:[ ("allow", "POST") ]
       (json_error "use POST")
   | _ -> finish t sh ~scratch fd req ~t0 ~id ~status:404 (json_error "not found"));
  req.Http.keep_alive

(* ------------------------------------------------------------------ *)
(* Connection handlers                                                *)
(* ------------------------------------------------------------------ *)

let conn_finished sh token =
  Mutex.lock sh.s_mutex;
  (match Hashtbl.find_opt sh.s_live token with
   | Some h ->
     Hashtbl.remove sh.s_live token;
     (* Move our Thread.t to the zombie list so the accept loop (or
        the drain) can [Thread.join] it — handlers are never
        fire-and-forgotten. *)
     (match h.h_thread with
      | Some th -> sh.s_zombies <- th :: sh.s_zombies
      | None -> ())  (* registration in flight; the accept loop zombies it *)
   | None -> ());
  Mutex.unlock sh.s_mutex

let handle_conn t sh token fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.idle_timeout_s
   with Unix.Unix_error _ -> ());
  let c = Http.conn fd in
  let scratch = Buffer.create 4096 in
  let rec loop () =
    if not (draining t) then
      match Http.read_request c ~max_body:t.config.max_body with
      | None -> ()
      | exception Http.Malformed msg ->
        let t0 = Budget.now_s () in
        respond ~scratch fd ~status:400 ~headers:[ ("connection", "close") ]
          (json_error msg);
        observe sh ~code:400 t0
      | exception Http.Too_large msg ->
        let t0 = Budget.now_s () in
        respond ~scratch fd ~status:413 ~headers:[ ("connection", "close") ]
          (json_error msg);
        observe sh ~code:413 t0
      | exception
          Unix.Unix_error
            ((EAGAIN | EWOULDBLOCK | ETIMEDOUT | ECONNRESET | EPIPE), _, _) ->
        ()  (* idle timeout or peer reset: just close *)
      | Some req -> if handle_request t sh ~scratch fd req then loop ()
  in
  (try loop () with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  conn_finished sh token

(* Register, spawn and track one handler.  Only the domain's own loop
   calls this, so registration cannot race the drain (which runs on
   the same thread, after the loop exits). *)
let register_conn t sh fd =
  Mutex.lock sh.s_mutex;
  let token = sh.s_token in
  sh.s_token <- token + 1;
  Hashtbl.replace sh.s_live token { h_fd = fd; h_thread = None };
  let finished = sh.s_zombies in
  sh.s_zombies <- [];
  Mutex.unlock sh.s_mutex;
  (* Joining finished handlers here keeps the registry and the thread
     table bounded by the number of *live* connections on a long-lived
     server. *)
  List.iter Thread.join finished;
  let th = Thread.create (fun () -> handle_conn t sh token fd) () in
  Mutex.lock sh.s_mutex;
  (match Hashtbl.find_opt sh.s_live token with
   | Some h -> h.h_thread <- Some th
   | None ->
     (* The handler already finished and removed itself before we could
        record its thread: zombie it ourselves. *)
     sh.s_zombies <- th :: sh.s_zombies);
  Mutex.unlock sh.s_mutex

(* ------------------------------------------------------------------ *)
(* Accept loops and lifecycle                                         *)
(* ------------------------------------------------------------------ *)

let accept_loop t sh listen_fd =
  let rec loop () =
    if not (draining t) then begin
      (* The short timeout bounds signal-to-drain latency: a handler
         set by [run] only executes once some thread re-enters OCaml
         code, and this select is that thread when the domain is
         idle.  The stop pipe is never read, so one write wakes every
         domain's select at once. *)
      (match Unix.select [ listen_fd; t.stop_r ] [] [] 0.25 with
       | exception Unix.Unix_error (EINTR, _, _) -> ()
       | ready, _, _ ->
         if (not (List.mem t.stop_r ready)) && List.mem listen_fd ready
         then (
           match Unix.accept ~cloexec:true listen_fd with
           | exception
               Unix.Unix_error
                 ((EAGAIN | EWOULDBLOCK | ECONNABORTED | EINTR), _, _) ->
             ()
           | fd, _ -> register_conn t sh fd));
      (* Every accept loop ticks the reload flag; Atomic.exchange makes
         exactly one of them perform the swap.  The tick also refreshes
         this domain's GC sample (at most every 0.25 s when idle). *)
      sample_gc sh;
      maybe_reload t;
      loop ()
    end
  in
  loop ()

(* Drain one shard: wait for its live handlers to finish (they stop at
   their next request boundary or receive timeout), deadline-kill the
   stragglers by shutting their sockets down, then join every handler
   thread so none outlives the domain. *)
let drain_shard t sh =
  let deadline = Budget.now_s () +. t.config.drain_grace_s in
  let kicked = ref false in
  let rec wait_live () =
    Mutex.lock sh.s_mutex;
    let live = Hashtbl.length sh.s_live in
    if live = 0 then Mutex.unlock sh.s_mutex
    else begin
      if (not !kicked) && Budget.now_s () > deadline then begin
        kicked := true;
        Hashtbl.iter
          (fun _ h ->
             try Unix.shutdown h.h_fd Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ())
          sh.s_live
      end;
      Mutex.unlock sh.s_mutex;
      (* Condition has no timed wait; this loop only runs at shutdown,
         so a coarse poll is fine. *)
      Thread.delay 0.02;
      wait_live ()
    end
  in
  wait_live ();
  Mutex.lock sh.s_mutex;
  let finished = sh.s_zombies in
  sh.s_zombies <- [];
  Mutex.unlock sh.s_mutex;
  List.iter Thread.join finished

let domain_main t i =
  let sh = t.shards.(i) in
  sample_gc sh;
  accept_loop t sh sh.s_listen;
  drain_shard t sh

(* ------------------------------------------------------------------ *)
(* Startup                                                            *)
(* ------------------------------------------------------------------ *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ ->
    (try (Unix.gethostbyname host).Unix.h_addr_list.(0)
     with Not_found ->
       invalid_arg (Printf.sprintf "Serve.start: unknown host %S" host))

let make_listener addr port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.setsockopt fd Unix.SO_REUSEPORT true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 128;
    fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let port_of fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> 0

let close_all fds =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    fds

(* Bind the accept sockets, one per domain under SO_REUSEPORT: the
   kernel then load-balances new connections across domains.  The
   first socket fixes the port (config.port may be 0); a failure closes
   whatever was bound and propagates. *)
let bind_listeners config ~jobs addr =
  let first = make_listener addr config.port in
  let port = port_of first in
  let rec rest acc k =
    if k = 0 then List.rev acc
    else
      match make_listener addr port with
      | fd -> rest (fd :: acc) (k - 1)
      | exception e ->
        close_all (first :: acc);
        raise e
  in
  (Array.of_list (first :: rest [] (jobs - 1)), port)

let start config =
  (* Load the grammar registry before binding any socket: a server that
     cannot serve its configured grammars must not come up at all. *)
  let registry =
    match build_registry config with
    | Ok packs -> packs
    | Error msg -> invalid_arg ("Serve.start: " ^ msg)
  in
  let addr = resolve_host config.host in
  let jobs = jobs_of config in
  let listeners, bound_port = bind_listeners config ~jobs addr in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock stop_w;
  (match config.trace_dir with
   | Some dir when not (Sys.file_exists dir) ->
     (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
   | _ -> ());
  let access_out =
    match config.access_log with
    | None -> None
    | Some "-" -> Some stderr
    | Some path ->
      Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
  in
  (* Request ids must be unique across restarts writing into the same
     trace dir / log, so seed them from process identity and start
     time. *)
  let req_seed =
    Printf.sprintf "%04x%04x"
      (Unix.getpid () land 0xffff)
      (int_of_float (Unix.gettimeofday ()) land 0xffff)
  in
  (* Each domain owns an equal slice of the configured cache bytes, so
     the process-wide byte bound is unchanged by the domain count. *)
  let shard_cache_config =
    Option.map
      (fun (c : Cache.config) ->
         { c with Cache.max_bytes = max 1 (c.Cache.max_bytes / jobs) })
      config.cache
  in
  let shards =
    Array.init jobs (fun i ->
        { s_index = i;
          s_listen = listeners.(i);
          s_cache = Option.map Cache.create shard_cache_config;
          s_telemetry = Telemetry.create ~version ();
          s_mutex = Mutex.create ();
          s_live = Hashtbl.create 16;
          s_zombies = [];
          s_token = 0;
          s_gc_minor_words = 0.;
          s_gc_major = 0;
          s_gc_heap_bytes = 0;
          s_q_seen = 0;
          s_q_worst = [] })
  in
  (* Open the store before serving: replaying the manifest up front
     means the first request already sees the warm tier, and an
     unopenable store directory fails the start like a bad grammar. *)
  let store = Option.map Store.open_ config.store in
  let t =
    { config;
      bound_port;
      registry = Atomic.make registry;
      reload_flag = Atomic.make false;
      store;
      shards;
      inflight = Atomic.make 0;
      peak_inflight = Atomic.make 0;
      req_seed;
      req_counter = Atomic.make 0;
      sample_counter = Atomic.make 0;
      access_out;
      log_mutex = Mutex.create ();
      stop_r;
      stop_w;
      draining = Atomic.make false;
      domains = None }
  in
  t.domains <- Some (Group.spawn ~jobs (fun i -> domain_main t i));
  t

let stop t =
  if not (Atomic.exchange t.draining true) then
    (* Wake every accept loop without waiting for its select timeout.
       The byte is never read back, so the level-triggered select in
       each domain sees the pipe readable from now on. *)
    try ignore (Unix.write_substring t.stop_w "x" 0 1)
    with Unix.Unix_error _ -> ()

let wait t =
  (* Each domain drains its own handlers and joins them; joining the
     group therefore implies every connection is finished. *)
  (match t.domains with
   | Some g -> Group.join g
   | None -> ());
  t.domains <- None;
  (match t.access_out with
   | Some oc when oc != stderr -> close_out_noerr oc
   | _ -> ());
  (* Every handler is joined by now, so no put can race the close; the
     close compacts the manifest for the next process. *)
  (match t.store with
   | Some store -> (try Store.close store with Sys_error _ -> ())
   | None -> ());
  let listen_fds = Array.to_list (Array.map (fun sh -> sh.s_listen) t.shards) in
  close_all (listen_fds @ [ t.stop_r; t.stop_w ])

let run ?on_listen config =
  let t = start config in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_stop_signal _ = stop t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_stop_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_stop_signal);
  (* SIGHUP requests a grammar-dir re-scan; the swap itself happens on
     a serving thread's next tick, never inside the signal handler. *)
  Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> request_reload t));
  (match on_listen with Some f -> f t | None -> ());
  wait t

let domain_count t = Array.length t.shards
