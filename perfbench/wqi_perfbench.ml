(* wqi_perfbench: the repository benchmark.

   One command runs one workload for a fixed time, checks every output
   it receives, and prints a metric table followed by one JSON line:

     wqi_perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads (README.md records their inputs and why each exists):

   - ingest-cold: the wqi_batch --store loop (Key.make, a Store.find
     miss, Extractor.run, Extractor.export ~timings:false,
     Quality.of_extraction, Store.put) over a seeded corpus, pass after
     pass, each pass into a fresh store.
   - ingest-warm: a child process ingests the corpus and closes the
     store; this process reopens it (manifest replay) and makes resumed
     passes of Key.make + Store.find, every lookup a hit.
   - serve-mix: POST /extract to a wqi_serve --jobs 1 child, documents
     drawn with Zipf skew, LRU smaller than the population: an open-loop
     phase at a fixed rate, then a saturating closed-loop phase, over at
     most two keep-alive connections.

   With --trace 0 the JSON carries the end-to-end metrics; with
   --trace 1 the same workload runs with spans recorded from this file
   around each call into a layer, and the JSON carries the per-layer
   metrics.  The programs are driven only through their public entry
   points and the wqi_serve binary; nothing inside lib/ is traced. *)

module Extractor = Wqi_core.Extractor
module Budget = Wqi_budget.Budget
module Engine = Wqi_parser.Engine
module Store = Wqi_store.Store
module Key = Wqi_store.Key
module Quality = Wqi_quality.Quality
module Metrics = Wqi_metrics.Metrics
module Generator = Wqi_corpus.Generator
module Prng = Wqi_corpus.Prng
module Vocabulary = Wqi_corpus.Vocabulary

let now = Budget.now_s

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                    *)
(* ------------------------------------------------------------------ *)

(* The input properties behaviour depends on.  README.md lists them per
   workload; change them only in a change that redefines the benchmark. *)
let simple_share = 0.5 (* Simple (2-4 conditions) vs Rich (4-8) forms *)
let oog_prob = 0.1 (* per-condition out-of-grammar pattern rate *)
let header_prob = 0.2 (* per-condition section-header decoration rate *)
let zipf_s = 1.0 (* serve-mix popularity skew over the population *)
let cache_share = 0.25 (* --cache-bytes / population response bytes *)
let depth = 4 (* serve-mix closed loop: requests pipelined per connection *)
let grammar_file = "examples/grammars/std.wqg"
let serve_exe = "_build/default/bin/wqi_serve.exe"
let work_root = "perfbench/.work"

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (* self-test sizes *)
  inject : string option;  (* self-test fault: corrupt-body | truncate-manifest *)
  cpus : (string * string) option;
      (* this process's CPU and a second one, for placing wqi_serve *)
}

let corpus_size o = if o.tiny then 40 else 3000
let population_size o = if o.tiny then 40 else 1500

(* serve-mix open-loop arrivals per second; the tiny self-test population
   is almost all misses, so it gets a rate it can keep up with. *)
let open_rate o = if o.tiny then 200. else 1000.

type doc = { id : string; html : string; truth : Wqi_model.Condition.t list }

(* Generator sources for [n] documents over every vocabulary domain. *)
let corpus ~seed ~salt n =
  let g = Prng.create (Int64.logxor (Int64.of_int seed) salt) in
  Array.init n (fun i ->
      let domain = Prng.pick g Vocabulary.all in
      let complexity = if Prng.bernoulli g simple_share then `Simple else `Rich in
      let s =
        Generator.generate g ~id:(Printf.sprintf "doc-%05d" i) ~domain
          ~complexity ~oog_prob ~header_prob ()
      in
      { id = s.Generator.id; html = s.Generator.html; truth = s.Generator.truth })

(* ------------------------------------------------------------------ *)
(* Small utilities                                                    *)
(* ------------------------------------------------------------------ *)

module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create ?(cap = 1024) () = { a = Array.make cap 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0. in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let sorted v =
    let s = Array.sub v.a 0 v.n in
    Array.sort Float.compare s;
    s
end

(* Nearest-rank quantile of a sorted array. *)
let quantile s p =
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

(* Best-of timing.  The benchmark was tuned on a 2-CPU virtual machine
   whose CPUs ran a fixed loop at one of two speeds, about 1.5 times
   apart, switching several times a second (another tenant on the same
   cores, it seems): a median over a run took the share of slow time in
   it, which moved by a quarter from one run to the next.  So each
   timed unit (a document, a chunk of documents, a second of requests)
   is measured many times in a run and scored by its fastest
   measurements; interference only ever adds time, so those are the
   ones that repeat. *)
let record_min best i x = if x < best.(i) then best.(i) <- x

(* Documents (ingest) or lookups (ingest-warm) per timed chunk: about
   50 ms of ingest, 3 ms of lookups. *)
let chunk = 100

(* [n] docs / the summed best times of their chunks; nan while some
   chunk was never timed. *)
let best_rate n best extra =
  if extra = infinity || Array.exists (fun x -> x = infinity) best then nan
  else float n /. (Array.fold_left ( +. ) extra best)

let finite_sorted best =
  let v = Fvec.create () in
  Array.iter (fun x -> if Float.is_finite x then Fvec.push v x) best;
  Fvec.sorted v

(* Every operation and every check counts here; a failed one is an
   error whatever stage it came from. *)
let attempted = ref 0
let failed = ref 0
let first_error = ref None

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if !first_error = None then first_error := Some what
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let file_size path = (Unix.stat path).Unix.st_size

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + file_size (Filename.concat dir f))
    0 (Sys.readdir dir)

(* Peak resident set of a process, from /proc/<pid>/status (VmHWM). *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  go ()

let accuracy counts =
  Metrics.accuracy ~precision:(Metrics.precision counts)
    ~recall:(Metrics.recall counts)

(* ------------------------------------------------------------------ *)
(* The ingest loop                                                    *)
(* ------------------------------------------------------------------ *)

type tracer = { sp : Spans.t; op : int; parent : int }

let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let i = Spans.start t.sp ~name ~parent:t.parent ~op:t.op in
    let r = f () in
    Spans.stop t.sp i;
    r

type env = { config : Extractor.Config.t; grammar_id : string }

let env_of pack =
  { config = Extractor.Config.(default |> with_compiled pack);
    grammar_id = pack.Engine.name ^ "@" ^ pack.Engine.version }

let load_grammar () =
  match Extractor.load_grammar grammar_file with
  | Ok pack -> pack
  | Error msg -> failwith msg

let spec env d =
  let pack = env.config.Extractor.Config.grammar in
  Key.spec ~grammar_name:pack.Engine.name ~grammar_version:pack.Engine.version
    ~name:d.id env.config.Extractor.Config.budget

(* Traced extraction: the front-end stages are called one by one so each
   gets a span of its own.  Parse and merge then run inside
   [Extractor.run] on the tokens; merge has no public entry of its own,
   so the parser and model spans are laid out from the parse_seconds
   and merge_seconds the extractor returns, inside the measured [core]
   span whose remaining self time is the extractor's own glue. *)
let extract_staged t env d =
  let tr = Some t in
  let dom = span tr "html" (fun () -> Wqi_html.Parser.parse d.html) in
  let width = env.config.Extractor.Config.width in
  let atoms = span tr "layout" (fun () -> Wqi_layout.Engine.render ~width dom) in
  let tokens = span tr "token" (fun () -> Wqi_token.Tokenize.of_atoms atoms) in
  let core = Spans.start t.sp ~name:"core" ~parent:t.parent ~op:t.op in
  let e = Extractor.run env.config (Extractor.Tokens tokens) in
  Spans.stop t.sp core;
  let dg = e.Extractor.diagnostics in
  let t0 = t.sp.Spans.t0.(core) in
  let t1 = t0 +. dg.Extractor.parse_seconds in
  ignore (Spans.add t.sp ~name:"parser" ~parent:core ~op:t.op ~t0 ~t1);
  ignore
    (Spans.add t.sp ~name:"model" ~parent:core ~op:t.op ~t0:t1
       ~t1:(t1 +. dg.Extractor.merge_seconds));
  e

(* One document through the wqi_batch --store loop.  A store hit is an
   error here: every key is new to the store it is put into. *)
let ingest_doc ?tr env st d =
  let key = span tr "key" (fun () -> Key.make ~html:d.html ~spec:(spec env d)) in
  match span tr "store.find" (fun () -> Store.find st key) with
  | Some _ -> Error "store hit where a miss was due"
  | None ->
    let e =
      match tr with
      | None -> Extractor.run env.config (Extractor.Html d.html)
      | Some t -> extract_staged t env d
    in
    (match e.Extractor.outcome with
     | Budget.Failed err -> Error ("extraction failed: " ^ err.Budget.message)
     | (Budget.Complete | Budget.Degraded _) as outcome ->
       let bytes =
         span tr "export" (fun () -> Extractor.export ~timings:false ~name:d.id e)
       in
       let q =
         span tr "quality" (fun () ->
             Quality.of_extraction ~source:d.id ~grammar:env.grammar_id e)
       in
       let meta =
         { Store.source = d.id;
           grammar = env.grammar_id;
           outcome =
             (match outcome with Budget.Complete -> "complete" | _ -> "degraded");
           domain = "";
           quality =
             Some
               { Store.q_score = q.Quality.score;
                 q_coverage = q.Quality.coverage;
                 q_conflicts = q.Quality.conflicts } }
       in
       span tr "store.put" (fun () -> Store.put st key ~meta bytes);
       Ok (bytes, e, key))

(* Per-layer totals gathered over traced ingest passes. *)
type ledger = {
  sp : Spans.t;
  mutable docs : int;
  mutable wall : float;  (* traced loop seconds *)
  mutable plain_docs : int;
  mutable plain_wall : float;  (* untraced loop seconds, same run *)
  mutable tokens : int;
  mutable created : int;
  mutable guards_tried : int;
  mutable guards_admitted : int;
  mutable minor_words : float;
  mutable written : int;  (* segment + manifest bytes *)
  mutable exported : int;  (* export bytes put *)
  mutable open_s : float;  (* Store.open_ of the fresh stores *)
  mutable opens : int;
  mutable hits : int;
  mutable misses : int;
}

let new_ledger () =
  { sp = Spans.create (); docs = 0; wall = 0.; plain_docs = 0; plain_wall = 0.;
    tokens = 0; created = 0; guards_tried = 0; guards_admitted = 0;
    minor_words = 0.; written = 0; exported = 0; open_s = 0.; opens = 0;
    hits = 0; misses = 0 }

(* What the documents' first extraction says about the inputs: accuracy
   against the generator's ground truth and the token-count
   distribution. *)
type truth = { mutable counts : Metrics.counts; tokens : Fvec.t }

let new_truth () = { counts = Metrics.zero; tokens = Fvec.create () }

let input_notes t =
  let s = Fvec.sorted t.tokens in
  [ ("input.tokens_p10", "count", quantile s 0.1);
    ("input.tokens_p50", "count", quantile s 0.5);
    ("input.tokens_p90", "count", quantile s 0.9);
    ("input.tokens_max", "count", quantile s 1.) ]

type pass = {
  open_s : float;  (* Store.open_ of the fresh store *)
  done_docs : int;
  loop_s : float;  (* the per-document loop *)
  close_s : float;  (* Store.close: manifest compaction *)
}

(* One ingest pass over [docs] into the fresh store [dir], stopping
   early at [deadline].  [reference.(i)], when set, holds bytes document
   [i] must reproduce; unset entries are filled in.  [best.(i)] keeps
   document [i]'s fastest latency and [best_chunk.(j)] the fastest time
   of documents [j * chunk] to [(j + 1) * chunk - 1] (a chunk cut short
   by [deadline] is not timed); [truth] accumulates over documents seen
   for the first time.  After
   the loop (untimed) a sample of stored entries is read back and
   compared with a second, fresh [Extractor.run]. *)
let ingest_pass ?ledger ?best ?best_chunk ?truth ~verify_every env dir docs ~reference
    ~deadline =
  rm_rf dir;
  let o0 = now () in
  let st = Store.open_ dir in
  let open_s = now () -. o0 in
  let n = Array.length docs in
  let keys = Array.make n None in
  let w0 = Gc.minor_words () in
  let t_start = now () in
  let chunk_start = ref t_start in
  let i = ref 0 in
  while !i < n && now () < deadline do
    let d = docs.(!i) in
    let tr, root =
      match ledger with
      | None -> (None, -1)
      | Some l ->
        let root = Spans.start l.sp ~name:"doc" ~parent:(-1) ~op:!i in
        (Some { sp = l.sp; op = !i; parent = root }, root)
    in
    let t0 = now () in
    let r = ingest_doc ?tr env st d in
    let t1 = now () in
    (match ledger with Some l -> Spans.stop l.sp root | None -> ());
    (match best with Some b -> record_min b !i (t1 -. t0) | None -> ());
    (match r with
     | Error msg -> check false (d.id ^ ": " ^ msg)
     | Ok (bytes, e, key) ->
       keys.(!i) <- Some key;
       (match reference.(!i) with
        | Some b -> check (String.equal b bytes) (d.id ^ ": export bytes changed between passes")
        | None ->
          check true "";
          reference.(!i) <- Some bytes;
          (match truth with
           | Some t ->
             t.counts <-
               Metrics.add t.counts
                 (Metrics.count ~truth:d.truth
                    ~extracted:(Extractor.conditions e));
             Fvec.push t.tokens (float e.Extractor.diagnostics.Extractor.token_count)
           | None -> ()));
       (match ledger with
        | Some l ->
          let dg = e.Extractor.diagnostics in
          let ps = dg.Extractor.parse_stats in
          l.tokens <- l.tokens + dg.Extractor.token_count;
          l.created <- l.created + ps.Engine.created;
          l.guards_tried <- l.guards_tried + ps.Engine.guards_tried;
          l.guards_admitted <- l.guards_admitted + ps.Engine.guards_admitted;
          l.exported <- l.exported + String.length bytes
        | None -> ()));
    incr i;
    if !i mod chunk = 0 || !i = n then begin
      let t = now () in
      (match best_chunk with
       | Some b -> record_min b ((!i - 1) / chunk) (t -. !chunk_start)
       | None -> ());
      chunk_start := t
    end
  done;
  let loop_s = now () -. t_start in
  let done_docs = !i in
  (match ledger with
   | Some l ->
     l.open_s <- l.open_s +. open_s;
     l.opens <- l.opens + 1;
     l.docs <- l.docs + done_docs;
     l.wall <- l.wall +. loop_s;
     l.minor_words <- l.minor_words +. (Gc.minor_words () -. w0);
     l.written <-
       l.written + dir_bytes (Filename.concat dir "segments")
       + file_size (Filename.concat dir "manifest.jsonl")
   | None -> ());
  (* Read back a sample: stored bytes must equal a fresh extraction's. *)
  let j = ref 0 in
  while !j < done_docs do
    (match keys.(!j) with
     | None -> ()
     | Some key ->
       let d = docs.(!j) in
       let fresh =
         Extractor.export ~timings:false ~name:d.id
           (Extractor.run env.config (Extractor.Html d.html))
       in
       check
         (Store.find st key = Some fresh)
         (d.id ^ ": stored bytes differ from a fresh extraction"));
    j := !j + verify_every
  done;
  let s = Store.stats st in
  check (s.Store.corrupt = 0 && s.Store.dropped = 0) "store reported corrupt or dropped entries";
  (match ledger with
   | Some l ->
     l.hits <- l.hits + s.Store.hits;
     l.misses <- l.misses + s.Store.misses
   | None -> ());
  let c0 = now () in
  Store.close st;
  let close_s = now () -. c0 in
  { open_s; done_docs; loop_s; close_s }

(* Per-layer metrics of an ingest ledger, per document. *)
let ingest_layers l =
  let tbl = Spans.self_times l.sp in
  let docs = float (max 1 l.docs) in
  let ms name = 1000. *. Spans.self_seconds tbl name /. docs in
  let us name = 1e6 *. Spans.self_seconds tbl name /. docs in
  let layers =
    [ "key"; "store.find"; "html"; "layout"; "token"; "core"; "parser"; "model";
      "export"; "quality"; "store.put" ]
  in
  let attributed =
    List.fold_left (fun acc n -> acc +. Spans.self_seconds tbl n) 0. layers
  in
  [ ("html.ms_per_doc", "ms", ms "html");
    ("layout.ms_per_doc", "ms", ms "layout");
    ("token.ms_per_doc", "ms", ms "token");
    ("token.tokens_per_doc", "count", float l.tokens /. docs);
    ("parser.ms_per_doc", "ms", ms "parser");
    ("parser.created_per_doc", "count", float l.created /. docs);
    ("parser.guards_tried_per_doc", "count", float l.guards_tried /. docs);
    ( "parser.guards_admitted_ratio",
      "ratio",
      float l.guards_admitted /. float (max 1 l.guards_tried) );
    ("model.ms_per_doc", "ms", ms "model");
    ("core.ms_per_doc", "ms", ms "core");
    ("export.ms_per_doc", "ms", ms "export");
    ("quality.ms_per_doc", "ms", ms "quality");
    ("store.put_ms_per_doc", "ms", ms "store.put");
    ( "store.bytes_written_per_doc",
      "B/B",
      float l.written /. float (max 1 l.exported) );
    ("key.us_per_op", "us", us "key");
    ("store.find_us_per_op", "us", us "store.find");
    ("store.hit_ratio", "ratio", float l.hits /. float (max 1 (l.hits + l.misses)));
    ("store.replay_ms", "ms", 1000. *. l.open_s /. float (max 1 l.opens));
    ("gc.minor_words_per_doc", "words", l.minor_words /. docs);
    ("layers.sum_ratio", "ratio", attributed /. l.wall);
    ( "trace.overhead_ratio",
      "ratio",
      l.wall /. docs /. (l.plain_wall /. float (max 1 l.plain_docs)) ) ]

(* For a workload whose own operations are not ingest passes: one traced
   pass for the layer ledger, then one untraced pass over the same
   documents as the base of the tracing overhead. *)
let traced_passes ledger env dir docs ~reference =
  ignore (ingest_pass ~ledger ~verify_every:25 env dir docs ~reference ~deadline:infinity);
  let p = ingest_pass ~verify_every:25 env dir docs ~reference ~deadline:infinity in
  ledger.plain_docs <- p.done_docs;
  ledger.plain_wall <- p.loop_s

let override base extra =
  List.map
    (fun (n, u, v) ->
       match List.find_opt (fun (n', _, _) -> n = n') extra with
       | Some m -> m
       | None -> (n, u, v))
    base

(* ------------------------------------------------------------------ *)
(* Results                                                            *)
(* ------------------------------------------------------------------ *)

type result = {
  e2e : (string * string * float) list;
  layers : (string * string * float) list;
  notes : (string * string * float) list;  (* printed, not in the JSON *)
}

(* ------------------------------------------------------------------ *)
(* ingest-cold                                                        *)
(* ------------------------------------------------------------------ *)

let ingest_cold o =
  let n = corpus_size o in
  let docs = corpus ~seed:o.seed ~salt:0xC01DL n in
  let reference = Array.make n None in
  let truth = new_truth () in
  let best = Array.make n infinity in
  let best_chunk = Array.make ((n + chunk - 1) / chunk) infinity in
  let best_close = ref infinity and best_setup = ref infinity in
  let ledger = new_ledger () in
  let busy = ref 0. and done_docs = ref 0 in
  let deadline = now () +. o.seconds in
  let pass = ref 0 in
  let dir = Printf.sprintf "%s/cold-%d" work_root (Unix.getpid ()) in
  while now () < deadline do
    (* Set-up as a batch run pays it: grammar load, then Store.open_ of
       the fresh store (timed inside the pass). *)
    let g0 = now () in
    let env = env_of (load_grammar ()) in
    let load_s = now () -. g0 in
    let traced = o.trace && !pass mod 2 = 0 in
    let p =
      if traced then
        ingest_pass ~ledger ~truth ~verify_every:25 env dir docs ~reference
          ~deadline
      else
        ingest_pass ~best ~best_chunk ~truth ~verify_every:25 env dir docs
          ~reference ~deadline
    in
    best_setup := Float.min !best_setup (load_s +. p.open_s);
    if not traced then begin
      if p.done_docs = n then best_close := Float.min !best_close p.close_s;
      busy := !busy +. p.loop_s +. p.close_s;
      done_docs := !done_docs + p.done_docs;
      ledger.plain_docs <- ledger.plain_docs + p.done_docs;
      ledger.plain_wall <- ledger.plain_wall +. p.loop_s
    end;
    rm_rf dir;
    incr pass
  done;
  if o.trace then Spans.write_jsonl ledger.sp (work_root ^ "/spans-ingest-cold.jsonl");
  (* Best of passes: throughput is the corpus over the summed fastest
     times of its chunks and of Store.close; p50 and p99 are taken
     across documents, each at its fastest pass. *)
  let s = finite_sorted best in
  { e2e =
      [ ("throughput_per_s", "1/s", best_rate n best_chunk !best_close);
        ("p50_ms", "ms", 1000. *. quantile s 0.5);
        ("p99_ms", "ms", 1000. *. quantile s 0.99);
        ("setup_s", "s", !best_setup);
        ("peak_rss_mb", "MB", peak_rss_mb "self");
        ("accuracy", "ratio", accuracy truth.counts) ];
    layers = ingest_layers ledger;
    notes =
      [ ("passes", "count", float !pass);
        ("docs_timed", "count", float !done_docs);
        ("mean_rate", "1/s", float !done_docs /. !busy);
        ("corpus_docs", "count", float n) ]
      @ input_notes truth }

(* ------------------------------------------------------------------ *)
(* ingest-warm                                                        *)
(* ------------------------------------------------------------------ *)

(* What the preparation child hands back through a file. *)
type prepared = {
  bytes : string array;
  p_truth : truth;
  p_layers : (string * string * float) list;
}

let prepare_warm o docs dir out =
  let env = env_of Extractor.Config.std in
  let n = Array.length docs in
  let reference = Array.make n None in
  let truth = new_truth () in
  let ledger = new_ledger () in
  let scratch = dir ^ "-traced" in
  ignore
    (ingest_pass ~truth ~verify_every:25 env dir docs ~reference
       ~deadline:infinity);
  if o.trace then begin
    traced_passes ledger env scratch docs ~reference;
    rm_rf scratch
  end;
  let prepared =
    { bytes = Array.map (function Some b -> b | None -> "") reference;
      p_truth = truth;
      p_layers = (if o.trace then ingest_layers ledger else []) }
  in
  let oc = open_out_bin out in
  Marshal.to_channel oc (prepared, !attempted, !failed, !first_error) [];
  close_out oc

let ingest_warm o =
  let n = corpus_size o in
  let docs = corpus ~seed:o.seed ~salt:0x3A53L n in
  let base = Printf.sprintf "%s/warm-%d" work_root (Unix.getpid ()) in
  let dir = base ^ "/store" and out = base ^ "/prepared.bin" in
  rm_rf base;
  mkdir_p base;
  (* Preparation runs in a child so this process's peak RSS is that of
     the warm path alone. *)
  flush stdout;
  flush stderr;
  (match Unix.fork () with
   | 0 ->
     (try
        prepare_warm o docs dir out;
        Unix._exit 0
      with e ->
        prerr_endline ("warm preparation: " ^ Printexc.to_string e);
        Unix._exit 1)
   | pid ->
     (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "warm preparation failed"));
  let prepared, a, f, e =
    let ic = open_in_bin out in
    let (v : prepared * int * int * string option) = Marshal.from_channel ic in
    close_in ic;
    v
  in
  attempted := !attempted + a;
  failed := !failed + f;
  if !first_error = None then first_error := e;
  if o.inject = Some "truncate-manifest" then begin
    let m = Filename.concat dir "manifest.jsonl" in
    Unix.truncate m (file_size m * 6 / 10)
  end;
  let env = env_of Extractor.Config.std in
  let specs = Array.map (spec env) docs in
  (* Set-up: manifest replay.  The store is closed and reopened between
     passes [replays] times over the run, so the replays sample the whole
     run rather than one moment of it; each open serves the passes after
     it. *)
  let setup = ref infinity and hits = ref 0 and misses = ref 0 in
  let reopen () =
    let t0 = now () in
    let s = Store.open_ dir in
    setup := Float.min !setup (now () -. t0);
    check ((Store.stats s).Store.dropped = 0) "manifest lines dropped at replay";
    s
  in
  let retire s =
    let x = Store.stats s in
    check (x.Store.corrupt = 0) "CRC failures on lookup";
    hits := !hits + x.Store.hits;
    misses := !misses + x.Store.misses;
    Store.close s
  in
  let current = ref (reopen ()) in
  let best = Array.make n infinity in
  let best_chunk = Array.make ((n + chunk - 1) / chunk) infinity in
  let sp = Spans.create () in
  let busy = ref 0. and ops = ref 0 in
  let traced_wall = ref 0. and traced_ops = ref 0 in
  let deadline = now () +. o.seconds in
  let replays = 15 in
  let next_replay = ref (now () +. (o.seconds /. float replays)) in
  let pass = ref 0 in
  while now () < deadline do
    let traced = o.trace && !pass mod 2 = 0 in
    let st = !current in
    let p0 = now () in
    let chunk_start = ref p0 in
    let i = ref 0 in
    while !i < n && now () < deadline do
      let d = docs.(!i) in
      let found =
        if traced then begin
          let root = Spans.start sp ~name:"op" ~parent:(-1) ~op:!i in
          let tr = Some { sp; op = !i; parent = root } in
          let key = span tr "key" (fun () -> Key.make ~html:d.html ~spec:specs.(!i)) in
          let r = span tr "store.find" (fun () -> Store.find st key) in
          Spans.stop sp root;
          r
        end
        else begin
          let t0 = now () in
          let key = Key.make ~html:d.html ~spec:specs.(!i) in
          let r = Store.find st key in
          record_min best !i (now () -. t0);
          r
        end
      in
      (match found with
       | Some b ->
         check (String.equal b prepared.bytes.(!i)) (d.id ^ ": lookup bytes differ from the put")
       | None -> check false (d.id ^ ": miss where a hit was due"));
      incr i;
      if (not traced) && (!i mod chunk = 0 || !i = n) then begin
        let t = now () in
        record_min best_chunk ((!i - 1) / chunk) (t -. !chunk_start);
        chunk_start := t
      end
    done;
    let dt = now () -. p0 in
    if traced then begin
      traced_wall := !traced_wall +. dt;
      traced_ops := !traced_ops + !i
    end
    else begin
      busy := !busy +. dt;
      ops := !ops + !i
    end;
    incr pass;
    if now () >= !next_replay && now () < deadline then begin
      retire st;
      current := reopen ();
      next_replay := !next_replay +. (o.seconds /. float replays)
    end
  done;
  let s = Store.stats !current in
  retire !current;
  rm_rf base;
  if o.trace then Spans.write_jsonl sp (work_root ^ "/spans-ingest-warm.jsonl");
  let tbl = Spans.self_times sp in
  let per_op name = 1e6 *. Spans.self_seconds tbl name /. float (max 1 !traced_ops) in
  let hit_ratio = float !hits /. float (max 1 (!hits + !misses)) in
  (* Best of passes, as for ingest-cold: throughput from the fastest
     time of each chunk of lookups, p50 and p99 across documents of
     each one's fastest lookup. *)
  let lat = finite_sorted best in
  { e2e =
      [ ("throughput_per_s", "1/s", best_rate n best_chunk 0.);
        ("p50_ms", "ms", 1000. *. quantile lat 0.5);
        ("p99_ms", "ms", 1000. *. quantile lat 0.99);
        ("setup_s", "s", !setup);
        ("peak_rss_mb", "MB", peak_rss_mb "self");
        ("accuracy", "ratio", accuracy prepared.p_truth.counts) ];
    layers =
      override prepared.p_layers
        [ ("key.us_per_op", "us", per_op "key");
          ("store.find_us_per_op", "us", per_op "store.find");
          ("store.hit_ratio", "ratio", hit_ratio);
          ("store.replay_ms", "ms", 1000. *. !setup);
          ( "layers.sum_ratio",
            "ratio",
            (Spans.self_seconds tbl "key" +. Spans.self_seconds tbl "store.find")
            /. !traced_wall );
          ( "trace.overhead_ratio",
            "ratio",
            !traced_wall /. float (max 1 !traced_ops)
            /. (!busy /. float (max 1 !ops)) ) ];
    notes =
      [ ("passes", "count", float !pass);
        ("lookups_timed", "count", float !ops);
        ("mean_rate", "1/s", float !ops /. !busy);
        ("store_entries", "count", float s.Store.entries);
        ("store_bytes", "B", float s.Store.bytes) ]
      @ input_notes prepared.p_truth }

(* ------------------------------------------------------------------ *)
(* serve-mix                                                          *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; banner : Unix.file_descr }

(* Spawn wqi_serve on an ephemeral port; set-up time runs from the
   spawn to the first /healthz 200.  The port comes from the banner the
   server prints once it is listening. *)
let spawn_server ?cpu ~cache_bytes ~log () =
  if not (Sys.file_exists serve_exe) then failwith (serve_exe ^ " is not built");
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let t0 = now () in
  let pid =
    let args =
      [| serve_exe; "--host"; "127.0.0.1"; "--port"; "0"; "--jobs"; "1";
         "--cache-bytes"; string_of_int cache_bytes |]
    in
    match cpu with
    | None -> Unix.create_process serve_exe args Unix.stdin w err
    | Some cpus ->
      Unix.create_process "taskset"
        (Array.append [| "taskset"; "-c"; cpus |] args)
        Unix.stdin w err
  in
  Unix.close w;
  Unix.close err;
  let started () =
    let line = Buffer.create 128 in
    let byte = Bytes.create 1 in
    let rec read_banner () =
      match Unix.select [ r ] [] [] 30. with
      | [], _, _ -> failwith "wqi_serve printed no banner within 30 s"
      | _ ->
        if Unix.read r byte 0 1 = 0 then failwith "wqi_serve exited at start-up"
        else if Bytes.get byte 0 = '\n' then Buffer.contents line
        else (Buffer.add_bytes line byte; read_banner ())
    in
    let banner = read_banner () in
    let port =
      let colon = String.rindex banner ':' in
      Scanf.sscanf (String.sub banner (colon + 1) (String.length banner - colon - 1))
        "%d" Fun.id
    in
    let c = Client.connect port in
    let status, _ = Client.request c ~meth:"GET" ~target:"/healthz" ~body:"" in
    let setup = now () -. t0 in
    Client.close c;
    if status <> 200 then failwith "wqi_serve /healthz did not answer 200";
    ({ pid; port; banner = r }, setup)
  in
  (* A server that did not come up must not outlive us. *)
  try started ()
  with e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

let stop_server s =
  Unix.kill s.pid Sys.sigterm;
  let _, status = Unix.waitpid [] s.pid in
  Unix.close s.banner;
  status = Unix.WEXITED 0

(* /metrics as (metric name without labels, summed value) pairs. *)
let scrape conn =
  let status, body = Client.request conn ~meth:"GET" ~target:"/metrics" ~body:"" in
  check (status = 200) "/metrics did not answer 200";
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
       if line <> "" && line.[0] <> '#' then
         match String.rindex_opt line ' ' with
         | None -> ()
         | Some sp ->
           let key = String.sub line 0 sp in
           let name =
             match String.index_opt key '{' with
             | Some b -> String.sub key 0 b
             | None -> key
           in
           (match float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
            | Some v ->
              Hashtbl.replace tbl name
                (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.)
            | None -> ()))
    (String.split_on_char '\n' body);
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:0.

(* Zipf(s) over ranks 1..n as a cumulative table; rank r is document r-1. *)
let zipf_cdf n s =
  let w = Array.init n (fun r -> 1. /. (float (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let draw cdf g =
  let u = Prng.float g 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* One keep-alive connection.  [pending] holds the documents of the
   requests sent on it and not yet answered, oldest first; the open loop
   keeps at most one there, with its request id and times. *)
type slot = {
  conn : Client.conn;
  pending : int Queue.t;
  mutable rid : int;
  mutable due : float;
  mutable sent : float;
}

let busy s = not (Queue.is_empty s.pending)

let send_doc docs slot i =
  let d = docs.(i) in
  Client.send slot.conn ~meth:"POST" ~target:("/extract?name=" ^ d.id) ~body:d.html;
  Queue.push i slot.pending

let receive_checked ?on_first_byte expected slot =
  let status, body = Client.receive ?on_first_byte slot.conn in
  let doc = Queue.pop slot.pending in
  check
    (status = 200 && String.equal body expected.(doc))
    (Printf.sprintf "doc-%05d: status %d or body differs from the in-process export"
       doc status)

(* Wait until some busy slot has a response starting, or [timeout]
   seconds pass. *)
let ready slots timeout =
  let busy = List.filter busy (Array.to_list slots) in
  match List.find_opt (fun s -> Client.pending s.conn) busy with
  | Some s -> [ s ]
  | None ->
    let fds = List.map (fun s -> s.conn.Client.fd) busy in
    let r, _, _ = Unix.select fds [] [] timeout in
    if r = [] && timeout >= 30. then failwith "wqi_serve sent no response within 30 s";
    List.filter (fun s -> List.memq s.conn.Client.fd r) busy

let free slots = List.find_opt (fun s -> not (busy s)) (Array.to_list slots)

(* Closed loop: each connection keeps [depth] requests outstanding
   (pipelined), sending the next as soon as a response is in, so the
   server always has a request waiting; the client polls rather than
   sleeps, so throughput does not hinge on how fast the host wakes it.
   Returns completion times. *)
let closed_loop slots docs expected next_doc ~depth ~duration ~max_requests =
  let stop_at = now () +. duration in
  let sent = ref 0 and done_at = Fvec.create () in
  for _ = 1 to depth do
    Array.iter
      (fun s ->
         if !sent < max_requests then (send_doc docs s (next_doc ()); incr sent))
      slots
  done;
  let last = ref (now ()) in
  while Array.exists busy slots do
    match ready slots 0. with
    | [] -> if now () -. !last > 30. then failwith "wqi_serve sent no response within 30 s"
    | rs ->
      List.iter
        (fun s ->
           receive_checked expected s;
           let t = now () in
           last := t;
           Fvec.push done_at t;
           if t < stop_at && !sent < max_requests then begin
             send_doc docs s (next_doc ());
             incr sent
           end)
        rs
  done;
  done_at

(* A run whose load generator could not keep its schedule measured the
   generator, not the server: it reports no result. *)
exception Invalid_run of string

type open_result = {
  due : Fvec.t;
  lat : Fvec.t;  (* done - due *)
  late : Fvec.t;  (* sent - due *)
  svc : Fvec.t;  (* done - sent *)
  requests : int;
  valid : string option;  (* why the run is invalid *)
}

(* Open loop at [rate]: arrival times come from the seeded generator,
   each request is sent when due (or as soon as the connection frees up)
   and timed from when it was due.  A run whose generator falls more
   than [max_lag] behind schedule is invalid, not slow. *)
let open_loop ?sp slots docs expected next_doc arrivals ~rate ~duration =
  let max_lag = 1.0 in
  let start = now () in
  let stop_at = start +. duration in
  let gap () = -.log (1. -. Prng.float arrivals 1.) /. rate in
  let next_due = ref (start +. gap ()) in
  let res = { due = Fvec.create (); lat = Fvec.create (); late = Fvec.create ();
              svc = Fvec.create (); requests = 0; valid = None } in
  let requests = ref 0 and invalid = ref None in
  let complete s =
    let first = ref nan in
    receive_checked ~on_first_byte:(fun () -> first := now ()) expected s;
    let t = now () in
    Fvec.push res.due s.due;
    Fvec.push res.lat (t -. s.due);
    Fvec.push res.late (s.sent -. s.due);
    Fvec.push res.svc (t -. s.sent);
    match sp with
    | None -> ()
    | Some sp ->
      let root = Spans.add sp ~name:"request" ~parent:(-1) ~op:s.rid ~t0:s.due ~t1:t in
      ignore (Spans.add sp ~name:"client.queue" ~parent:root ~op:s.rid ~t0:s.due ~t1:s.sent);
      ignore (Spans.add sp ~name:"client.wait" ~parent:root ~op:s.rid ~t0:s.sent ~t1:!first);
      ignore (Spans.add sp ~name:"client.receive" ~parent:root ~op:s.rid ~t0:!first ~t1:t)
  in
  let sending () = !next_due < stop_at && !invalid = None in
  while sending () || Array.exists busy slots do
    let t = now () in
    match free slots with
    | Some s when sending () && !next_due <= t ->
      if t -. !next_due > max_lag then
        invalid := Some (Printf.sprintf "generator %.0f ms behind schedule" (1000. *. (t -. !next_due)))
      else begin
        s.due <- !next_due;
        s.rid <- !requests;
        s.sent <- t;
        send_doc docs s (next_doc ());
        incr requests;
        next_due := !next_due +. gap ()
      end
    | free_slot ->
      (* With the connection free the client polls the clock until the
         next request is due (the server has nothing to do meanwhile); it
         sleeps only while a response is outstanding, so the server it
         shares a CPU with can run. *)
      if not (free_slot <> None && sending ()) then List.iter complete (ready slots 30.)
  done;
  { res with requests = !requests; valid = !invalid }

(* The [q]-quantile over [window]-second windows of a per-window
   statistic: with a low [q], the windows the host let run at full
   speed. *)
let windowed ?(min_count = 100) ~q ~window ~start times values stat =
  let tbl = Hashtbl.create 64 in
  for i = 0 to times.Fvec.n - 1 do
    let w = int_of_float ((times.Fvec.a.(i) -. start) /. window) in
    let v = Option.value (Hashtbl.find_opt tbl w) ~default:(Fvec.create ()) in
    Fvec.push v values.Fvec.a.(i);
    Hashtbl.replace tbl w v
  done;
  let per = Fvec.create () in
  Hashtbl.iter (fun _ v -> if v.Fvec.n >= min_count then Fvec.push per (stat v)) tbl;
  quantile (Fvec.sorted per) q

let serve_mix o =
  let n = population_size o in
  let docs = corpus ~seed:o.seed ~salt:0x5E7EL n in
  let base = Printf.sprintf "%s/serve-%d" work_root (Unix.getpid ()) in
  rm_rf base;
  mkdir_p base;
  (* Expected bodies: the in-process export of each document under the
     server's default configuration, through the same ingest loop. *)
  let env = env_of Extractor.Config.std in
  let reference = Array.make n None in
  let truth = new_truth () in
  let ledger = new_ledger () in
  ignore
    (ingest_pass ~truth ~verify_every:25 env (base ^ "/ref") docs ~reference
       ~deadline:infinity);
  if o.trace then traced_passes ledger env (base ^ "/ref-traced") docs ~reference;
  let expected = Array.map (function Some b -> b | None -> "") reference in
  let population_bytes = Array.fold_left (fun a b -> a + String.length b) 0 expected in
  let cache_bytes = int_of_float (cache_share *. float population_bytes) in
  if o.inject = Some "corrupt-body" then begin
    let b = Bytes.of_string expected.(0) in
    Bytes.set b 0 (if Bytes.get b 0 = '{' then '[' else '{');
    expected.(0) <- Bytes.to_string b
  end;
  let log = base ^ "/server.log" in
  (* Placement, when a second CPU is known: set-up and the open loop run
     the server on this process's CPU, next to a busy loop at idle
     priority that yields to either whenever it is runnable.  Requests
     then cost local context switches, and the CPU never halts: on a
     virtual machine a halted CPU is woken by the hypervisor, and how
     long that took varied by six times between runs.  The saturating
     closed loop moves the server to the second CPU. *)
  let spinner =
    Option.map
      (fun cpu ->
         Unix.create_process "taskset"
           [| "taskset"; "-c"; cpu; "chrt"; "--idle"; "0"; "sh"; "-c";
              "while :; do :; done" |]
           Unix.stdin Unix.stdout Unix.stderr)
      (Option.map fst o.cpus)
  in
  let stop_spinner () =
    Option.iter (fun pid -> Unix.kill pid Sys.sigkill; ignore (Unix.waitpid [] pid)) spinner
  in
  Fun.protect ~finally:stop_spinner @@ fun () ->
  (* Set-up: spawn to first /healthz 200, repeated, the fastest counted;
     the last server stays up for the workload. *)
  let setup = ref infinity in
  let reps = 15 in
  let server = ref None in
  for r = 1 to reps do
    let s, dt = spawn_server ?cpu:(Option.map fst o.cpus) ~cache_bytes ~log () in
    setup := Float.min !setup dt;
    if r < reps then check (stop_server s) "wqi_serve did not exit 0 on SIGTERM"
    else server := Some s
  done;
  let server = Option.get !server in
  (* On any exception from here on, the server must not outlive us. *)
  let stopped = ref false in
  Fun.protect ~finally:(fun () ->
      if not !stopped then begin
        (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] server.pid)
      end)
  @@ fun () ->
  let slots =
    Array.init 2 (fun _ ->
        { conn = Client.connect server.port; pending = Queue.create (); rid = 0;
          due = 0.; sent = 0. })
  in
  let g = Prng.create (Int64.logxor (Int64.of_int o.seed) 0x21BFL) in
  let cdf = zipf_cdf n zipf_s in
  let next_doc () = draw cdf g in
  let arrivals = Prng.create (Int64.logxor (Int64.of_int o.seed) 0xA441L) in
  (* Warm-up: bring the LRU to its steady state before anything is timed. *)
  ignore
    (closed_loop slots docs expected next_doc ~depth ~duration:(0.15 *. o.seconds)
       ~max_requests:(4 * n));
  let m0 = scrape slots.(0).conn in
  let sp = if o.trace then Some (Spans.create ()) else None in
  let ol =
    open_loop ?sp [| slots.(0) |] docs expected next_doc arrivals ~rate:(open_rate o)
      ~duration:(0.5 *. o.seconds)
  in
  let m1 = scrape slots.(0).conn in
  (* The second connection sat idle through the open loop and the server
     may have timed it out. *)
  Client.close slots.(1).conn;
  slots.(1) <- { (slots.(1)) with conn = Client.connect server.port };
  (* Saturation is measured with the server on a CPU of its own. *)
  Option.iter
    (fun (_, other) ->
       let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
       let pid =
         Unix.create_process "taskset"
           [| "taskset"; "-a"; "-p"; "-c"; other; string_of_int server.pid |]
           Unix.stdin out out
       in
       Unix.close out;
       ignore (Unix.waitpid [] pid))
    o.cpus;
  let done_at =
    closed_loop slots docs expected next_doc ~depth ~duration:(0.35 *. o.seconds)
      ~max_requests:max_int
  in
  let completed = done_at.Fvec.n in
  (* Saturation throughput: the 90th percentile, over consecutive runs
     of 200 completions, of completions per second (not the best: which
     documents a run of 200 drew moves its rate too). *)
  let chunk = 200 in
  let rates = Fvec.create () in
  let k = ref chunk in
  while !k < completed do
    Fvec.push rates (float chunk /. (done_at.Fvec.a.(!k) -. done_at.Fvec.a.(!k - chunk)));
    k := !k + chunk
  done;
  let throughput = quantile (Fvec.sorted rates) 0.9 in
  let m2 = scrape slots.(0).conn in
  let rss = peak_rss_mb (string_of_int server.pid) in
  Array.iter (fun s -> Client.close s.conn) slots;
  check (stop_server server) "wqi_serve did not exit 0 on SIGTERM";
  stopped := true;
  rm_rf base;
  (match sp with
   | Some sp -> Spans.write_jsonl sp (work_root ^ "/spans-serve-mix.jsonl")
   | None -> ());
  Option.iter (fun why -> raise (Invalid_run why)) ol.valid;
  let lat = Fvec.sorted ol.lat and late = Fvec.sorted ol.late in
  let svc = Fvec.sorted ol.svc in
  (* Open-loop latency percentiles: each one-second window (by due
     time) of about a thousand requests gives its own, so its p99 has
     ten beyond it; the run reports the 10th percentile over windows,
     the windows the host let run at full speed. *)
  let open_quantile q =
    windowed ~q:0.1 ~window:1. ~start:ol.due.Fvec.a.(0) ol.due ol.lat (fun v ->
        quantile (Fvec.sorted v) q)
  in
  let mean v = Array.fold_left ( +. ) 0. (Array.sub v.Fvec.a 0 v.Fvec.n) /. float (max 1 v.Fvec.n) in
  let d a b name = b name -. a name in
  let reqs = float (max 1 ol.requests) in
  let extract_ms = 1000. *. d m0 m1 "wqi_stage_seconds_sum" /. reqs in
  let request_ms = 1000. *. d m0 m1 "wqi_request_seconds_sum" /. reqs in
  let hits = d m0 m2 "wqi_cache_hits_total" and misses = d m0 m2 "wqi_cache_misses_total" in
  let late_p99 = 1000. *. quantile late 0.99 in
  let lag_bound_ms = 50. in
  if late_p99 > lag_bound_ms then
    raise
      (Invalid_run
         (Printf.sprintf "generator p99 lag %.3f ms > %.0f ms" late_p99 lag_bound_ms));
  let serve_notes =
    [ ("cache.hit_ratio", "ratio", hits /. Float.max 1. (hits +. misses));
      ("cache.evictions", "count", d m0 m2 "wqi_cache_evictions_total");
      ("serve.extract_ms", "ms", extract_ms);
      ("serve.request_ms", "ms", request_ms);
      ("serve.unattributed_ms", "ms", (1000. *. mean ol.lat) -. request_ms);
      ("serve.shed", "count", d m0 m2 "wqi_shed_total");
      ("loadgen.late_ms", "ms", late_p99);
      ("open.requests", "count", float ol.requests);
      ("open.p90_ms", "ms", 1000. *. quantile lat 0.9);
      ("open.p99_all_ms", "ms", 1000. *. quantile lat 0.99);
      ("open.p999_ms", "ms", 1000. *. quantile lat 0.999);
      ("open.sent_to_done_p50_ms", "ms", 1000. *. quantile svc 0.5);
      ("open.sent_to_done_p99_ms", "ms", 1000. *. quantile svc 0.99);
      ("open.rate_per_s", "1/s", open_rate o);
      ("closed.requests", "count", float completed);
      ("cache_bytes", "B", float cache_bytes);
      ("population_bytes", "B", float population_bytes) ]
  in
  let client_notes =
    match sp with
    | None -> []
    | Some sp ->
      let tbl = Spans.self_times sp in
      List.map
        (fun name -> (name ^ "_ms", "ms", 1000. *. Spans.self_seconds tbl name /. reqs))
        [ "client.queue"; "client.wait"; "client.receive" ]
  in
  { e2e =
      [ ("throughput_per_s", "1/s", throughput);
        ("p50_ms", "ms", 1000. *. open_quantile 0.5);
        ("p99_ms", "ms", 1000. *. open_quantile 0.99);
        ("setup_s", "s", !setup);
        ("peak_rss_mb", "MB", rss);
        ("accuracy", "ratio", accuracy truth.counts) ];
    layers = ingest_layers ledger;
    notes = serve_notes @ client_notes @ input_notes truth }

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result o r =
  let metrics = if o.trace then r.layers else r.e2e in
  let row (name, unit, v) = Printf.printf "  %-30s %18.6f %s\n" name v unit in
  Printf.printf "%s seed=%d seconds=%g trace=%d\n" o.workload o.seed o.seconds
    (if o.trace then 1 else 0);
  List.iter row metrics;
  List.iter row r.notes;
  Printf.printf "  %-30s %18.6f %s\n" "error_rate"
    (float !failed /. float (max 1 !attempted))
    "ratio";
  (match !first_error with Some e -> Printf.printf "  first error: %s\n" e | None -> ());
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  if not finite then Printf.printf "  a metric is not finite\n";
  let fields =
    List.map
      (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (json_number (if Float.is_finite v then v else 0.))
           unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0 && finite) (max 1 !attempted) !failed (String.concat ", " fields)

let usage () =
  prerr_endline
    "usage: wqi_perfbench.exe --workload ingest-cold|ingest-warm|serve-mix \
     --seed N --seconds S --trace 0|1 [--tiny] [--inject corrupt-body|truncate-manifest]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let tiny = ref false and inject = ref None and cpus = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := v = "1"; go rest
    | "--tiny" :: rest -> tiny := true; go rest
    | "--inject" :: v :: rest -> inject := Some v; go rest
    | "--cpus" :: v :: rest ->
      (match String.split_on_char ',' v with
       | [ a; b ] -> cpus := Some (a, b)
       | _ -> usage ());
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace;
    tiny = !tiny; inject = !inject; cpus = !cpus }

let () =
  let o = parse_args () in
  let run =
    match o.workload with
    | "ingest-cold" -> ingest_cold
    | "ingest-warm" -> ingest_warm
    | "serve-mix" -> serve_mix
    | _ -> usage ()
  in
  if not (Sys.file_exists grammar_file) then begin
    prerr_endline ("wqi_perfbench: run from the repository root (" ^ grammar_file ^ " not found)");
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p work_root;
  match run o with
  | r -> print_result o r
  | exception Invalid_run why ->
    Printf.eprintf "%s: invalid run: %s\n" o.workload why;
    exit 3
