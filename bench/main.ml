(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sections 3.1, 4.2.1, 5.1 and 6), plus the extension
   experiments listed in DESIGN.md.

   Usage: main.exe [--json FILE] [--smoke] [section ...]
   Sections: fig4a fig4b fig15 perf batch120 ablation-ambiguity
             ablation-components baseline refinement derivation
             clustering.  No arguments = all of these.  The opt-in
             sections layers (per-layer us and minor words per document
             of the ingest-cold path) and startup (us and minor words
             of each grammar-load step and of a fresh store open) run
             only when named.

   --json FILE writes the measurements of the perf and batch120 sections
   (Bechamel OLS ns/run per size, the lowest of 5 fits on full runs,
   batch wall-clock at jobs=1 and jobs=N, instance counters) as a
   machine-readable regression record; --smoke shrinks the Bechamel
   quota so the harness itself can be exercised from the test suite
   (see bench/validate_bench_json.ml). *)

module Dataset = Wqi_corpus.Dataset
module Generator = Wqi_corpus.Generator
module Pattern = Wqi_corpus.Pattern
module Survey = Wqi_survey.Survey
module Eval = Wqi_eval.Eval
module Metrics = Wqi_metrics.Metrics
module Engine = Wqi_parser.Engine
module Tokenize = Wqi_token.Tokenize
module Pool = Wqi_parallel.Pool

let header title =
  Format.printf "@.============================================================@.";
  Format.printf "%s@." title;
  Format.printf "============================================================@."

let note fmt = Format.printf ("  " ^^ fmt ^^ "@.")

(* Measurements collected for --json; filled in by the perf and
   batch120 sections when they run. *)
type perf_row = {
  row_name : string;
  row_tokens : int;
  row_ns_per_run : float;
  row_r_square : float;
  row_created : int;
  row_live : int;
  row_guards_tried : int;
  row_guards_admitted : int;
  row_index_probes : int;
  row_index_pruned : int;
  row_guards_tried_nohints : int;
      (* guard pressure of the same parse with spatial hints disabled:
         the regression record for the candidate-indexing optimization *)
  row_minor_words : float;
  row_major_words : float;
      (* words allocated per steady-state parse (schema 5): the
         regression record for the arena engine — the validator gates
         minor words against the pre-arena baselines *)
}

type governed_result = {
  g_deadline_ms : int;
  g_max_instances : int;
  g_seconds : float;
  g_complete : int;
  g_degraded : int;
  g_failed : int;
  g_trips : int;
}

type batch_result = {
  b_interfaces : int;
  b_avg_tokens : float;
  b_cores : int;  (* Domain.recommended_domain_count () on this machine *)
  b_jobs : int;
  b_seconds_jobs1 : float;
  b_seconds_jobsn : float;
  b_instances_created : int;
  b_trace_off_seconds : float;  (* same sweep, tracing explicitly off *)
  b_trace_on_seconds : float;   (* same sweep, fresh trace per document *)
  b_quality_off_seconds : float;
      (* full-pipeline sweep with quality records off *)
  b_quality_on_seconds : float;
      (* same sweep computing + rendering a quality record per document:
         the wqi_batch --quality-jsonl / wqi_crawl pattern, gated at
         1.03x in the validator *)
  b_governed : governed_result;
}

let smoke = ref false
let json_perf : perf_row list option ref = ref None
let json_batch : batch_result option ref = ref None

(* ------------------------------------------------------------------ *)
(* Figure 4(a): vocabulary growth over sources                         *)
(* ------------------------------------------------------------------ *)

let fig4a () =
  header
    "Figure 4(a) — vocabulary growth over sources (Basic dataset)\n\
     paper: curve flattens rapidly; later domains mostly reuse patterns";
  let ds = Dataset.basic () in
  let occs = Survey.occurrences ds.sources in
  let curve = Survey.growth_curve occs in
  Format.printf "  %-8s %-14s %s@." "source" "domain" "distinct patterns seen";
  List.iteri
    (fun i (index, seen) ->
       if index = 1 || index mod 10 = 0 || index = List.length curve then
         let occ = List.nth occs i in
         Format.printf "  %-8d %-14s %d@." index occ.Survey.domain seen)
    curve;
  let news = Survey.domain_first_new_pattern occs in
  Format.printf "  new patterns introduced per domain:@.";
  List.iter (fun (d, n) -> Format.printf "    %-14s %d@." d n) news

(* ------------------------------------------------------------------ *)
(* Figure 4(b): pattern frequencies over ranks                          *)
(* ------------------------------------------------------------------ *)

let fig4b () =
  header
    "Figure 4(b) — condition-pattern frequency by rank (Basic dataset)\n\
     paper: characteristic Zipf distribution; head patterns dominate";
  let ds = Dataset.basic () in
  let freq = Survey.frequency_by_rank (Survey.occurrences ds.sources) in
  Format.printf "  %-4s %-22s %-6s %s@." "rank" "pattern" "total"
    "per-domain (Books/Automobiles/Airfares)";
  List.iteri
    (fun i (p, total, breakdown) ->
       Format.printf "  %-4d %-22s %-6d %s@." (i + 1) (Pattern.name p) total
         (String.concat "/"
            (List.map (fun (_, n) -> string_of_int n) breakdown)))
    freq

(* ------------------------------------------------------------------ *)
(* Figure 15: precision and recall over the four datasets              *)
(* ------------------------------------------------------------------ *)

let print_distribution label dist =
  Format.printf "  %-10s" label;
  List.iter (fun (_t, pct) -> Format.printf " %6.1f" pct) dist;
  Format.printf "@."

let fig15 () =
  header
    "Figure 15 — extraction accuracy over the four datasets\n\
     paper: ~0.85 overall P/R on Basic/NewSource/NewDomain, >0.80 on\n\
     Random; NewSource slightly better than Basic (simpler forms)";
  let reports = List.map Eval.run (Dataset.all ()) in
  Format.printf "@.Figure 15(a) — source distribution over precision@.";
  Format.printf "  %-10s %6s %6s %6s %6s %6s %6s@." "" ">=1.0" ">=.9" ">=.8"
    ">=.7" ">=.6" ">=0";
  List.iter
    (fun r -> print_distribution r.Eval.dataset (Eval.precision_distribution r))
    reports;
  Format.printf "@.Figure 15(b) — source distribution over recall@.";
  Format.printf "  %-10s %6s %6s %6s %6s %6s %6s@." "" ">=1.0" ">=.9" ">=.8"
    ">=.7" ">=.6" ">=0";
  List.iter
    (fun r -> print_distribution r.Eval.dataset (Eval.recall_distribution r))
    reports;
  Format.printf "@.Figure 15(c) — average per-source precision and recall@.";
  Format.printf "  %-10s %9s %9s@." "" "precision" "recall";
  List.iter
    (fun r ->
       Format.printf "  %-10s %9.3f %9.3f@." r.Eval.dataset r.Eval.avg_precision
         r.Eval.avg_recall)
    reports;
  Format.printf "@.Figure 15(d) — overall precision and recall@.";
  Format.printf "  %-10s %9s %9s %9s@." "" "precision" "recall" "accuracy";
  List.iter
    (fun r ->
       Format.printf "  %-10s %9.3f %9.3f %9.3f@." r.Eval.dataset
         r.Eval.overall_precision r.Eval.overall_recall
         (Metrics.accuracy ~precision:r.Eval.overall_precision
            ~recall:r.Eval.overall_recall))
    reports

(* ------------------------------------------------------------------ *)
(* Section 5.1: parsing time                                           *)
(* ------------------------------------------------------------------ *)

(* Interfaces of increasing size, taken from generated Books sources. *)
let sized_interfaces () =
  let g = Wqi_corpus.Prng.create 0xBEEFL in
  let domain = Wqi_corpus.Vocabulary.find "Books" in
  let sources =
    List.init 40 (fun i ->
        Generator.generate g
          ~id:(Printf.sprintf "perf-%02d" i)
          ~domain
          ~complexity:(if i mod 2 = 0 then `Simple else `Rich)
          ~oog_prob:0. ())
  in
  let with_tokens =
    List.map
      (fun (s : Generator.source) ->
         let tokens = Tokenize.of_html s.html in
         let r = Engine.parse Wqi_stdgrammar.Std.compiled tokens in
         (tokens, s, r.Engine.stats.Engine.created))
      sources
  in
  (* Pick one interface near each target size; among equally-near
     candidates take the least ambiguous one (fewest instances
     created).  Token count alone mixes Simple and Rich documents into
     the same ladder — a Rich 20-token form can create more instances
     than a Simple 30-token one, which makes ns-per-run non-monotone in
     size and made the committed parse/20 row slower than parse/25.
     The min-ambiguity tie-break keeps the ladder's parse work itself
     monotone, which the validator now asserts. *)
  let pick target =
    List.fold_left
      (fun best (tokens, s, created) ->
         let d = abs (List.length tokens - target) in
         match best with
         | Some (bd, bc, _, _) when (bd, bc) <= (d, created) -> best
         | _ -> Some (d, created, tokens, s))
      None with_tokens
    |> Option.get
    |> fun (_, _, tokens, s) -> (tokens, s)
  in
  let picks = List.map pick [ 10; 15; 20; 25; 30; 40 ] in
  (* Deduplicate interfaces that ended up closest to several targets. *)
  List.sort_uniq
    (fun (a, _) (b, _) -> compare (List.length a) (List.length b))
    picks

let perf () =
  header
    "Section 5.1 — parsing time vs interface size (Bechamel, OLS)\n\
     paper (2004 hardware): ~1 s at 25 tokens; expect the same shape\n\
     (superlinear growth) at far smaller absolute times";
  let open Bechamel in
  let interfaces = sized_interfaces () in
  (* One shared pack: the measurement is the parse itself, on the arena
     engine's steady state (pooled arenas, precompiled dispatch tables)
     — grammar compilation is a per-process cost, not a per-parse one,
     and at these sizes it would dominate the row. *)
  let pack = Wqi_stdgrammar.Std.compiled in
  let tests =
    List.map
      (fun (tokens, _s) ->
         Test.make
           ~name:(Printf.sprintf "parse/%02d-tokens" (List.length tokens))
           (Staged.stage (fun () ->
                ignore (Engine.parse pack tokens))))
      interfaces
  in
  let test = Test.make_grouped ~name:"parse" ~fmt:"%s %s" tests in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let quota = if !smoke then 0.05 else 0.5 in
  let cfg =
    Benchmark.cfg ~limit:100 ~stabilize:true ~quota:(Time.second quota) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  (* One OLS fit is one sample of a host whose speed drifts between
     runs, so full runs measure the ladder [repeats] times and keep each
     row's lowest estimate, with that run's r^2. *)
  let repeats = if !smoke then 1 else 5 in
  let best = Hashtbl.create 8 in
  for _ = 1 to repeats do
    let raw = Benchmark.all cfg instances test in
    Hashtbl.iter
      (fun name result ->
         let estimate =
           match Analyze.OLS.estimates result with
           | Some (e :: _) -> e
           | _ -> nan
         in
         let r2 = Option.value ~default:nan (Analyze.OLS.r_square result) in
         match Hashtbl.find_opt best name with
         | Some (e, _) when not (estimate < e || Float.is_nan e) -> ()
         | _ -> Hashtbl.replace best name (estimate, r2))
      (Analyze.all ols Toolkit.Instance.monotonic_clock raw)
  done;
  let rows =
    Hashtbl.fold (fun name fit acc -> (name, fit) :: acc) best []
    |> List.sort compare
  in
  (* One plain run per size for the instance counters the OLS fit
     cannot see, plus a hints-off run for the guard-pressure comparison
     and a counted loop against the Gc allocation counters (schema 5) —
     Bechamel's clock fit says nothing about allocation pressure, and
     the arena engine's whole point is that steady-state parses barely
     allocate. *)
  let nohints =
    { Engine.default_options with Engine.use_hints = false }
  in
  let alloc_per_parse tokens =
    (* Warm-up seeds the arena pool so growth is not billed to the
       measured iterations. *)
    ignore (Engine.parse pack tokens);
    let iters = if !smoke then 5 else 50 in
    (* [Gc.counters], not [quick_stat]: only the former includes the
       words allocated since the last minor collection. *)
    let m0, _, j0 = Gc.counters () in
    for _ = 1 to iters do
      ignore (Engine.parse pack tokens)
    done;
    let m1, _, j1 = Gc.counters () in
    let per c0 c1 = (c1 -. c0) /. float_of_int iters in
    (per m0 m1, per j0 j1)
  in
  let stats_by_name =
    List.map
      (fun (tokens, _s) ->
         let r = Engine.parse pack tokens in
         let r0 = Engine.parse ~options:nohints pack tokens in
         let minor, major = alloc_per_parse tokens in
         ( Printf.sprintf "parse parse/%02d-tokens" (List.length tokens),
           (List.length tokens, r.Engine.stats, r0.Engine.stats, minor, major) ))
      interfaces
  in
  Format.printf "  %-22s %12s %8s %10s  %s@." "test" "time/run" "r^2"
    "minor w" "guards hinted/unhinted (admit rate)";
  let collected =
    List.filter_map
      (fun (name, (estimate, r2)) ->
         match List.assoc_opt name stats_by_name with
         | None ->
           Format.printf "  %-22s %9.3f ms %8.4f@." name (estimate /. 1e6) r2;
           None
         | Some (tokens, stats, stats0, minor, major) ->
           Format.printf "  %-22s %9.3f ms %8.4f %10.0f  %d/%d (%.2f)@." name
             (estimate /. 1e6) r2 minor stats.Engine.guards_tried
             stats0.Engine.guards_tried
             (float_of_int stats.Engine.guards_admitted
              /. float_of_int (max 1 stats.Engine.guards_tried));
           Some
             { row_name = name;
               row_tokens = tokens;
               row_ns_per_run = estimate;
               row_r_square = r2;
               row_created = stats.Engine.created;
               row_live = stats.Engine.live;
               row_guards_tried = stats.Engine.guards_tried;
               row_guards_admitted = stats.Engine.guards_admitted;
               row_index_probes = stats.Engine.index_probes;
               row_index_pruned = stats.Engine.index_pruned;
               row_guards_tried_nohints = stats0.Engine.guards_tried;
               row_minor_words = minor;
               row_major_words = major })
      rows
  in
  json_perf := Some collected

let batch120 () =
  header
    "Section 5.1 — batch parse of 120 interfaces (avg size ~22)\n\
     paper (2004 hardware): under 100 s; parsing time only";
  let g = Wqi_corpus.Prng.create 0x120L in
  let domains = Wqi_corpus.Vocabulary.core_three in
  let sources =
    List.init 120 (fun i ->
        Generator.generate g
          ~id:(Printf.sprintf "batch-%03d" i)
          ~domain:(List.nth domains (i mod 3))
          ~complexity:`Rich ~oog_prob:0.05 ())
  in
  let tokenized =
    List.map (fun (s : Generator.source) -> Tokenize.of_html s.html) sources
    |> Array.of_list
  in
  let sizes = Array.map List.length tokenized in
  let avg =
    float_of_int (Array.fold_left ( + ) 0 sizes)
    /. float_of_int (Array.length sizes)
  in
  let run_with ~jobs =
    let t0 = Unix.gettimeofday () in
    let results =
      Pool.map_array ~jobs
        (fun tokens -> Engine.parse Wqi_stdgrammar.Std.compiled tokens)
        tokenized
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let created =
      Array.fold_left
        (fun acc (r : Engine.result) -> acc + r.Engine.stats.created)
        0 results
    in
    (elapsed, created)
  in
  (* Best of five: validate_bench_json's timing gates compare sweeps
     of 20-30 ms, where one preemption or GC major is several
     percent. *)
  let best f =
    let b = ref (f ()) in
    for _ = 2 to 5 do
      b := Float.min !b (f ())
    done;
    !b
  in
  (* Both sweeps are timed alike — a first run, which also counts
     instances, then best of five more — so the printed speedup
     compares like with like. *)
  let timed ~jobs =
    let seconds, created = run_with ~jobs in
    (Float.min seconds (best (fun () -> fst (run_with ~jobs))), created)
  in
  let jobs_n = Domain.recommended_domain_count () in
  let seconds_jobs1, created = timed ~jobs:1 in
  let seconds_jobsn =
    if jobs_n = 1 then seconds_jobs1 else fst (timed ~jobs:jobs_n)
  in
  note "interfaces: %d, average size: %.1f tokens" (Array.length tokenized) avg;
  note "total parsing time: %.3f s (%.1f ms/interface) at jobs=1"
    seconds_jobs1
    (1000. *. seconds_jobs1 /. float_of_int (Array.length tokenized));
  note "total parsing time: %.3f s (speedup %.2fx) at jobs=%d" seconds_jobsn
    (seconds_jobs1 /. seconds_jobsn)
    jobs_n;
  note "instances created: %d" created;
  (* Tracing overhead (schema 4): the identical jobs=1 sweep with the
     tracer explicitly disabled, then with a fresh per-document trace —
     the pattern wqi_batch --trace-dir and the server use.  Best of five
     like the baseline above, which the validator gates the disabled
     sweep against at 2%. *)
  let sweep ~traced =
    let t0 = Unix.gettimeofday () in
    ignore
      (Pool.map_array ~jobs:1
         (fun tokens ->
            let trace =
              if traced then Some (Wqi_obs.Trace.create ()) else None
            in
            Engine.parse ?trace Wqi_stdgrammar.Std.compiled tokens)
         tokenized);
    Unix.gettimeofday () -. t0
  in
  let trace_off_seconds = best (fun () -> sweep ~traced:false) in
  let trace_on_seconds = best (fun () -> sweep ~traced:true) in
  note "tracing: off %.3f s, on %.3f s (enabled overhead %+.1f%%)"
    trace_off_seconds trace_on_seconds
    (100. *. (trace_on_seconds /. trace_off_seconds -. 1.));
  (* Quality-record overhead (schema 6): the full pipeline (HTML up)
     over the same corpus, bare vs. computing and rendering one
     Wqi_quality record per document — what --quality-jsonl adds to a
     batch.  Same best-of-five discipline as the trace sweep; the
     validator gates enabled records at 3% of the bare sweep. *)
  let qsweep ~quality =
    let config = Wqi_core.Extractor.Config.default in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (s : Generator.source) ->
         let e = Wqi_core.Extractor.run config (Wqi_core.Extractor.Html s.html) in
         if quality then
           ignore
             (Wqi_quality.Quality.to_json
                (Wqi_quality.Quality.of_extraction ~source:"bench"
                   ~grammar:"std@1" e)))
      sources;
    Unix.gettimeofday () -. t0
  in
  let quality_off_seconds = best (fun () -> qsweep ~quality:false) in
  let quality_on_seconds = best (fun () -> qsweep ~quality:true) in
  note "quality records: off %.3f s, on %.3f s (enabled overhead %+.1f%%)"
    quality_off_seconds quality_on_seconds
    (100. *. (quality_on_seconds /. quality_off_seconds -. 1.));
  (* Governed pass: the same 120 interfaces through the full pipeline
     (HTML up) under an aggressive per-document budget, to measure what
     resource governance costs and how often it trips on a realistic
     corpus.  The instance cap sits below the eight heaviest interfaces
     (they create 128 to 145 instances ungoverned), so those degrade on
     it — deterministically, unlike a deadline trip — and the record
     always holds degraded outcomes to check. *)
  let deadline_ms = 100 in
  let governed_max_instances = 120 in
  let budget =
    Wqi_budget.Budget.make ~deadline_ms ~max_instances:governed_max_instances ()
  in
  let config = Wqi_core.Extractor.Config.(default |> with_budget budget) in
  let tg0 = Unix.gettimeofday () in
  let outcomes =
    List.map
      (fun (s : Generator.source) ->
         (Wqi_core.Extractor.run config (Wqi_core.Extractor.Html s.html))
           .Wqi_core.Extractor.outcome)
      sources
  in
  let governed_seconds = Unix.gettimeofday () -. tg0 in
  let complete_n = ref 0 and degraded_n = ref 0 and failed_n = ref 0 in
  let trips_n = ref 0 in
  List.iter
    (fun (o : Wqi_budget.Budget.outcome) ->
       match o with
       | Wqi_budget.Budget.Complete -> incr complete_n
       | Wqi_budget.Budget.Degraded trips ->
         incr degraded_n;
         trips_n := !trips_n + List.length trips
       | Wqi_budget.Budget.Failed _ -> incr failed_n)
    outcomes;
  note
    "governed (deadline %d ms, max %d instances): %.3f s, %d complete, \
     %d degraded (%d trips), %d failed"
    deadline_ms governed_max_instances governed_seconds !complete_n
    !degraded_n !trips_n !failed_n;
  json_batch :=
    Some
      { b_interfaces = Array.length tokenized;
        b_avg_tokens = avg;
        b_cores = Domain.recommended_domain_count ();
        b_jobs = jobs_n;
        b_seconds_jobs1 = seconds_jobs1;
        b_seconds_jobsn = seconds_jobsn;
        b_instances_created = created;
        b_trace_off_seconds = trace_off_seconds;
        b_trace_on_seconds = trace_on_seconds;
        b_quality_off_seconds = quality_off_seconds;
        b_quality_on_seconds = quality_on_seconds;
        b_governed =
          { g_deadline_ms = deadline_ms;
            g_max_instances = governed_max_instances;
            g_seconds = governed_seconds;
            g_complete = !complete_n;
            g_degraded = !degraded_n;
            g_failed = !failed_n;
            g_trips = !trips_n } }

(* ------------------------------------------------------------------ *)
(* Section 4.2.1: inherent ambiguities                                 *)
(* ------------------------------------------------------------------ *)

let amazon_fragment =
  {|
<form>
<table>
<tr><td>Author:</td><td><input type="text" name="author" size="20"></td></tr>
<tr><td></td><td><input type="radio" name="m" checked> First name/initials and last name<br>
<input type="radio" name="m"> Start of last name<br>
<input type="radio" name="m"> Exact name</td></tr>
<tr><td>Title:</td><td><input type="text" name="title"></td></tr>
<tr><td>Price:</td><td><select name="p"><option>under $5</option><option>$5 to $20</option><option>above $20</option></select></td></tr>
</table>
<input type="submit" value="Search">
</form>|}

let ablation_ambiguity () =
  header
    "Section 4.2.1 — ambiguity statistics on the amazon-style interface\n\
     paper: brute-force parse yields 25 trees and 773 instances (645\n\
     temporary) vs 1 correct tree of 42 instances; expect the same\n\
     blow-up shape under our grammar";
  let tokens = Tokenize.of_html amazon_fragment in
  let run name options =
    let result = Engine.parse ~options Wqi_stdgrammar.Std.compiled tokens in
    Format.printf
      "  %-22s created=%5d live=%5d temporary=%5d pruned=%4d rolled=%4d \
       trees=%3d complete=%b@."
      name result.Engine.stats.created result.Engine.stats.live
      result.Engine.stats.temporary result.Engine.stats.pruned
      result.Engine.stats.rolled_back
      (Engine.count_trees result)
      (result.Engine.complete <> None)
  in
  note "tokens: %d" (List.length tokens);
  run "best-effort (JIT)" Engine.default_options;
  run "late pruning" { Engine.default_options with use_scheduling = false };
  run "exhaustive" { Engine.default_options with use_preferences = false }

(* ------------------------------------------------------------------ *)
(* Extension: component ablation on a Basic slice                      *)
(* ------------------------------------------------------------------ *)

let ablation_components () =
  header
    "Ablation — parser components on the first 30 Basic sources\n\
     (accuracy and created instances per configuration)";
  let ds = Dataset.basic () in
  let slice =
    { ds with sources = List.filteri (fun i _ -> i < 30) ds.sources }
  in
  let run name options =
    let created = ref 0 in
    let extract html =
      let tokens = Tokenize.of_html html in
      let result = Engine.parse ~options Wqi_stdgrammar.Std.compiled tokens in
      created := !created + result.Engine.stats.created;
      List.concat_map
        (fun tree ->
           List.map fst (Wqi_grammar.Instance.collect_conditions tree))
        result.Engine.maximal
      |> List.sort_uniq compare
    in
    let report = Eval.run ~extract slice in
    Format.printf "  %-24s overall P=%.3f R=%.3f  instances=%d@." name
      report.Eval.overall_precision report.Eval.overall_recall !created
  in
  run "full (JIT + preferences)" Engine.default_options;
  run "no scheduling" { Engine.default_options with use_scheduling = false };
  run "no preferences"
    { Engine.default_options with use_preferences = false;
      max_instances = 60_000 }

(* ------------------------------------------------------------------ *)
(* Extension: proximity-heuristic baseline comparison                  *)
(* ------------------------------------------------------------------ *)

let baseline () =
  header
    "Baseline — pairwise proximity heuristic [21] vs best-effort parser\n\
     expectation: the parser wins clearly, especially on operator-rich\n\
     and composite (range/date) conditions";
  Format.printf "  %-10s %28s %28s@." "" "baseline (P / R / acc)"
    "parser (P / R / acc)";
  List.iter
    (fun ds ->
       let b = Eval.run ~extract:Wqi_baseline.Baseline.extract ds in
       let p = Eval.run ds in
       let acc r =
         Metrics.accuracy ~precision:r.Eval.overall_precision
           ~recall:r.Eval.overall_recall
       in
       Format.printf "  %-10s %10.3f / %.3f / %.3f %12.3f / %.3f / %.3f@."
         ds.Dataset.name b.Eval.overall_precision b.Eval.overall_recall (acc b)
         p.Eval.overall_precision p.Eval.overall_recall (acc p))
    (Dataset.all ())

(* ------------------------------------------------------------------ *)
(* Extension: cross-interface refinement (Section 7 future work)       *)
(* ------------------------------------------------------------------ *)

let refinement () =
  header
    "Refinement — leveraging sibling interfaces of the same domain\n\
     (Section 7: conflict resolution + similarity-based recovery of\n\
     missing elements); expect a recall gain, largest on the noisier\n\
     datasets";
  List.iter
    (fun (ds : Dataset.t) ->
       (* First pass: plain extraction, grouped by domain. *)
       let extractions =
         List.map
           (fun (s : Generator.source) ->
              (s, Wqi_core.Extractor.(run Config.default (Html s.html))))
           ds.sources
       in
       let by_domain = Hashtbl.create 8 in
       List.iter
         (fun ((s : Generator.source), e) ->
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt by_domain s.domain)
            in
            Hashtbl.replace by_domain s.domain
              (Wqi_core.Extractor.conditions e :: prev))
         extractions;
       let knowledge_for domain =
         Wqi_refine.Refine.learn
           (Option.value ~default:[] (Hashtbl.find_opt by_domain domain))
       in
       (* Second pass: refine each source with its domain's knowledge. *)
       let score extract_conditions =
         List.fold_left
           (fun acc ((s : Generator.source), e) ->
              Metrics.add acc
                (Metrics.count ~truth:s.truth
                   ~extracted:(extract_conditions s e)))
           Metrics.zero extractions
       in
       let plain =
         score (fun _s e -> Wqi_core.Extractor.conditions e)
       in
       let refined =
         score (fun s e ->
             (Wqi_refine.Refine.refine (knowledge_for s.domain) e)
               .Wqi_model.Semantic_model.conditions)
       in
       Format.printf
         "  %-10s plain P=%.3f R=%.3f  |  refined P=%.3f R=%.3f@."
         ds.Dataset.name (Metrics.precision plain) (Metrics.recall plain)
         (Metrics.precision refined) (Metrics.recall refined))
    (Dataset.all ())

(* ------------------------------------------------------------------ *)
(* Extension: grammar derivation vs training-sample size               *)
(* ------------------------------------------------------------------ *)

let derivation () =
  header
    "Derivation — grammar derived from the first N Basic sources,\n\
     evaluated on Random (Sections 6/7: the grammar is derived from the\n\
     survey; vocabulary convergence implies a small sample suffices)";
  let basic = Dataset.basic () in
  let random = Dataset.random () in
  Format.printf "  %-5s %-6s %-6s %9s %9s@." "N" "prods" "prefs" "precision"
    "recall";
  List.iter
    (fun n ->
       let training = List.filteri (fun i _ -> i < n) basic.sources in
       let g = Wqi_eval.Derive.grammar_from_sources training in
       let _, _, prods, prefs = Wqi_grammar.Grammar.stats g in
       let config =
         Wqi_core.Extractor.Config.(
           default |> with_compiled (Wqi_parser.Engine.compile g))
       in
       let extract html =
         Wqi_core.Extractor.(conditions (run config (Html html)))
       in
       let r = Eval.run ~extract random in
       Format.printf "  %-5d %-6d %-6d %9.3f %9.3f@." n prods prefs
         r.Eval.overall_precision r.Eval.overall_recall)
    [ 1; 3; 5; 10; 25; 50; 100; 150 ]

(* ------------------------------------------------------------------ *)
(* Extension: clustering sources by extracted schemas                  *)
(* ------------------------------------------------------------------ *)

let clustering () =
  header
    "Clustering — Random-dataset sources grouped by their *extracted*\n\
     schemas (the paper's motivating integration application [12]);\n\
     purity is measured against the true domains";
  let ds = Dataset.random () in
  let schemas =
    List.map
      (fun (s : Generator.source) ->
         { Wqi_match.Interface_match.source = s.id;
           conditions =
             Wqi_core.Extractor.(
               conditions (run Config.default (Html s.html))) })
      ds.sources
  in
  let domain_of =
    let table =
      List.map (fun (s : Generator.source) -> (s.id, s.domain)) ds.sources
    in
    fun (sc : Wqi_match.Interface_match.schema) -> List.assoc sc.source table
  in
  List.iter
    (fun threshold ->
       let clusters = Wqi_match.Interface_match.cluster ~threshold schemas in
       let purity = Wqi_match.Interface_match.purity ~label:domain_of clusters in
       Format.printf "  threshold %.2f: %2d clusters, purity %.3f@." threshold
         (List.length clusters) purity)
    [ 0.15; 0.25; 0.35; 0.50 ]

(* ------------------------------------------------------------------ *)
(* Per-layer cost of the ingest path (opt-in)                          *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* The layers of one ingest-cold document, in pipeline order: each is
   timed on its own, over chunks of documents whose inputs the layer
   before it produced. *)
let layer_names =
  [| "html"; "layout"; "classify"; "parse"; "merge"; "export"; "quality";
     "key"; "store.put" |]

(* Best-of-passes microseconds and minor words per document for each
   layer over the benchmark's ingest-cold mix: 3000 seeded generator
   forms over every vocabulary domain, half Simple half Rich, 10%
   out-of-grammar, 20% section headers (seed 1, the ingest-cold salt).
   As in perfbench, each layer's time is the sum over chunks of its
   fastest pass on that chunk: a host whose speed switches within a
   pass still yields its fast figure.  Each pass puts into a fresh
   store under the temporary directory.  Export and quality read an
   extraction made outside the timed regions; each layer's words include its share of the per-chunk
   result arrays (one word per document). *)
let layers () =
  header
    "Per-layer cost of the ingest-cold path (us/doc best of passes,\n\
     minor words/doc)";
  let module Prng = Wqi_corpus.Prng in
  let module Extractor = Wqi_core.Extractor in
  let module Quality = Wqi_quality.Quality in
  let module Key = Wqi_store.Key in
  let module Store = Wqi_store.Store in
  let now = Wqi_budget.Budget.now_s in
  let n = 3000 and passes = 9 and chunk = 100 in
  let g = Prng.create (Int64.logxor 1L 0xC01DL) in
  let docs =
    Array.init n (fun i ->
        let domain = Prng.pick g Wqi_corpus.Vocabulary.all in
        let complexity = if Prng.bernoulli g 0.5 then `Simple else `Rich in
        Generator.generate g ~id:(Printf.sprintf "doc-%05d" i) ~domain
          ~complexity ~oog_prob:0.1 ~header_prob:0.2 ())
  in
  let config = Extractor.Config.default in
  let pack = config.Extractor.Config.grammar in
  let options = config.Extractor.Config.options in
  let width = config.Extractor.Config.width in
  let grammar_id = Quality.grammar_id pack in
  let spec (s : Generator.source) =
    Key.spec ~grammar_name:pack.Engine.name
      ~grammar_version:pack.Engine.version ~name:s.id
      config.Extractor.Config.budget
  in
  let nl = Array.length layer_names in
  let nchunks = (n + chunk - 1) / chunk in
  let best = Array.make_matrix nl nchunks infinity in
  let words = Array.make nl 0. in
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wqi-layers-%d" (Unix.getpid ()))
  in
  for pass = 1 to passes do
    let wds = Array.make nl 0. in
    let i = ref 0 in
    let timed k f =
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let v = f () in
      let t1 = now () in
      wds.(k) <- wds.(k) +. (Gc.minor_words () -. w0);
      let b = best.(k) and ci = !i / chunk in
      b.(ci) <- Float.min b.(ci) (t1 -. t0);
      v
    in
    let dir = Printf.sprintf "%s-%d" base pass in
    let st = Store.open_ dir in
    Fun.protect ~finally:(fun () -> Store.close st; rm_rf dir) @@ fun () ->
    while !i < n do
      let c = Array.sub docs !i (Int.min chunk (n - !i)) in
      let doms =
        timed 0 (fun () ->
            Array.map (fun (s : Generator.source) -> Wqi_html.Parser.parse s.html) c)
      in
      let atoms =
        timed 1 (fun () -> Array.map (Wqi_layout.Engine.render ~width) doms)
      in
      let tokens = timed 2 (fun () -> Array.map Tokenize.of_atoms atoms) in
      let results =
        timed 3 (fun () -> Array.map (Engine.parse ~options pack) tokens)
      in
      ignore
        (timed 4 (fun () -> Array.map2 Extractor.merge_trees tokens results));
      let es =
        Array.map (fun t -> Extractor.run config (Extractor.Tokens t)) tokens
      in
      let bytes =
        timed 5 (fun () ->
            Array.map2
              (fun (s : Generator.source) e ->
                 Extractor.export ~timings:false ~name:s.id e)
              c es)
      in
      let quality =
        timed 6 (fun () ->
            Array.map2
              (fun (s : Generator.source) e ->
                 Quality.of_extraction ~source:s.id ~grammar:grammar_id e)
              c es)
      in
      let keys =
        timed 7 (fun () ->
            Array.map
              (fun (s : Generator.source) -> Key.make ~html:s.html ~spec:(spec s))
              c)
      in
      timed 8 (fun () ->
          Array.iteri
            (fun j k ->
               Store.put st k ~meta:(Quality.to_meta quality.(j)) bytes.(j))
            keys);
      i := !i + chunk
    done;
    Array.blit wds 0 words 0 nl
  done;
  let best = Array.map (Array.fold_left ( +. ) 0.) best in
  let per_doc x = x /. float_of_int n in
  note "%d documents, best of %d passes" n passes;
  Format.printf "  %-10s %10s %14s@." "layer" "us/doc" "minor words/doc";
  Array.iteri
    (fun k name ->
       Format.printf "  %-10s %10.2f %14.0f@." name
         (1e6 *. per_doc best.(k))
         (per_doc words.(k)))
    layer_names;
  Format.printf "  %-10s %10.2f %14.0f@." "sum"
    (1e6 *. per_doc (Array.fold_left ( +. ) 0. best))
    (per_doc (Array.fold_left ( +. ) 0. words))

(* ------------------------------------------------------------------ *)
(* Start-up cost of the ingest path (opt-in)                           *)
(* ------------------------------------------------------------------ *)

(* The set-up an ingest run pays before its first document, step by
   step: reading examples/grammars/std.wqg, the s-expression reader,
   [Loader.parse] (reader included), [Algebra.instantiate],
   [Engine.compile], and opening a fresh store.  Each step runs [reps]
   times on the previous step's output and reports its fastest run in
   microseconds and its minor words (the same on every run; a store is
   closed and removed outside its timing).
   [Extractor.load_grammar] is file read + parse + instantiate +
   compile; with the store open it is perfbench ingest-cold's
   [setup_s]. *)
let startup () =
  header "Start-up cost of the ingest path (us best of runs, minor words)";
  let module G = Wqi_grammar in
  let module Std = Wqi_stdgrammar.Std in
  let module Store = Wqi_store.Store in
  let path = "examples/grammars/std.wqg" in
  let path =
    if Sys.file_exists path then path else Filename.concat ".." path
  in
  let reps = if !smoke then 5 else 300 in
  let measure ?(after = ignore) f =
    let best = ref infinity and words = ref 0. in
    for _ = 1 to reps do
      let w0 = Gc.minor_words () in
      let t0 = Wqi_budget.Budget.now_s () in
      let v = f () in
      let t1 = Wqi_budget.Budget.now_s () in
      words := Gc.minor_words () -. w0;
      best := Float.min !best (t1 -. t0);
      after v
    done;
    (1e6 *. !best, !words)
  in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let text = read () in
  let ok = function Ok v -> v | Error _ -> failwith "startup: std.wqg" in
  let decl = ok (G.Loader.parse ~env:Std.env ~file:path text) in
  let grammar = ok (G.Algebra.instantiate Std.env decl) in
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wqi-startup-%d" (Unix.getpid ()))
  in
  let opens = ref 0 in
  let open_store () =
    incr opens;
    let dir = Printf.sprintf "%s-%d" base !opens in
    (dir, Store.open_ dir)
  in
  let close_store (dir, st) =
    Store.close st;
    rm_rf dir
  in
  let rows =
    [ ("file read", measure read);
      ("Sexp.parse_string", measure (fun () -> G.Sexp.parse_string text));
      ("Loader.parse", measure (fun () -> G.Loader.parse ~env:Std.env ~file:path text));
      ("Algebra.instantiate", measure (fun () -> G.Algebra.instantiate Std.env decl));
      ("Engine.compile", measure (fun () -> Engine.compile grammar));
      ("Extractor.load_grammar",
       measure (fun () -> Wqi_core.Extractor.load_grammar path));
      ("Store.open_ (fresh)", measure ~after:close_store open_store) ]
  in
  note "%d runs each; each store is closed and removed after its timing" reps;
  Format.printf "  %-24s %10s %12s@." "step" "us" "minor words";
  List.iter
    (fun (name, (us, words)) ->
       Format.printf "  %-24s %10.1f %12.0f@." name us words)
    rows

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sections =
  [ ("fig4a", fig4a); ("fig4b", fig4b); ("fig15", fig15); ("perf", perf);
    ("batch120", batch120); ("ablation-ambiguity", ablation_ambiguity);
    ("ablation-components", ablation_components); ("baseline", baseline);
    ("refinement", refinement); ("derivation", derivation);
    ("clustering", clustering) ]

(* Run only when named: not part of the default "all sections" run. *)
let opt_in_sections = [ ("layers", layers); ("startup", startup) ]

(* ------------------------------------------------------------------ *)
(* JSON regression record (--json)                                     *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let write_json file =
  let oc = open_out file in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema_version\": 6,\n";
  p "  \"smoke\": %b" !smoke;
  (match !json_perf with
   | None -> ()
   | Some rows ->
     p ",\n  \"perf\": [\n";
     List.iteri
       (fun i r ->
          p
            "    {\"name\": \"%s\", \"tokens\": %d, \"ns_per_run\": %s, \
             \"r_square\": %s, \"created\": %d, \"live\": %d, \
             \"guards_tried\": %d, \"guards_admitted\": %d, \
             \"index_probes\": %d, \"index_pruned\": %d, \
             \"guards_tried_nohints\": %d, \"minor_words\": %s, \
             \"major_words\": %s}%s\n"
            (json_escape r.row_name) r.row_tokens
            (json_float r.row_ns_per_run)
            (json_float r.row_r_square)
            r.row_created r.row_live
            r.row_guards_tried r.row_guards_admitted
            r.row_index_probes r.row_index_pruned
            r.row_guards_tried_nohints
            (json_float r.row_minor_words)
            (json_float r.row_major_words)
            (if i = List.length rows - 1 then "" else ","))
       rows;
     p "  ]");
  (match !json_batch with
   | None -> ()
   | Some b ->
     p ",\n  \"batch120\": {\n";
     p "    \"interfaces\": %d,\n" b.b_interfaces;
     p "    \"avg_tokens\": %s,\n" (json_float b.b_avg_tokens);
     p "    \"cores\": %d,\n" b.b_cores;
     p "    \"jobs\": %d,\n" b.b_jobs;
     p "    \"seconds_jobs1\": %s,\n" (json_float b.b_seconds_jobs1);
     p "    \"seconds_jobsN\": %s,\n" (json_float b.b_seconds_jobsn);
     p "    \"speedup\": %s,\n"
       (json_float (b.b_seconds_jobs1 /. b.b_seconds_jobsn));
     p "    \"instances_created\": %d,\n" b.b_instances_created;
     p "    \"trace\": {\n";
     p "      \"off_seconds\": %s,\n" (json_float b.b_trace_off_seconds);
     p "      \"on_seconds\": %s,\n" (json_float b.b_trace_on_seconds);
     p "      \"on_off_ratio\": %s\n"
       (json_float (b.b_trace_on_seconds /. b.b_trace_off_seconds));
     p "    },\n";
     p "    \"quality\": {\n";
     p "      \"off_seconds\": %s,\n" (json_float b.b_quality_off_seconds);
     p "      \"on_seconds\": %s,\n" (json_float b.b_quality_on_seconds);
     p "      \"on_off_ratio\": %s\n"
       (json_float (b.b_quality_on_seconds /. b.b_quality_off_seconds));
     p "    },\n";
     let g = b.b_governed in
     p "    \"governed\": {\n";
     p "      \"deadline_ms\": %d,\n" g.g_deadline_ms;
     p "      \"max_instances\": %d,\n" g.g_max_instances;
     p "      \"seconds\": %s,\n" (json_float g.g_seconds);
     p "      \"complete\": %d,\n" g.g_complete;
     p "      \"degraded\": %d,\n" g.g_degraded;
     p "      \"failed\": %d,\n" g.g_failed;
     p "      \"trips\": %d\n" g.g_trips;
     p "    }\n";
     p "  }");
  p "\n}\n";
  close_out oc;
  Format.eprintf "wrote %s@." file

let () =
  let rec parse_args json acc = function
    | [] -> (json, List.rev acc)
    | "--json" :: file :: rest -> parse_args (Some file) acc rest
    | [ "--json" ] ->
      Format.eprintf "--json requires a file argument@.";
      exit 1
    | "--smoke" :: rest ->
      smoke := true;
      parse_args json acc rest
    | s :: rest -> parse_args json (s :: acc) rest
  in
  let json, requested =
    parse_args None [] (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    if requested = [] then List.map fst sections else requested
  in
  List.iter
    (fun name ->
       match List.assoc_opt name (sections @ opt_in_sections) with
       | Some f -> f ()
       | None ->
         Format.eprintf "unknown section %s; available: %s@." name
           (String.concat ", " (List.map fst (sections @ opt_in_sections)));
         exit 1)
    requested;
  match json with None -> () | Some file -> write_json file
