(* Schema validator for the BENCH_parse.json regression record emitted
   by main.exe --json.  Wired into the test alias so a change that
   breaks the emitter (or the schema) fails `dune runtest` instead of
   silently rotting the perf trajectory.  JSON parsing lives in
   Json_min (shared with validate_trace_json). *)

open Json_min

(* Pre-arena steady-state allocation per parse (minor words, measured
   at the last boxed-engine commit), keyed by token count.  The arena
   engine must stay strictly below these: creeping allocation on the
   parse path is exactly the regression this record exists to catch. *)
let minor_words_baseline =
  [ (10., 60359.); (15., 68702.); (20., 104327.); (25., 89772.);
    (30., 120548.) ]

(* Pre-arena ns-per-run of the committed full-quota rows.  The tentpole
   gate: parse/25 and parse/30 must hold at least a 3x speedup over the
   boxed engine.  Checked on full runs only — smoke quotas are too
   short for a stable OLS fit. *)
let speedup_floor = [ (25., 681581. /. 3.); (30., 897801. /. 3.) ]

let check_perf ~smoke = function
  | Arr rows ->
    if rows = [] then bad "perf: empty";
    let sized = ref [] in
    List.iteri
      (fun i row ->
         let ctx = Printf.sprintf "perf[%d]" i in
         let name = str (ctx ^ ".name") (field row "name") in
         if name = "" then bad "%s.name: empty" ctx;
         let tokens = positive (ctx ^ ".tokens") (field row "tokens") in
         let ns = positive (ctx ^ ".ns_per_run") (field row "ns_per_run") in
         sized := (tokens, ns, ctx) :: !sized;
         ignore (num (ctx ^ ".r_square") (field row "r_square"));
         ignore (positive (ctx ^ ".created") (field row "created"));
         ignore (non_negative (ctx ^ ".live") (field row "live"));
         (* Guard-pressure counters (schema 3): the hinted run must
            actually exercise guards, admit no more than it tries, and
            never try more than the unhinted reference — hints only ever
            remove candidates. *)
         let tried = positive (ctx ^ ".guards_tried") (field row "guards_tried") in
         let admitted =
           non_negative (ctx ^ ".guards_admitted") (field row "guards_admitted")
         in
         if admitted > tried then
           bad "%s: guards_admitted %g > guards_tried %g" ctx admitted tried;
         ignore (non_negative (ctx ^ ".index_probes") (field row "index_probes"));
         ignore (non_negative (ctx ^ ".index_pruned") (field row "index_pruned"));
         let tried0 =
           positive (ctx ^ ".guards_tried_nohints")
             (field row "guards_tried_nohints")
         in
         if tried > tried0 then
           bad "%s: guards_tried %g > guards_tried_nohints %g" ctx tried tried0;
         (* Allocation counters (schema 5).  The minor-words gate holds
            in smoke runs too: allocation per parse is deterministic,
            unlike the clock. *)
         let minor =
           positive (ctx ^ ".minor_words") (field row "minor_words")
         in
         ignore (non_negative (ctx ^ ".major_words") (field row "major_words"));
         (match List.assoc_opt tokens minor_words_baseline with
          | Some baseline when minor >= baseline ->
            bad
              "%s: minor_words %g >= pre-arena baseline %g at %g tokens \
               (the parse path is allocating again)"
              ctx minor baseline tokens
          | _ -> ());
         if not smoke then
           match List.assoc_opt tokens speedup_floor with
           | Some floor when ns > floor ->
             bad
               "%s: ns_per_run %g > %g at %g tokens (3x floor over the \
                boxed-engine rows)"
               ctx ns floor tokens
           | _ -> ())
      rows;
    (* Monotone-ish ladder (schema 5): with the min-ambiguity pick no
       size may be slower than the next one up by more than 10% — the
       committed parse/20 anomaly, re-asserted forever.  Full runs
       only: smoke-quota OLS fits jitter far beyond 10%. *)
    if not smoke then begin
      let sized =
        List.sort (fun (a, _, _) (b, _, _) -> compare a b) !sized
      in
      let rec walk = function
        | (t1, ns1, ctx1) :: ((t2, ns2, _) :: _ as rest) ->
          if ns1 > 1.10 *. ns2 then
            bad
              "%s: ns_per_run %g at %g tokens exceeds 1.10 * %g at %g \
               tokens (ladder not monotone-ish)"
              ctx1 ns1 t1 ns2 t2;
          walk rest
        | _ -> ()
      in
      walk sized
    end
  | _ -> bad "perf: expected array"

let check_governed g =
  let interfaces governed =
    non_negative "batch120.governed.complete" (field governed "complete")
    +. non_negative "batch120.governed.degraded" (field governed "degraded")
    +. non_negative "batch120.governed.failed" (field governed "failed")
  in
  ignore (positive "batch120.governed.deadline_ms" (field g "deadline_ms"));
  ignore
    (positive "batch120.governed.max_instances" (field g "max_instances"));
  ignore (positive "batch120.governed.seconds" (field g "seconds"));
  ignore (non_negative "batch120.governed.trips" (field g "trips"));
  if interfaces g <= 0. then bad "batch120.governed: no interfaces counted";
  (* Governance must degrade, never fail: a Failed outcome here means an
     exception leaked out of the governed pipeline. *)
  let failed = num "batch120.governed.failed" (field g "failed") in
  if failed <> 0. then bad "batch120.governed.failed: expected 0, got %g" failed;
  (* The instance cap is set below the heaviest interfaces, so a record
     without a degraded outcome checked no degradation at all. *)
  let degraded = num "batch120.governed.degraded" (field g "degraded") in
  if degraded < 1. then
    bad "batch120.governed.degraded: expected >= 1, got %g" degraded;
  let trips = num "batch120.governed.trips" (field g "trips") in
  if trips < 1. then bad "batch120.governed.trips: expected >= 1, got %g" trips

(* Tracing must be free when off (schema 4): the disabled sweep re-runs
   the exact jobs=1 loop, so anything beyond 2% over the recorded
   baseline means a `?trace` branch leaked onto the hot path.  Both
   sides are best of five sweeps.  The gate is one-sided — the disabled
   sweep may beat the baseline by any margin.  The 5 ms absolute
   slack matters since the arena engine: the whole 120-document sweep
   now takes ~30 ms, so a relative-only gate would sit below scheduler
   jitter. *)
let check_trace ~seconds_jobs1 t =
  let off = positive "batch120.trace.off_seconds" (field t "off_seconds") in
  let on = positive "batch120.trace.on_seconds" (field t "on_seconds") in
  ignore (positive "batch120.trace.on_off_ratio" (field t "on_off_ratio"));
  if off > (1.02 *. seconds_jobs1) +. 0.005 then
    bad "batch120.trace.off_seconds: %g > 1.02 * seconds_jobs1 %g + 5 ms \
         (disabled tracing is not free)"
      off seconds_jobs1;
  if on < off *. 0.5 then
    bad "batch120.trace: on_seconds %g implausibly below off_seconds %g" on off

(* Quality records must stay off the hot path (schema 6): computing and
   rendering one record per document is a few list walks over the model
   errors, so the enabled sweep may cost at most 3% over the bare
   full-pipeline sweep (plus the same 5 ms absolute slack as the trace
   gate — the sweeps are tens of milliseconds, each side best of
   five). *)
let check_quality q =
  let off = positive "batch120.quality.off_seconds" (field q "off_seconds") in
  let on = positive "batch120.quality.on_seconds" (field q "on_seconds") in
  ignore (positive "batch120.quality.on_off_ratio" (field q "on_off_ratio"));
  if on > (1.03 *. off) +. 0.005 then
    bad
      "batch120.quality.on_seconds: %g > 1.03 * off_seconds %g + 5 ms \
       (quality records are not cheap any more)"
      on off

let check_batch b =
  ignore (positive "batch120.interfaces" (field b "interfaces"));
  ignore (positive "batch120.avg_tokens" (field b "avg_tokens"));
  ignore (positive "batch120.cores" (field b "cores"));
  ignore (positive "batch120.jobs" (field b "jobs"));
  let seconds_jobs1 =
    positive "batch120.seconds_jobs1" (field b "seconds_jobs1")
  in
  ignore (positive "batch120.seconds_jobsN" (field b "seconds_jobsN"));
  ignore (positive "batch120.speedup" (field b "speedup"));
  ignore (positive "batch120.instances_created" (field b "instances_created"));
  check_trace ~seconds_jobs1 (field b "trace");
  check_quality (field b "quality");
  check_governed (field b "governed")

let () =
  let file =
    match Sys.argv with
    | [| _; file |] -> file
    | _ ->
      prerr_endline "usage: validate_bench_json FILE";
      exit 2
  in
  match
    let j = parse (read_file file) in
    let version = num "schema_version" (field j "schema_version") in
    if version <> 6. then bad "schema_version: expected 6, got %g" version;
    let smoke =
      match field j "smoke" with
      | Bool b -> b
      | _ -> bad "smoke: expected bool"
    in
    check_perf ~smoke (field j "perf");
    check_batch (field j "batch120")
  with
  | () -> Printf.printf "%s: schema ok\n" file
  | exception Bad msg ->
    Printf.eprintf "%s: INVALID — %s\n" file msg;
    exit 1
