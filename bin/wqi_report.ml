(* Corpus-level quality reporting over persisted Wqi_quality records.

   wqi_report answers "how well did that crawl extract?" without
   re-running any extraction.  It reads per-document quality records
   either from a quality.jsonl (written by wqi_batch / wqi_crawl
   --quality-jsonl) or directly from a persistent store directory's
   manifest provenance, and renders:

   - overall and per-domain rollups: record count, outcome counts,
     mean score and coverage, conflict/missing totals;
   - Figure-15-style threshold curves — the share of sources whose
     quality score clears each threshold;
   - the N worst sources with their failure reasons;
   - with a BASELINE input, a drift comparison: per-domain mean-score
     deltas of RUN against BASELINE, with regressions beyond
     --drift-threshold flagged and reflected in the exit status (3),
     so CI can gate a re-crawl on "no domain got worse". *)

module Quality = Wqi_quality.Quality
module Agg = Wqi_quality.Quality.Agg
module Store = Wqi_store.Store
module Report = Wqi_store.Report
module Metrics = Wqi_metrics.Metrics

let die fmt =
  Printf.ksprintf
    (fun msg ->
       prerr_endline ("wqi_report: " ^ msg);
       exit 2)
    fmt

let thresholds = [ 0.5; 0.6; 0.7; 0.8; 0.9 ]

(* ------------------------------------------------------------------ *)
(* Loading                                                            *)
(* ------------------------------------------------------------------ *)

let load_jsonl path =
  let ic = try open_in path with Sys_error msg -> die "%s" msg in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let records = ref [] in
       let lineno = ref 0 in
       (try
          while true do
            let line = input_line ic in
            incr lineno;
            if String.trim line <> "" then
              match Quality.of_json line with
              | Ok r -> records := r :: !records
              | Error msg -> die "%s:%d: %s" path !lineno msg
          done
        with End_of_file -> ());
       List.rev !records)

let load_store dir =
  let st = Store.open_ dir in
  let records = ref [] in
  let skipped = ref 0 in
  Store.iter st (fun _key m ->
      match Quality.of_meta m with
      | Some r -> records := r :: !records
      | None -> incr skipped);
  Store.close st;
  if !skipped > 0 then
    Printf.eprintf
      "wqi_report: %s: %d entries predate quality records, skipped\n%!" dir
      !skipped;
  (* Manifest iteration order is hash order; sort so the report is a
     pure function of the store contents. *)
  List.sort
    (fun a b -> String.compare a.Quality.source b.Quality.source)
    !records

let load path =
  if not (Sys.file_exists path) then die "%s: no such file or directory" path
  else if Sys.is_directory path then load_store path
  else load_jsonl path

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let domain_name d = if d = "" then "(unknown)" else d

let curve records =
  Metrics.distribution ~thresholds
    (List.map (fun r -> r.Quality.score) records)

let print_curve indent pairs =
  print_string indent;
  List.iter
    (fun (t, pct) -> Printf.printf "score>=%.1f %5.1f%%  " t pct)
    pairs;
  print_newline ()

let print_cell label (c : Agg.cell) =
  Printf.printf
    "%-24s %6d records  %5d complete %5d degraded %5d failed  mean score \
     %.3f  mean coverage %.3f  conflicts %d  missing %d\n"
    label c.Agg.count c.Agg.complete c.Agg.degraded c.Agg.failed
    (Agg.mean_score c) (Agg.mean_coverage c) c.Agg.conflicts c.Agg.missing

(* Why a source scored the way it did, from its own record.  Rolled-up
   records (store hits) carry only the headline fields, so the detail
   counters can legitimately all be zero. *)
let reason (r : Quality.t) =
  if r.Quality.outcome = "failed" then "failed"
  else begin
    let parts = ref [] in
    if r.Quality.trips > 0 then
      parts := Printf.sprintf "budget trips=%d" r.Quality.trips :: !parts;
    if r.Quality.ambiguity > 0 then
      parts := Printf.sprintf "ambiguity=%d" r.Quality.ambiguity :: !parts;
    if r.Quality.missing > 0 then
      parts := Printf.sprintf "missing=%d" r.Quality.missing :: !parts;
    if r.Quality.conflicts > 0 then
      parts := Printf.sprintf "conflicts=%d" r.Quality.conflicts :: !parts;
    match !parts with
    | [] -> if r.Quality.coverage < 1. then "low coverage" else "-"
    | parts -> String.concat " " parts
  end

let print_worst n records =
  let worst =
    List.stable_sort
      (fun a b -> Float.compare a.Quality.score b.Quality.score)
      records
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: tl -> x :: take (k - 1) tl
  in
  List.iter
    (fun r ->
       Printf.printf "  %.3f  %-32s %-9s coverage %.3f  %s\n" r.Quality.score
         r.Quality.source r.Quality.outcome r.Quality.coverage (reason r))
    (take n worst)

let aggregate records =
  let agg = Agg.create () in
  List.iter (Agg.add agg) records;
  agg

let by_domain records =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
       let cur =
         Option.value ~default:[] (Hashtbl.find_opt tbl r.Quality.domain)
       in
       Hashtbl.replace tbl r.Quality.domain (r :: cur))
    records;
  Hashtbl.fold (fun d rs acc -> (d, List.rev rs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Single-run report                                                  *)
(* ------------------------------------------------------------------ *)

let report_run path records worst json =
  let agg = aggregate records in
  Printf.printf "wqi_report: %s\n\n" path;
  print_cell "overall" (Agg.total agg);
  print_curve "  " (curve records);
  print_newline ();
  let domains = by_domain records in
  if List.length domains > 1 then begin
    print_endline "by domain:";
    List.iter
      (fun (d, rs) ->
         let cell =
           List.assoc d (Agg.domains agg)
         in
         print_cell ("  " ^ domain_name d) cell;
         print_curve "    " (curve rs))
      domains;
    print_newline ()
  end;
  (match Agg.grammars agg with
   | [ _ ] | [] -> ()
   | grammars ->
     print_endline "by grammar:";
     List.iter (fun (g, cell) -> print_cell ("  " ^ g) cell) grammars;
     print_newline ());
  if worst > 0 && records <> [] then begin
    Printf.printf "worst %d sources:\n" (min worst (List.length records));
    print_worst worst records
  end;
  (match json with
   | None -> ()
   | Some out ->
     let total = Agg.total agg in
     let domain_fields =
       List.map
         (fun (d, cell) ->
            ("mean_score:" ^ domain_name d, Report.Float (Agg.mean_score cell)))
         (Agg.domains agg)
     in
     Report.write_file out
       (Report.summary_json ~version:"wqi_report_version"
          ([ ("records", Report.Int total.Agg.count);
             ("complete", Report.Int total.Agg.complete);
             ("degraded", Report.Int total.Agg.degraded);
             ("failed", Report.Int total.Agg.failed);
             ("mean_score", Report.Float (Agg.mean_score total));
             ("mean_coverage", Report.Float (Agg.mean_coverage total));
             ("conflicts", Report.Int total.Agg.conflicts);
             ("missing", Report.Int total.Agg.missing) ]
           @ domain_fields)));
  0

(* ------------------------------------------------------------------ *)
(* Drift mode                                                         *)
(* ------------------------------------------------------------------ *)

let report_drift path base_path records baseline threshold json =
  let agg = aggregate records and base_agg = aggregate baseline in
  let cur_domains = Agg.domains agg and base_domains = Agg.domains base_agg in
  Printf.printf "wqi_report: drift of %s against %s (threshold %.3f)\n\n" path
    base_path threshold;
  let total = Agg.total agg and base_total = Agg.total base_agg in
  let overall_delta = Agg.mean_score total -. Agg.mean_score base_total in
  Printf.printf
    "overall: %d records (baseline %d), mean score %.3f vs %.3f, delta %+.3f\n"
    total.Agg.count base_total.Agg.count (Agg.mean_score total)
    (Agg.mean_score base_total) overall_delta;
  let regressions = ref 0 in
  let deltas = ref [] in
  List.iter
    (fun (d, base_cell) ->
       match List.assoc_opt d cur_domains with
       | None ->
         (* A whole domain disappearing from the re-crawl is the worst
            regression of all. *)
         incr regressions;
         deltas := (d, -.Agg.mean_score base_cell) :: !deltas;
         Printf.printf "  %-24s REGRESSION: domain missing from run \
                        (baseline mean %.3f, %d records)\n"
           (domain_name d) (Agg.mean_score base_cell) base_cell.Agg.count
       | Some cell ->
         let delta = Agg.mean_score cell -. Agg.mean_score base_cell in
         deltas := (d, delta) :: !deltas;
         let flag = delta < -.threshold in
         if flag then incr regressions;
         Printf.printf "  %-24s mean score %.3f vs %.3f, delta %+.3f%s\n"
           (domain_name d) (Agg.mean_score cell)
           (Agg.mean_score base_cell) delta
           (if flag then "  REGRESSION" else ""))
    base_domains;
  List.iter
    (fun (d, cell) ->
       if not (List.mem_assoc d base_domains) then
         Printf.printf "  %-24s new domain (mean score %.3f, %d records)\n"
           (domain_name d) (Agg.mean_score cell) cell.Agg.count)
    cur_domains;
  Printf.printf "\n%d regression%s\n" !regressions
    (if !regressions = 1 then "" else "s");
  (match json with
   | None -> ()
   | Some out ->
     let delta_fields =
       List.rev_map
         (fun (d, delta) -> ("delta:" ^ domain_name d, Report.Float delta))
         !deltas
     in
     Report.write_file out
       (Report.summary_json ~version:"wqi_report_version"
          ([ ("records", Report.Int total.Agg.count);
             ("baseline_records", Report.Int base_total.Agg.count);
             ("mean_score", Report.Float (Agg.mean_score total));
             ("baseline_mean_score",
              Report.Float (Agg.mean_score base_total));
             ("overall_delta", Report.Float overall_delta);
             ("regressions", Report.Int !regressions) ]
           @ delta_fields)));
  if !regressions > 0 then 3 else 0

let run path baseline worst threshold json =
  let records = load path in
  if records = [] then
    Printf.eprintf "wqi_report: %s: no quality records\n%!" path;
  match baseline with
  | None -> report_run path records worst json
  | Some base_path ->
    report_drift path base_path records (load base_path) threshold json

open Cmdliner

let path =
  let doc =
    "Quality records to report on: a quality.jsonl file (from wqi_batch \
     / wqi_crawl --quality-jsonl) or a persistent store directory, \
     whose manifest provenance is rolled up without re-extraction."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN" ~doc)

let baseline =
  let doc =
    "Baseline records (same formats as $(i,RUN)).  Enables drift mode: \
     per-domain mean-score deltas of $(i,RUN) against $(docv), with \
     regressions beyond $(b,--drift-threshold) flagged and exit status \
     3 when any domain regressed."
  in
  Arg.(value & pos 1 (some string) None & info [] ~docv:"BASELINE" ~doc)

let worst =
  let doc = "List the $(docv) worst-scoring sources with their reasons." in
  Arg.(value & opt int 5 & info [ "worst" ] ~docv:"N" ~doc)

let threshold =
  let doc =
    "Drift tolerance: a domain whose mean score drops by more than \
     $(docv) against the baseline counts as a regression."
  in
  Arg.(value & opt float 0.05 & info [ "drift-threshold" ] ~docv:"DELTA" ~doc)

let json =
  let doc =
    "Also write a flat machine-readable summary (rollup fields, or \
     per-domain deltas and the regression count in drift mode) to \
     $(docv), atomically."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "report extraction quality from persisted quality records" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Aggregates per-document Wqi_quality records — from a \
         quality.jsonl or straight from a store directory's manifest — \
         into overall and per-domain rollups, score-threshold \
         distribution curves, and a worst-sources list, entirely from \
         persisted records (no re-extraction).";
      `P
        "With a second input, compares the two runs: per-domain \
         mean-score deltas, regressions beyond the threshold flagged, \
         non-zero exit on any regression — suitable as a CI gate for \
         re-crawls.";
      `S Manpage.s_exit_status;
      `P "0 on success with no regressions; 2 on unreadable or malformed \
          inputs; 3 when drift mode found regressions." ]
  in
  let term =
    Term.(const run $ path $ baseline $ worst $ threshold $ json)
  in
  Cmd.v (Cmd.info "wqi_report" ~version:"1.0.0" ~doc ~man) term

let () = exit (Cmd.eval' cmd)
