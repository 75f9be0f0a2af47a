(* Crawl-scale ingestion into the persistent extraction store.

   wqi_crawl walks a frontier — one or more directory trees of .html
   files, plus optional --list files of explicit paths — and feeds every
   *new* query interface through the parallel extractor into a
   --store directory:

   - {b Dedup before extraction.}  Crawled corpora repeat themselves:
     the same search form mirrored across a site, or the same markup
     re-serialized with different whitespace.  Each document is
     fingerprinted with a structural signature (tag shape + attributes +
     collapsed text; see Wqi_store.Signature) in a cheap sequential
     pre-pass, and only the first document per signature is extracted —
     later copies are counted as aliases and skipped.
   - {b Resume for free.}  The extract phase probes the store by content
     key first, so re-crawling a frontier re-extracts only documents
     whose bytes (or grammar) changed; everything else is a store hit.
   - {b Failure isolation.}  A document whose read or extraction fails
     is counted, reported (stderr and --errors-json), and never stops
     the crawl.
   - {b Domain classification.}  Unless --no-classify, each extracted
     document is scored against the corpus domain vocabularies
     (keyword-count argmax) and the winning domain name is recorded in
     the store's provenance and tallied in the summary. *)

module Pool = Wqi_parallel.Pool
module Extractor = Wqi_core.Extractor
module Budget = Wqi_budget.Budget
module Store = Wqi_store.Store
module Key = Wqi_store.Key
module Signature = Wqi_store.Signature
module Report = Wqi_store.Report
module Vocabulary = Wqi_corpus.Vocabulary
module Quality = Wqi_quality.Quality

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let n = in_channel_length ic in
       really_input_string ic n)

(* ------------------------------------------------------------------ *)
(* Frontier discovery                                                 *)
(* ------------------------------------------------------------------ *)

(* A frontier entry: [f_id] is the stable document identity recorded as
   the store's source (root-relative path without the extension, or the
   listed path itself), [f_path] where to read it. *)
type fdoc = {
  f_id : string;
  f_path : string;
}

let is_html f = Filename.check_suffix f ".html"

(* Depth-first, entries sorted, so discovery order — and therefore
   which copy of a duplicate becomes the canonical one — is
   deterministic for a given tree. *)
let walk_root root =
  let acc = ref [] in
  let rec go rel abs =
    match Sys.readdir abs with
    | exception Sys_error _ -> ()  (* unreadable subtree: skip, not fatal *)
    | entries ->
      Array.sort compare entries;
      Array.iter
        (fun entry ->
           let abs' = Filename.concat abs entry in
           let rel' = if rel = "" then entry else Filename.concat rel entry in
           if Sys.is_directory abs' then go rel' abs'
           else if is_html entry then
             acc :=
               { f_id = Filename.remove_extension rel'; f_path = abs' }
               :: !acc)
        entries
  in
  go "" root;
  List.rev !acc

let read_list path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let acc = ref [] in
       (try
          while true do
            let line = String.trim (input_line ic) in
            if line <> "" && line.[0] <> '#' then
              acc :=
                { f_id = Filename.remove_extension line; f_path = line }
                :: !acc
          done
        with End_of_file -> ());
       List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Domain classification                                              *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  if m = 0 || m > n then false
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= n - m do
      if String.sub haystack !i m = needle then found := true;
      incr i
    done;
    !found
  end

(* Keyword-count argmax over the corpus vocabularies: one point per
   attribute whose label (or any variant) appears in the page.  Scoring
   attributes rather than raw terms keeps verbose attribute lists from
   dominating.  Zero points everywhere classifies as "" (unknown). *)
let classify html =
  let page = String.lowercase_ascii html in
  let score (d : Vocabulary.domain) =
    List.fold_left
      (fun acc (a : Vocabulary.attribute) ->
         let hit =
           List.exists
             (fun term ->
                term <> "" && contains page (String.lowercase_ascii term))
             (a.Vocabulary.label :: a.Vocabulary.variants)
         in
         if hit then acc + 1 else acc)
      0 d.Vocabulary.attributes
  in
  let best, best_score =
    List.fold_left
      (fun (bn, bs) d ->
         let s = score d in
         if s > bs then (d.Vocabulary.name, s) else (bn, bs))
      ("", 0) Vocabulary.all
  in
  if best_score = 0 then "" else best

(* ------------------------------------------------------------------ *)
(* Extract phase                                                      *)
(* ------------------------------------------------------------------ *)

type result_kind =
  | R_hit
  | R_extracted of [ `Complete | `Degraded ]
  | R_failed of string * string  (* outcome label, detail *)

type cres = {
  r_doc : fdoc;
  r_kind : result_kind;
  r_domain : string;
  r_quality : Quality.t option;  (* None only for pre-quality store hits *)
}

let process config store ~no_classify doc =
  let pack = config.Extractor.Config.grammar in
  let grammar_id = Quality.grammar_id pack in
  match read_file doc.f_path with
  | exception e ->
    { r_doc = doc;
      r_kind = R_failed ("read-error", Printexc.to_string e);
      r_domain = "";
      r_quality =
        Some (Quality.failed ~source:doc.f_id ~grammar:grammar_id ()) }
  | html ->
    let spec =
      Key.spec ~grammar_name:pack.Wqi_parser.Engine.name
        ~grammar_version:pack.Wqi_parser.Engine.version
        ~name:(Filename.basename doc.f_id)
        config.Extractor.Config.budget
    in
    let key = Key.make ~html ~spec in
    (match Store.meta store key with
     | Some m ->
       (* Store hits roll up from the persisted headline fields — this
          is what lets a re-crawl emit a complete quality.jsonl without
          re-extracting anything. *)
       { r_doc = doc;
         r_kind = R_hit;
         r_domain = m.Store.domain;
         r_quality = Quality.of_meta m }
     | None ->
       let domain = if no_classify then "" else classify html in
       let e = Extractor.run config (Extractor.Html html) in
       let q =
         Quality.of_extraction ~source:doc.f_id ~grammar:grammar_id ~domain e
       in
       (match e.Extractor.outcome with
        | Budget.Failed err ->
          { r_doc = doc;
            r_kind = R_failed ("failed", err.Budget.message);
            r_domain = domain;
            r_quality = Some q }
        | Budget.Complete | Budget.Degraded _ ->
          let tag =
            match e.Extractor.outcome with
            | Budget.Degraded _ -> `Degraded
            | _ -> `Complete
          in
          let bytes =
            Extractor.export ~timings:false
              ~name:(Filename.basename doc.f_id)
              e
          in
          Store.put store key ~meta:(Quality.to_meta q) bytes;
          { r_doc = doc;
            r_kind = R_extracted tag;
            r_domain = domain;
            r_quality = Some q }))

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let run roots lists store_dir jobs grammar_file deadline_ms max_instances
    no_classify summary_json errors_json quality_jsonl =
  let jobs =
    match jobs with
    | Some n when n >= 1 -> n
    | Some n ->
      Format.eprintf "--jobs %d: must be >= 1@." n;
      exit 2
    | None -> Domain.recommended_domain_count ()
  in
  let budget =
    match (deadline_ms, max_instances) with
    | None, None -> Budget.unlimited
    | _ -> Budget.make ?deadline_ms ?max_instances ()
  in
  let config = Extractor.Config.(default |> with_budget budget) in
  let config =
    match grammar_file with
    | None -> config
    | Some path ->
      (match Extractor.load_grammar path with
       | Ok pack -> Extractor.Config.with_compiled pack config
       | Error msg ->
         Format.eprintf "%s@." msg;
         exit 2)
  in
  let frontier =
    List.concat_map walk_root roots @ List.concat_map read_list lists
  in
  if frontier = [] then begin
    Format.eprintf "wqi_crawl: empty frontier (no .html documents found)@.";
    1
  end
  else begin
    let t0 = Unix.gettimeofday () in
    (* Pre-extraction dedup: sequential single pass; the signature scan
       is linear in the bytes and orders of magnitude cheaper than the
       extraction it saves. *)
    let seen = Hashtbl.create 1024 in
    let errors = ref [] in
    let aliases = ref 0 in
    let unique = ref [] in
    List.iter
      (fun doc ->
         match read_file doc.f_path with
         | exception e ->
           errors :=
             { Report.path = doc.f_path;
               outcome = "read-error";
               error = Printexc.to_string e }
             :: !errors
         | html ->
           let sg = Signature.structural html in
           (match Hashtbl.find_opt seen sg with
            | Some _canonical -> incr aliases
            | None ->
              Hashtbl.replace seen sg doc.f_id;
              unique := doc :: !unique))
      frontier;
    let unique = Array.of_list (List.rev !unique) in
    let read_errors = List.length !errors in
    let store = Store.open_ store_dir in
    let results =
      Pool.run ~jobs (fun pool ->
          Pool.map_array pool (process config store ~no_classify) unique)
    in
    let store_stats = Store.stats store in
    Store.close store;
    let seconds = Unix.gettimeofday () -. t0 in
    let hits = ref 0 and extracted = ref 0 and degraded = ref 0 in
    let failed = ref 0 in
    let domains = Hashtbl.create 16 in
    let agg = Quality.Agg.create () in
    let q_oc = Option.map open_out quality_jsonl in
    let emit_quality q =
      Quality.Agg.add agg q;
      match q_oc with
      | Some qoc ->
        output_string qoc (Quality.to_json q);
        output_char qoc '\n'
      | None -> ()
    in
    Array.iter
      (fun r ->
         Option.iter emit_quality r.r_quality;
         (match r.r_kind with
          | R_hit -> incr hits
          | R_extracted tag ->
            incr extracted;
            if tag = `Degraded then incr degraded
          | R_failed (outcome, detail) ->
            incr failed;
            errors :=
              { Report.path = r.r_doc.f_path; outcome; error = detail }
              :: !errors;
            Format.eprintf "wqi_crawl: %s: %s (%s)@." r.r_doc.f_path detail
              outcome);
         match r.r_kind with
         | R_failed _ -> ()
         | _ ->
           let d = if r.r_domain = "" then "unknown" else r.r_domain in
           Hashtbl.replace domains d
             (1 + Option.value ~default:0 (Hashtbl.find_opt domains d)))
      results;
    (match q_oc with Some qoc -> close_out qoc | None -> ());
    let errors = List.rev !errors in
    (match errors_json with
     | Some path -> Report.write_file path (Report.errors_json errors)
     | None -> ());
    (match summary_json with
     | Some path ->
       let domain_fields =
         Hashtbl.fold (fun d n acc -> (d, n) :: acc) domains []
         |> List.sort compare
         |> List.map (fun (d, n) -> ("domain:" ^ d, Report.Int n))
       in
       Report.write_file path
         (Report.summary_json ~version:"wqi_crawl_summary_version"
            ([ ("discovered", Report.Int (List.length frontier));
               ("unique", Report.Int (Array.length unique));
               ("aliases", Report.Int !aliases);
               ("store_hits", Report.Int !hits);
               ("extracted", Report.Int !extracted);
               ("degraded", Report.Int !degraded);
               ("failed", Report.Int !failed);
               ("read_errors", Report.Int read_errors);
               ("store_orphaned_bytes", Report.Int store_stats.orphaned_bytes);
               ("mean_score",
                Report.Float
                  (Quality.Agg.mean_score (Quality.Agg.total agg)));
               ("seconds", Report.Float seconds);
               ("jobs", Report.Int jobs) ]
             @ domain_fields))
     | None -> ());
    Format.eprintf
      "wqi_crawl: %d discovered, %d aliases skipped, %d unique; %d store \
       hits, %d extracted (%d degraded), %d failed; %.2f s wall, %d jobs@."
      (List.length frontier) !aliases (Array.length unique) !hits !extracted
      !degraded !failed seconds jobs;
    0
  end

open Cmdliner

let roots =
  let doc =
    "Directory trees to crawl; every .html file below each $(docv) joins \
     the frontier (document identity = root-relative path)."
  in
  Arg.(value & pos_all dir [] & info [] ~docv:"DIR" ~doc)

let lists =
  let doc =
    "Also read frontier paths from $(docv), one per line (blank lines \
     and #-comments ignored).  Repeatable."
  in
  Arg.(value & opt_all file [] & info [ "list" ] ~docv:"FILE" ~doc)

let store_dir =
  let doc =
    "The persistent extraction store to ingest into (created if \
     missing).  Re-crawling probes it by content key, so unchanged \
     documents are hits, not re-extractions."
  in
  Arg.(required & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let jobs =
  let doc =
    "Extract with $(docv) parallel domains (default: the machine's \
     recommended domain count)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let grammar_file =
  let doc = "Parse with the 2P grammar loaded from $(docv) (.wqg sexp)." in
  Arg.(value & opt (some file) None & info [ "grammar" ] ~docv:"FILE" ~doc)

let deadline_ms =
  let doc = "Per-document wall-clock budget in milliseconds." in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let max_instances =
  let doc = "Per-document cap on parser instances." in
  Arg.(value & opt (some int) None & info [ "max-instances" ] ~docv:"N" ~doc)

let no_classify =
  let doc =
    "Skip domain classification; provenance records an empty domain."
  in
  Arg.(value & flag & info [ "no-classify" ] ~doc)

let summary_json =
  let doc =
    "Write the run counters (discovered, unique, aliases, store_hits, \
     extracted, degraded, failed, store_orphaned_bytes, mean_score, \
     per-domain tallies) as one flat JSON object to $(docv), atomically."
  in
  Arg.(value & opt (some string) None & info [ "summary-json" ] ~docv:"FILE" ~doc)

let errors_json =
  let doc =
    "Write per-document failures as a JSON array \
     ([{\"path\",\"outcome\",\"error\"}, ...]) to $(docv), atomically."
  in
  Arg.(value & opt (some string) None & info [ "errors-json" ] ~docv:"FILE" ~doc)

let quality_jsonl =
  let doc =
    "Append one Wqi_quality record per processed document (JSONL) to \
     $(docv): outcome, token coverage, conflicts, surviving ambiguity \
     and the scalar score, with the crawl-classified domain.  Store \
     hits rebuild their record from the persisted manifest fields, so \
     a fully warm re-crawl still emits a complete file; feed it to \
     wqi_report for per-domain rollups and drift comparisons."
  in
  Arg.(value
       & opt (some string) None
       & info [ "quality-jsonl" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "crawl query interfaces into a persistent extraction store" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Walks directory trees (and --list files) of saved HTML query \
         interfaces, deduplicates them by structural signature before \
         extraction, classifies each by domain vocabulary, and runs the \
         parallel extractor into a content-addressed persistent store.  \
         Re-crawling the same frontier is incremental: only documents \
         whose bytes or grammar changed are re-extracted.";
      `P
        "Per-document failures are isolated and reported; the crawl \
         itself fails only on an empty frontier." ]
  in
  let term =
    Term.(
      const run $ roots $ lists $ store_dir $ jobs $ grammar_file
      $ deadline_ms $ max_instances $ no_classify $ summary_json
      $ errors_json $ quality_jsonl)
  in
  Cmd.v (Cmd.info "wqi_crawl" ~version:"1.0.0" ~doc ~man) term

let () = exit (Cmd.eval' cmd)
