(* Batch extractor: run the form extractor over every .html file in a
   directory (e.g. one produced by wqi_corpus_gen) and emit one JSON
   source description per line, plus a human summary on stderr.

   This is the mediator-bootstrap workflow the paper motivates: crawl a
   directory of query interfaces, get machine-readable capability
   descriptions out.  Extraction fans out over --jobs domains; results
   are committed in file order, so the emitted JSONL and the store's
   bytes are identical whatever the parallelism.

   Per-document failures are isolated: a document whose read or
   extraction fails is reported on stderr (as a version-2 failed-source
   JSON line) and counted in the summary, and stdout carries exactly the
   lines of the documents that succeeded — adding a broken document to a
   directory does not perturb the output for the others.  --errors-json
   additionally writes the failures as a machine-readable array.

   With --store DIR the batch becomes resumable: each document's content
   key (normalized HTML ⊕ budget spec ⊕ grammar identity) is probed
   against the persistent store first, and present keys emit the stored
   Export-v2 bytes without re-extracting.  A key miss on a known source
   means the document (or the grammar) changed and is re-extracted;
   store mode therefore emits version-2 extraction lines — the exact
   stored bytes — so a resumed run's stdout is byte-identical to the
   cold run's.  Stores are written in file order as results commit, so
   a store left by a killed run holds a prefix of the sorted input. *)

module Pool = Wqi_parallel.Pool
module Extractor = Wqi_core.Extractor
module Budget = Wqi_budget.Budget
module Trace = Wqi_obs.Trace
module Store = Wqi_store.Store
module Key = Wqi_store.Key
module Report = Wqi_store.Report
module Quality = Wqi_quality.Quality
module Ingest = Wqi_quality.Ingest

(* What one document contributed, in both modes.  [d_bytes] is the line
   to emit on stdout: v1 source descriptions in plain mode, stored /
   fresh Export-v2 bytes in store mode. *)
type disposition =
  | Emit of string
  | Fail of string  (* failure detail for stderr + --errors-json *)

type doc = {
  d_file : string;
  d_disposition : disposition;
  d_outcome : string;  (* "complete" | "degraded" | "failed" | "read-error" *)
  d_store : [ `Off | `Hit | `Changed | `New ];
  d_conditions : int;
  d_errors : bool;  (* the model carried error reports *)
  d_quality : Quality.t option;  (* None only for pre-quality store hits *)
  d_seconds : float;
  d_put : (Key.t * Store.meta * string) option;  (* committed in file order *)
}

(* Trace files are suffixed with the document's content key so stems
   that collide after [remove_extension] — or repeated runs over
   different corpora sharing one --trace-dir — never overwrite each
   other's traces. *)
let write_doc_trace trace_dir file ~key trace =
  match (trace, trace_dir) with
  | Some t, Some tdir ->
    let key_hex =
      match key with Some k -> Key.to_hex k.Key.hash | None -> ""
    in
    let path =
      Filename.concat tdir
        (Trace.doc_file_name ~name:(Filename.remove_extension file)
           ~key:key_hex)
    in
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
         output_string oc (Trace.to_chrome_json t);
         output_char oc '\n')
  | _ -> ()

let process config ?store ?trace_dir dir file =
  let t0 = Budget.now_s () in
  let name = Filename.remove_extension file in
  let doc ?(conditions = 0) ?(errors = false) ?put ~outcome ~store ~quality
      disposition =
    { d_file = file;
      d_disposition = disposition;
      d_outcome = outcome;
      d_store = store;
      d_conditions = conditions;
      d_errors = errors;
      d_quality = quality;
      d_seconds = Budget.now_s () -. t0;
      d_put = put }
  in
  match Cli.read_file (Filename.concat dir file) with
  | exception e ->
    doc (Fail (Printexc.to_string e)) ~outcome:"read-error"
      ~store:(if Option.is_none store then `Off else `New)
      ~quality:
        (Some
           (Quality.failed ~source:file
              ~grammar:(Quality.grammar_id config.Extractor.Config.grammar)
              ()))
  | html ->
    (* The content key names the store entry and suffixes the trace
       file, so it is computed whenever either consumer is active.  One
       trace per document; workers write distinct files, so tracing
       needs no cross-domain coordination. *)
    let key =
      if Option.is_some store || Option.is_some trace_dir then
        Some (Ingest.key config ~name html)
      else None
    in
    let trace = Option.map (fun _ -> Trace.create ()) trace_dir in
    (match
       (Ingest.resolve ?store ?key ?trace config ~name ~source:file html)
         .Ingest.resolved
     with
     | Ingest.Hit (m, bytes) ->
       doc (Emit bytes) ~outcome:m.Store.outcome ~store:`Hit
         ~quality:(Quality.of_meta m)
     | Ingest.Fresh f ->
       write_doc_trace trace_dir file ~key trace;
       let store =
         match store with
         | None -> `Off
         | Some st -> if Store.source_known st file then `Changed else `New
       in
       let q = f.Ingest.quality in
       let doc = doc ~outcome:q.Quality.outcome ~store ~quality:(Some q) in
       (match f.Ingest.extraction with
        | { Extractor.outcome = Budget.Failed err; _ } ->
          doc (Fail err.Budget.message)
        | { Extractor.model; _ } ->
          (* Store mode emits the exact stored bytes; plain mode the v1
             source description. *)
          let line =
            match f.Ingest.bytes with
            | Some bytes -> bytes
            | None -> Wqi_model.Export.source_description ~name model
          in
          doc (Emit line) ?put:f.Ingest.put
            ~conditions:(List.length model.Wqi_model.Semantic_model.conditions)
            ~errors:(model.Wqi_model.Semantic_model.errors <> [])))

let run_guarded dir output jobs grammar_file deadline_ms max_instances
    trace_dir store_dir errors_json quality_jsonl =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Format.eprintf "%s is not a directory@." dir;
    1
  end
  else begin
    (match trace_dir with
     | Some tdir when not (Sys.file_exists tdir) -> Unix.mkdir tdir 0o755
     | _ -> ());
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".html")
      |> List.sort compare
      |> Array.of_list
    in
    let jobs = Cli.jobs jobs in
    (* Load once, share the compiled pack across all worker domains —
       packs are immutable after compile. *)
    let config =
      Cli.config ?grammar:grammar_file ?deadline_ms ?max_instances ()
    in
    let store = Option.map Store.open_ store_dir in
    let t0 = Unix.gettimeofday () in
    let results = Array.make (Array.length files) None in
    (* Value first, manifest line second, all flushed: a kill between
       two commits still leaves a resumable store. *)
    let commit i d =
      (match (store, d.d_put) with
       | Some st, Some (k, meta, bytes) -> Store.put st k ~meta bytes
       | _ -> ());
      results.(i) <- Some d
    in
    Pool.map_ordered ~jobs (process config ?store ?trace_dir dir) ~commit
      files;
    let results = Array.map Option.get results in
    let wall = Unix.gettimeofday () -. t0 in
    (match store with Some st -> Store.close st | None -> ());
    let oc =
      match output with Some path -> open_out path | None -> stdout
    in
    let total_conditions = ref 0 in
    let total_seconds = ref 0. in
    let with_errors = ref 0 in
    let degraded = ref 0 in
    let failed = ref 0 in
    let store_hits = ref 0 in
    let store_misses = ref 0 in
    let re_extracted = ref 0 in
    let errors = ref [] in
    let q_oc = Option.map open_out quality_jsonl in
    Array.iter
      (fun d ->
         (match (q_oc, d.d_quality) with
          | Some qoc, Some q ->
            output_string qoc (Quality.to_json q);
            output_char qoc '\n'
          | _ -> ());
         total_seconds := !total_seconds +. d.d_seconds;
         (match d.d_store with
          | `Hit -> incr store_hits
          | `Changed -> incr re_extracted
          | `New when Option.is_some store -> incr store_misses
          | `New | `Off -> ());
         if d.d_outcome = "degraded" then incr degraded;
         total_conditions := !total_conditions + d.d_conditions;
         if d.d_errors then incr with_errors;
         match d.d_disposition with
         | Emit line ->
           output_string oc line;
           output_char oc '\n'
         | Fail detail ->
           incr failed;
           errors :=
             { Report.path = Filename.concat dir d.d_file;
               outcome = d.d_outcome;
               error = detail }
             :: !errors;
           Format.eprintf "%s@."
             (Wqi_model.Export.failed_source
                ~name:(Filename.remove_extension d.d_file)
                { Budget.error_stage = None; message = detail }))
      results;
    (match q_oc with Some qoc -> close_out qoc | None -> ());
    if output <> None then close_out oc;
    (match errors_json with
     | Some path -> Report.write_file path (Report.errors_json (List.rev !errors))
     | None -> ());
    Format.eprintf
      "%d interfaces, %d conditions extracted, %d with error reports, \
       %d degraded, %d failed, %.2f s extraction (%.2f s wall, %d jobs)@."
      (Array.length files) !total_conditions !with_errors !degraded !failed
      !total_seconds wall jobs;
    if Option.is_some store then
      Format.eprintf
        "store: %d hits, %d new, %d re-extracted (changed source)@."
        !store_hits !store_misses !re_extracted;
    if files = [||] then 1 else 0
  end

let run dir output jobs grammar_file deadline_ms max_instances trace_dir
    store_dir errors_json quality_jsonl =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  try
    run_guarded dir output jobs grammar_file deadline_ms max_instances
      trace_dir store_dir errors_json quality_jsonl
  with Sys_error msg when Cli.is_broken_pipe msg ->
    (* The downstream reader went away mid-stream (e.g. `| head -1`);
       the documents already emitted reached it, so exit clean. *)
    0

open Cmdliner

let dir =
  let doc = "Directory of .html query interfaces." in
  Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR" ~doc)

let output =
  let doc = "Write JSONL here instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let jobs =
  let doc =
    "Extract with $(docv) parallel domains (default: the machine's \
     recommended domain count).  Output order and the bytes written to \
     --store are independent of $(docv)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let grammar_file =
  let doc =
    "Parse every document with the 2P grammar loaded from $(docv) (a \
     .wqg sexp grammar file) instead of the built-in standard grammar.  \
     The grammar is loaded and compiled once and shared across all \
     worker domains."
  in
  Arg.(value & opt (some file) None & info [ "grammar" ] ~docv:"FILE" ~doc)

let deadline_ms =
  let doc =
    "Per-document wall-clock budget in milliseconds; documents that \
     exceed it return degraded (partial) models instead of stalling the \
     batch."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let max_instances =
  let doc = "Per-document cap on parser instances." in
  Arg.(value & opt (some int) None & info [ "max-instances" ] ~docv:"N" ~doc)

let trace_dir =
  let doc =
    "Write one Chrome trace-event JSON per document into $(docv) \
     (created if missing), named \
     $(i,<stem>.<content-key>.trace.json) — the content-key suffix \
     keeps documents with identical stems from overwriting each \
     other's traces."
  in
  Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)

let store_dir =
  let doc =
    "Resumable mode: probe the persistent extraction store at $(docv) \
     (created if missing) before extracting, emit stored bytes for \
     present keys and write fresh extractions back.  Output switches to \
     version-2 extraction JSONL — the exact stored bytes — so an \
     interrupted run re-run with the same arguments produces \
     byte-identical output while re-extracting only documents whose HTML \
     or grammar changed."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let errors_json =
  let doc =
    "Write the per-document failures as a machine-readable JSON array \
     ([{\"path\",\"outcome\",\"error\"}, ...]) to $(docv), atomically."
  in
  Arg.(value & opt (some string) None & info [ "errors-json" ] ~docv:"FILE" ~doc)

let quality_jsonl =
  let doc =
    "Append one Wqi_quality record per document (JSONL, in input order) \
     to $(docv): outcome, token coverage, conflict/missing counts, \
     surviving ambiguity and the scalar quality score.  Store hits \
     rebuild their record from the persisted manifest fields; feed the \
     file to wqi_report for rollups and drift comparisons."
  in
  Arg.(value
       & opt (some string) None
       & info [ "quality-jsonl" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "extract capabilities from a directory of query interfaces" in
  let term =
    Term.(
      const run $ dir $ output $ jobs $ grammar_file $ deadline_ms
      $ max_instances $ trace_dir $ store_dir $ errors_json $ quality_jsonl)
  in
  Cmd.v (Cmd.info "wqi_batch" ~version:"1.0.0" ~doc) term

let () = exit (Cmd.eval' cmd)
