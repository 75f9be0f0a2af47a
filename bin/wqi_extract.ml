(* Command-line form extractor: read an HTML query interface and print
   its semantic model (query capabilities), optionally with the token
   set, the parse trees, and parsing diagnostics. *)

module Extractor = Wqi_core.Extractor
module Budget = Wqi_budget.Budget
module Trace = Wqi_obs.Trace
module Quality = Wqi_quality.Quality

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let read_stdin () =
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b stdin 4096
     done
   with End_of_file -> ());
  Buffer.contents b

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  if verbose then Logs.set_level (Some Logs.Debug)

let config_of grammar_file width deadline_ms max_instances =
  let budget =
    match (deadline_ms, max_instances) with
    | None, None -> Budget.unlimited
    | _ -> Budget.make ?deadline_ms ?max_instances ()
  in
  let c = Extractor.Config.(default |> with_budget budget) in
  let c =
    match grammar_file with
    | None -> c
    | Some path ->
      (match Extractor.load_grammar path with
       | Ok pack -> Extractor.Config.with_compiled pack c
       | Error msg ->
         prerr_endline msg;
         exit 2)
  in
  match width with
  | Some w -> Extractor.Config.with_width w c
  | None -> c

(* With SIGPIPE ignored, writing to a closed pipe surfaces as a
   [Sys_error] carrying the strerror text.  A reader like `head` closing
   stdout early is normal pipeline behaviour, not an extraction error. *)
let is_broken_pipe msg =
  let msg = String.lowercase_ascii msg in
  let sub = "broken pipe" in
  let n = String.length msg and m = String.length sub in
  let found = ref false in
  for i = 0 to n - m do
    if String.sub msg i m = sub then found := true
  done;
  !found

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let run_guarded input show_tokens show_trees show_stats show_ascii as_json
    grammar_file width deadline_ms max_instances trace_file profile quality =
  let html =
    match input with Some path -> read_file path | None -> read_stdin ()
  in
  let config = config_of grammar_file width deadline_ms max_instances in
  let trace =
    if trace_file <> None || profile then Some (Trace.create ()) else None
  in
  let e = Extractor.run ?trace config (Extractor.Html html) in
  (match (trace, trace_file) with
   | Some t, Some path ->
     write_file path (Trace.to_chrome_json t ^ "\n")
   | _ -> ());
  (match trace with
   | Some t when profile ->
     (* Stderr, so `--json | jq` style pipelines keep a pure stdout. *)
     prerr_string (Trace.profile t)
   | _ -> ());
  let name =
    match input with Some path -> Filename.basename path | None -> "stdin"
  in
  (* The quality record is always the last stdout line, in text and
     --json mode alike, so `tail -1` scrapes it from either. *)
  let print_quality () =
    if quality then begin
      let pack = config.Extractor.Config.grammar in
      print_endline
        (Quality.to_json
           (Quality.of_extraction ~source:name
              ~grammar:
                (pack.Wqi_parser.Engine.name ^ "@"
                 ^ pack.Wqi_parser.Engine.version)
              e))
    end
  in
  if as_json then begin
    print_endline (Extractor.export ~name e);
    print_quality ();
    exit (if Extractor.conditions e = [] then 1 else 0)
  end;
  if show_ascii then begin
    Format.printf "--- layout@.";
    print_string (Wqi_layout.Debug.ascii_of_html ?width html)
  end;
  if show_tokens then begin
    Format.printf "--- tokens@.";
    List.iter (fun t -> Format.printf "%a@." Wqi_token.Token.pp t) e.tokens
  end;
  if show_trees then
    List.iter
      (fun tree ->
         Format.printf "--- parse tree@.%a@." Wqi_grammar.Instance.pp_tree tree)
      e.trees;
  Format.printf "--- query capabilities@.%a@." Wqi_model.Semantic_model.pp
    e.model;
  (match e.outcome with
   | Budget.Complete -> ()
   | outcome -> Format.printf "--- outcome@.%a@." Budget.pp_outcome outcome);
  if show_stats then begin
    let d = e.diagnostics in
    Format.printf "--- diagnostics@.";
    Format.printf
      "tokens=%d instances=%d live=%d pruned=%d trees=%d complete=%b@."
      d.token_count d.parse_stats.created d.parse_stats.live
      d.parse_stats.pruned d.tree_count d.complete;
    Format.printf "html=%.1f ms layout=%.1f ms classify=%.1f ms parse=%.1f ms \
                   merge=%.1f ms total=%.1f ms@."
      (1000. *. d.html_seconds) (1000. *. d.layout_seconds)
      (1000. *. d.classify_seconds)
      (1000. *. d.parse_seconds)
      (1000. *. d.merge_seconds)
      (1000. *. d.total_seconds)
  end;
  Format.pp_print_flush Format.std_formatter ();
  print_quality ();
  if e.model.conditions = [] then 1 else 0

let run input show_tokens show_trees show_stats show_ascii as_json verbose
    grammar_file width deadline_ms max_instances trace_file profile quality =
  setup_logs verbose;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  try
    run_guarded input show_tokens show_trees show_stats show_ascii as_json
      grammar_file width deadline_ms max_instances trace_file profile quality
  with Sys_error msg when is_broken_pipe msg ->
    (* The downstream reader went away mid-output; what was written is
       whatever it asked for.  Drop anything still buffered in the
       formatter — its at_exit flush would re-raise into the dead pipe —
       and exit clean so pipelines like `wqi_extract --json f.html |
       head -1` succeed.  (Stdlib channel flushes at exit already
       swallow write errors.) *)
    Format.pp_set_formatter_output_functions Format.std_formatter
      (fun _ _ _ -> ())
      (fun () -> ());
    0

open Cmdliner

let input =
  let doc = "HTML file to read (stdin when omitted)." in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let show_tokens =
  Arg.(value & flag & info [ "tokens" ] ~doc:"Print the token set.")

let show_trees =
  Arg.(value & flag & info [ "trees" ] ~doc:"Print the maximal parse trees.")

let show_stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print parsing diagnostics.")

let show_ascii =
  Arg.(value & flag
       & info [ "ascii" ] ~doc:"Draw the laid-out page as ASCII art.")

let as_json =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit a versioned JSON source description (outcome, \
                 capabilities, diagnostics) instead of text output.")

let verbose =
  Arg.(value & flag
       & info [ "v"; "verbose" ]
           ~doc:"Trace instance creation and preference pruning.")

let grammar_file =
  let doc =
    "Parse with the 2P grammar loaded from $(docv) (a .wqg sexp grammar \
     file, see README \"Grammars as data\") instead of the built-in \
     standard grammar.  The file is validated on load; malformations \
     exit with status 2 and a file:line:col diagnostic."
  in
  Arg.(value & opt (some file) None & info [ "grammar" ] ~docv:"FILE" ~doc)

let width =
  let doc = "Page width in pixels handed to the layout engine." in
  Arg.(value & opt (some int) None & info [ "width" ] ~docv:"PX" ~doc)

let deadline_ms =
  let doc =
    "Wall-clock budget in milliseconds.  When it expires the pipeline \
     degrades gracefully: stages stop growing their output and the model \
     is merged from the partial parse trees built so far."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let max_instances =
  let doc =
    "Cap on parser instances (token instances included).  Tripping the \
     cap degrades the extraction instead of failing it."
  in
  Arg.(value & opt (some int) None & info [ "max-instances" ] ~docv:"N" ~doc)

let trace_file =
  let doc =
    "Write a Chrome trace-event JSON of the extraction to $(docv) \
     (loadable in Perfetto or chrome://tracing): spans for every \
     pipeline stage, per-fix-point-round parser events with instance \
     and guard counters, budget-trip and rollback annotations."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let profile =
  let doc =
    "Print a per-stage profile table (calls, total/avg/max milliseconds, \
     share of total) to stderr after extraction."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let quality =
  let doc =
    "Print the Wqi_quality record of the extraction — outcome, token \
     coverage, conflict/missing counts, surviving ambiguity and the \
     scalar quality score — as one canonical JSON line, always the \
     last stdout line (also after $(b,--json))."
  in
  Arg.(value & flag & info [ "quality" ] ~doc)

let cmd =
  let doc = "extract query capabilities from a Web query interface" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Parses an HTML query form with the best-effort 2P-grammar parser \
         and prints the extracted conditions [attribute; operators; \
         domain], one per line, followed by any conflict or \
         missing-element reports.";
      `P
        "Extraction can be resource-governed with $(b,--deadline-ms) and \
         $(b,--max-instances); a tripped budget yields a degraded (but \
         non-empty whenever anything parsed) result, reported in the \
         outcome section and in the JSON export.";
      `P "Exits with status 1 when no condition was extracted." ]
  in
  let term =
    Term.(
      const run $ input $ show_tokens $ show_trees $ show_stats $ show_ascii
      $ as_json $ verbose $ grammar_file $ width $ deadline_ms $ max_instances
      $ trace_file $ profile $ quality)
  in
  Cmd.v (Cmd.info "wqi_extract" ~version:"1.0.0" ~doc ~man) term

let () = exit (Cmd.eval' cmd)
