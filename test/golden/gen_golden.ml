(* Regenerates the committed Export-v2 golden files next to
   complete.html.  Run after an intentional wire-format change:

     dune exec test/golden/gen_golden.exe -- test/golden

   then review the diff and commit.  The goldens are produced with
   [export ~timings:false], so they are byte-stable: a pure function of
   the fixture markup and the budget spec.  The degraded golden trips a
   parser-instance cap (caps are deterministic, unlike wall-clock
   deadlines); the failed golden goes through [Extractor.failed], the
   representation batch drivers use for out-of-pipeline errors. *)

module Extractor = Wqi_core.Extractor
module Budget = Wqi_budget.Budget
module Trace = Wqi_obs.Trace

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let degraded_max_instances = 48

let cases html =
  [ ( "complete.json",
      "golden-complete",
      fun () -> Extractor.run Extractor.Config.default (Extractor.Html html) );
    ( "degraded.json",
      "golden-degraded",
      fun () ->
        let budget = Budget.make ~max_instances:degraded_max_instances () in
        let config = Extractor.Config.(default |> with_budget budget) in
        Extractor.run config (Extractor.Html html) );
    ( "failed.json",
      "golden-failed",
      fun () -> Extractor.failed "simulated upstream failure" ) ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let html = read_file (Filename.concat dir "complete.html") in
  List.iter
    (fun (file, name, extract) ->
       let e = extract () in
       write_file
         (Filename.concat dir file)
         (Extractor.export ~timings:false ~name e ^ "\n");
       Printf.printf "wrote %s (%s)\n" (Filename.concat dir file) name)
    (cases html);
  (* Scrubbed Chrome trace of the same fixture: with timestamps replaced
     by ordinals and durations pinned, the event stream is a pure
     function of the markup, so the export is byte-stable. *)
  let trace = Trace.create () in
  ignore (Extractor.run ~trace Extractor.Config.default (Extractor.Html html));
  write_file
    (Filename.concat dir "trace.json")
    (Trace.to_chrome_json ~scrub_timestamps:true trace ^ "\n");
  Printf.printf "wrote %s (golden-trace)\n" (Filename.concat dir "trace.json")
