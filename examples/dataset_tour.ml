(* A tour of the experimental infrastructure: generate the four
   datasets, peek at a source, run the extractor over one dataset, and
   compare against the proximity baseline — a miniature of the full
   bench harness.

   Run with: dune exec examples/dataset_tour.exe *)

module Dataset = Wqi_corpus.Dataset
module Generator = Wqi_corpus.Generator
module Eval = Wqi_eval.Eval
module Metrics = Wqi_metrics.Metrics

let () =
  (* Datasets are deterministic: every run regenerates the same 252
     sources the experiments use. *)
  let ds = Dataset.new_source () in
  Format.printf "dataset %s: %d sources@." ds.name (List.length ds.sources);

  let sample = List.nth ds.sources 3 in
  Format.printf "@.== sample source %s (%s) ==@." sample.id sample.domain;
  Format.printf "ground truth:@.";
  List.iter
    (fun c -> Format.printf "  %a@." Wqi_model.Condition.pp c)
    sample.truth;
  Format.printf "markup size: %d bytes; patterns used: %s@."
    (String.length sample.html)
    (String.concat ", "
       (List.map Wqi_corpus.Pattern.name sample.patterns));

  Format.printf "@.== extractor vs ground truth on this source ==@.";
  let extracted =
    Wqi_core.Extractor.(conditions (run Config.default (Html sample.html)))
  in
  List.iter (fun c -> Format.printf "  %a@." Wqi_model.Condition.pp c) extracted;
  let counts = Metrics.count ~truth:sample.truth ~extracted in
  Format.printf "precision %.2f, recall %.2f@."
    (Metrics.precision counts) (Metrics.recall counts);

  Format.printf "@.== whole-dataset scores ==@.";
  let parser_report = Eval.run ds in
  let baseline_report =
    Eval.run ~extract:Wqi_baseline.Baseline.extract ds
  in
  Format.printf "parser   : %a@." Eval.pp_report parser_report;
  Format.printf "baseline : %a@." Eval.pp_report baseline_report;

  Format.printf "@.== slowest sources (parsing dominates) ==@.";
  parser_report.results
  |> List.sort (fun (a : Eval.source_result) b -> compare b.seconds a.seconds)
  |> List.filteri (fun i _ -> i < 3)
  |> List.iter (fun (r : Eval.source_result) ->
      Format.printf "  %-24s %5.1f ms  (%d conditions)@." r.source.id
        (1000. *. r.seconds)
        (List.length r.source.truth))
