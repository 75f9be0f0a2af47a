module Metrics = Wqi_metrics.Metrics
module Generator = Wqi_corpus.Generator

type source_result = {
  source : Generator.source;
  extracted : Wqi_model.Condition.t list;
  counts : Metrics.counts;
  precision : float;
  recall : float;
  seconds : float;
}

type report = {
  dataset : string;
  results : source_result list;
  avg_precision : float;
  avg_recall : float;
  overall : Metrics.counts;
  overall_precision : float;
  overall_recall : float;
}

let parser_extract html =
  Wqi_core.Extractor.(conditions (run Config.default (Html html)))

let run ?(extract = parser_extract) (dataset : Wqi_corpus.Dataset.t) =
  let results =
    List.map
      (fun (s : Generator.source) ->
         let t0 = Unix.gettimeofday () in
         let extracted = extract s.html in
         let seconds = Unix.gettimeofday () -. t0 in
         let counts = Metrics.count ~truth:s.truth ~extracted in
         { source = s;
           extracted;
           counts;
           precision = Metrics.precision counts;
           recall = Metrics.recall counts;
           seconds })
      dataset.sources
  in
  let overall =
    List.fold_left (fun acc r -> Metrics.add acc r.counts) Metrics.zero results
  in
  { dataset = dataset.name;
    results;
    avg_precision = Metrics.mean (List.map (fun r -> r.precision) results);
    avg_recall = Metrics.mean (List.map (fun r -> r.recall) results);
    overall;
    overall_precision = Metrics.precision overall;
    overall_recall = Metrics.recall overall }

let thresholds = [ 1.0; 0.9; 0.8; 0.7; 0.6; 0.0 ]

let precision_distribution report =
  Metrics.distribution ~thresholds
    (List.map (fun r -> r.precision) report.results)

let recall_distribution report =
  Metrics.distribution ~thresholds (List.map (fun r -> r.recall) report.results)

let pp_report ppf r =
  Fmt.pf ppf
    "%-10s sources=%3d  avg P=%.3f R=%.3f | overall P=%.3f R=%.3f (acc %.3f)"
    r.dataset
    (List.length r.results)
    r.avg_precision r.avg_recall r.overall_precision r.overall_recall
    (Metrics.accuracy ~precision:r.overall_precision ~recall:r.overall_recall)
