(* Integration tests over hand-written replicas of real 2004-era query
   interfaces (see fixtures.ml). *)

module Metrics = Wqi_metrics.Metrics

let score (f : Fixtures.fixture) =
  let extraction = Wqi_core.Extractor.(run Config.default (Html f.html)) in
  let extracted = Wqi_core.Extractor.conditions extraction in
  let counts = Metrics.count ~truth:f.truth ~extracted in
  (extraction, extracted, counts)

let fixture_case (f : Fixtures.fixture) =
  ( f.name,
    `Quick,
    fun () ->
      let _, extracted, counts = score f in
      let p = Metrics.precision counts and r = Metrics.recall counts in
      if p < f.min_precision || r < f.min_recall then
        Alcotest.failf
          "%s: precision %.2f (floor %.2f), recall %.2f (floor %.2f)@.truth: %s@.extracted: %s"
          f.name p f.min_precision r f.min_recall
          (String.concat "; "
             (List.map Wqi_model.Condition.to_string f.truth))
          (String.concat "; "
             (List.map Wqi_model.Condition.to_string extracted)) )

let test_aggregate_floor () =
  (* Across all fixtures the extractor must reach the paper's headline
     0.85 accuracy on this hand-written, out-of-distribution set. *)
  let overall =
    List.fold_left
      (fun acc f ->
         let _, _, counts = score f in
         Metrics.add acc counts)
      Metrics.zero Fixtures.all
  in
  let p = Metrics.precision overall and r = Metrics.recall overall in
  let accuracy = Metrics.accuracy ~precision:p ~recall:r in
  if accuracy < 0.85 then
    Alcotest.failf "aggregate accuracy %.3f (P %.3f, R %.3f) below 0.85"
      accuracy p r

let test_fixtures_deterministic () =
  List.iter
    (fun (f : Fixtures.fixture) ->
       let run () =
         List.map Wqi_model.Condition.to_string
           Wqi_core.Extractor.(conditions (run Config.default (Html f.html)))
       in
       Alcotest.(check (list string)) f.name (run ()) (run ()))
    Fixtures.all

let suite =
  List.map fixture_case Fixtures.all
  @ [ ("aggregate accuracy >= 0.85", `Quick, test_aggregate_floor);
      ("deterministic", `Quick, test_fixtures_deterministic) ]
