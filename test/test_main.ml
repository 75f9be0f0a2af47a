let () =
  Alcotest.run "wqi"
    [ ("html", Test_html.suite);
      ("layout", Test_layout.suite);
      ("token", Test_token.suite);
      ("grammar", Test_grammar.suite);
      ("parser", Test_parser.suite);
      ("parser-equiv", Test_parser_equiv.suite);
      ("grammar-data", Test_grammar_data.suite);
      ("corpus-pin", Test_corpus_pin.suite);
      ("model", Test_model.suite);
      ("stdgrammar", Test_stdgrammar.suite);
      ("corpus", Test_corpus.suite);
      ("metrics", Test_metrics.suite);
      ("extractor", Test_extractor.suite);
      ("budget", Test_budget.suite);
      ("refine", Test_refine.suite);
      ("match", Test_match.suite);
      ("derive", Test_derive.suite);
      ("formulate", Test_formulate.suite);
      ("fixtures", Test_fixtures.suite);
      ("export-golden", Test_export_golden.suite);
      ("serve-cache", Test_serve_cache.suite);
      ("http", Test_http.suite);
      ("store", Test_store.suite);
      ("obs", Test_obs.suite);
      ("telemetry", Test_telemetry.suite);
      ("pool", Test_pool.suite);
      ("quality", Test_quality.suite);
      ("hot-path", Test_hotpath.suite);
      ("properties", Test_props.suite) ]
