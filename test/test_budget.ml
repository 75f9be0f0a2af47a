(* Resource governance: budget/gauge mechanics, extractor degradation
   (including the 60-source corpus under a tiny cap and pathological
   inputs under a deadline), Config builders and the versioned JSON
   export. *)

module Budget = Wqi_budget.Budget
module Extractor = Wqi_core.Extractor
module Engine = Wqi_parser.Engine
module Dataset = Wqi_corpus.Dataset
module Generator = Wqi_corpus.Generator

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let simple_form =
  {|<form>
      <b>Search our catalog</b><br>
      Title <input type="text" name="title"><br>
      Category <select name="cat"><option>Fiction</option><option>History</option></select><br>
      <input type="submit" value="Go">
    </form>|}

let model_nonempty (e : Extractor.extraction) =
  e.model.Wqi_model.Semantic_model.conditions <> []
  || e.model.Wqi_model.Semantic_model.errors <> []

let degraded (e : Extractor.extraction) =
  match e.outcome with Budget.Degraded _ -> true | _ -> false

(* --- budget spec and gauge mechanics --- *)

let test_spec () =
  check_bool "unlimited is unlimited" true (Budget.is_unlimited Budget.unlimited);
  check_bool "a cap is not unlimited" false
    (Budget.is_unlimited (Budget.make ~max_tokens:5 ()));
  (match (Budget.make ~deadline_ms:(-3) ()).Budget.deadline_ms with
   | Some 0 -> ()
   | _ -> Alcotest.fail "negative deadline not clamped to 0");
  check_bool "make with no caps is unlimited" true
    (Budget.is_unlimited (Budget.make ()))

let test_cap_trips () =
  let g = Budget.start (Budget.make ~max_tokens:2 ()) in
  check_bool "first token ok" true (Budget.token g);
  check_bool "second token ok" true (Budget.token g);
  check_bool "third token trips" false (Budget.token g);
  check_bool "answer stays pinned" false (Budget.token g);
  check_bool "other counters unaffected" true (Budget.box g);
  check_bool "tokenize tripped" true (Budget.tripped g Budget.Tokenize);
  check_bool "layout untripped" false (Budget.tripped g Budget.Layout);
  match Budget.trips g with
  | [ t ] ->
    check_bool "trip stage" true (t.Budget.stage = Budget.Tokenize);
    check_bool "trip reason" true (t.Budget.reason = Budget.Tokens);
    check_int "trip limit" 2 t.Budget.limit
  | trips -> Alcotest.failf "expected one trip, got %d" (List.length trips)

let test_counters () =
  let g = Budget.start Budget.unlimited in
  ignore (Budget.html_node g);
  ignore (Budget.html_node g);
  ignore (Budget.box g);
  ignore (Budget.token g);
  ignore (Budget.instance g);
  ignore (Budget.instance g);
  ignore (Budget.instance g);
  ignore (Budget.round g);
  check_int "html nodes" 2 (Budget.html_nodes g);
  check_int "boxes" 1 (Budget.boxes g);
  check_int "tokens" 1 (Budget.tokens g);
  check_int "instances" 3 (Budget.instances g);
  check_int "rounds" 1 (Budget.rounds g);
  check_bool "unlimited never trips" true (Budget.trips g = []);
  check_bool "elapsed is nonnegative" true (Budget.elapsed_ms g >= 0.)

let test_deadline () =
  let g = Budget.start (Budget.make ~deadline_ms:0 ()) in
  check_bool "expired deadline kills alive" false (Budget.alive g Budget.Html);
  check_bool "spends die too" false (Budget.token g);
  (match Budget.trips g with
   | t :: _ -> check_bool "reason deadline" true (t.Budget.reason = Budget.Deadline)
   | [] -> Alcotest.fail "no trip recorded");
  (* The throttled probe must notice within its sampling window. *)
  let g2 = Budget.start (Budget.make ~deadline_ms:0 ()) in
  let noticed = ref false in
  for _ = 1 to 600 do
    if not (Budget.tick g2 Budget.Parse) then noticed := true
  done;
  check_bool "tick notices an expired deadline" true !noticed

(* --- Config builders --- *)

let test_config () =
  let c = Extractor.Config.default in
  check_bool "default budget unlimited" true
    (Budget.is_unlimited c.Extractor.Config.budget);
  let b = Budget.make ~max_instances:7 () in
  let c' =
    Extractor.Config.(
      default |> with_budget b |> with_width 400
      |> with_options { Engine.default_options with use_preferences = false })
  in
  check_bool "with_budget" true (c'.Extractor.Config.budget = b);
  check_int "with_width" 400 c'.Extractor.Config.width;
  check_bool "with_options" false
    c'.Extractor.Config.options.Engine.use_preferences;
  check_bool "builders leave default alone" true
    (Budget.is_unlimited Extractor.Config.default.Extractor.Config.budget)

(* --- outcomes on the simple fixture --- *)

let test_complete_outcome () =
  let e = Extractor.run Extractor.Config.default (Extractor.Html simple_form) in
  check_bool "ungoverned run is complete" true (e.outcome = Budget.Complete);
  let legacy = Extractor.(run Config.default (Html simple_form)) in
  check_bool "legacy wrapper agrees" true
    (Extractor.conditions e = Extractor.conditions legacy);
  check_bool "legacy wrapper complete" true (legacy.outcome = Budget.Complete)

let test_instance_cap_degrades () =
  let config =
    Extractor.Config.(
      default |> with_budget (Budget.make ~max_instances:3 ()))
  in
  let e = Extractor.run config (Extractor.Html simple_form) in
  check_bool "degraded" true (degraded e);
  check_bool "model still reports the tokens" true (model_nonempty e);
  check_bool "parse marked truncated" true e.diagnostics.parse_stats.truncated;
  match e.outcome with
  | Budget.Degraded (t :: _) ->
    check_bool "tripped in parse" true (t.Budget.stage = Budget.Parse);
    check_bool "instances reason" true (t.Budget.reason = Budget.Instances)
  | _ -> Alcotest.fail "expected a degraded outcome with trips"

let test_html_cap_degrades () =
  let config =
    Extractor.Config.(
      default |> with_budget (Budget.make ~max_html_nodes:4 ()))
  in
  let e = Extractor.run config (Extractor.Html simple_form) in
  check_bool "degraded at html" true (degraded e);
  match e.outcome with
  | Budget.Degraded (t :: _) ->
    check_bool "stage html" true (t.Budget.stage = Budget.Html)
  | _ -> Alcotest.fail "expected degraded"

let test_token_cap_degrades () =
  let config =
    Extractor.Config.(default |> with_budget (Budget.make ~max_tokens:2 ()))
  in
  let e = Extractor.run config (Extractor.Html simple_form) in
  check_bool "degraded" true (degraded e);
  check_bool "kept a token prefix" true (e.diagnostics.token_count <= 2);
  check_bool "prefix ids dense" true
    (List.for_all2
       (fun (t : Wqi_token.Token.t) i -> t.id = i)
       e.tokens
       (List.init (List.length e.tokens) Fun.id))

let test_legacy_max_instances_reported () =
  (* The engine-level safety valve (no gauge at all) must surface as a
     degraded outcome too. *)
  let e =
    Extractor.run
      Extractor.Config.(
        default
        |> with_options { Engine.default_options with max_instances = 3 })
      (Extractor.Html simple_form)
  in
  check_bool "legacy cap degrades" true (degraded e);
  match e.outcome with
  | Budget.Degraded [ t ] ->
    check_int "limit is the engine cap" 3 t.Budget.limit
  | _ -> Alcotest.fail "expected a single synthesized trip"

(* --- 60-source corpus under a tiny cap --- *)

let test_corpus_tiny_cap () =
  let sources =
    (Dataset.new_source ()).Dataset.sources @ (Dataset.random ()).Dataset.sources
  in
  check_int "corpus size" 60 (List.length sources);
  let config =
    Extractor.Config.(
      default |> with_budget (Budget.make ~max_instances:3 ()))
  in
  List.iter
    (fun (s : Generator.source) ->
       let e = Extractor.run config (Extractor.Html s.html) in
       if not (degraded e) then
         Alcotest.failf "%s: expected Degraded under max_instances=3" s.id;
       if not (model_nonempty e) then
         Alcotest.failf "%s: degraded model should be non-empty" s.id)
    sources

(* --- pathological inputs return promptly and degrade, not fail --- *)

let test_pathological_nesting () =
  let b = Buffer.create (1 lsl 16) in
  for _ = 1 to 4000 do
    Buffer.add_string b "<div>x "
  done;
  let config =
    Extractor.Config.(
      default |> with_budget (Budget.make ~max_html_nodes:500 ()))
  in
  let e = Extractor.run config (Extractor.Html (Buffer.contents b)) in
  check_bool "degraded, not failed" true (degraded e);
  check_bool "html cap respected" true
    (e.diagnostics.consumption.Extractor.html_nodes <= 501)

let test_pathological_wide_form () =
  (* A 10k-widget form: the token cap truncates the front end and the
     pipeline still extracts from the prefix. *)
  let b = Buffer.create (1 lsl 18) in
  Buffer.add_string b "<form>";
  for i = 1 to 10_000 do
    Buffer.add_string b (Printf.sprintf "Field%d <input name=f%d><br>" i i)
  done;
  Buffer.add_string b "</form>";
  let config =
    Extractor.Config.(
      default
      |> with_budget (Budget.make ~max_tokens:60 ~max_instances:5_000 ()))
  in
  let e = Extractor.run config (Extractor.Html (Buffer.contents b)) in
  check_bool "degraded" true (degraded e);
  check_bool "token prefix kept" true
    (e.diagnostics.token_count <= 60 && e.diagnostics.token_count > 0);
  check_bool "model non-empty" true (model_nonempty e)

let test_pathological_exhaustive_deadline () =
  (* A uniform table in exhaustive mode (no preferences) explodes
     combinatorially; the deadline must stop it and still hand back a
     non-empty degraded model within a small multiple of the budget. *)
  let b = Buffer.create 4096 in
  Buffer.add_string b "<form><table>";
  for i = 1 to 40 do
    Buffer.add_string b
      (Printf.sprintf "<tr><td>Label%d</td><td><input name=i%d></td></tr>" i i)
  done;
  Buffer.add_string b "</table></form>";
  let deadline_ms = 150 in
  let config =
    Extractor.Config.(
      default
      |> with_options
           { Engine.default_options with
             use_preferences = false;
             max_instances = max_int }
      |> with_budget (Budget.make ~deadline_ms ()))
  in
  let t0 = Budget.now_s () in
  let e = Extractor.run config (Extractor.Html (Buffer.contents b)) in
  let elapsed_ms = 1000. *. (Budget.now_s () -. t0) in
  check_bool "returned within 20x the deadline" true
    (elapsed_ms < 20. *. float_of_int deadline_ms);
  check_bool "degraded by the deadline" true
    (match e.outcome with
     | Budget.Degraded trips ->
       List.exists (fun t -> t.Budget.reason = Budget.Deadline) trips
     | _ -> false);
  check_bool "model non-empty" true (model_nonempty e)

(* --- run never raises; Failed outcomes --- *)

let test_run_inputs () =
  let doc = Wqi_html.Parser.parse simple_form in
  let e = Extractor.run Extractor.Config.default (Extractor.Document doc) in
  check_bool "document input complete" true (e.outcome = Budget.Complete);
  let tokens = Wqi_token.Tokenize.of_html simple_form in
  let e2 = Extractor.run Extractor.Config.default (Extractor.Tokens tokens) in
  check_bool "tokens input complete" true (e2.outcome = Budget.Complete);
  check_bool "same conditions via tokens" true
    (Extractor.conditions e = Extractor.conditions e2)

let test_failed_helper () =
  let e = Extractor.failed ~stage:Budget.Parse "boom" in
  (match e.outcome with
   | Budget.Failed err ->
     check_bool "stage kept" true (err.Budget.error_stage = Some Budget.Parse);
     check_bool "message kept" true (err.Budget.message = "boom")
   | _ -> Alcotest.fail "expected Failed");
  check_bool "empty model" false (model_nonempty e)

let test_run_catches () =
  (* An invalid grammar makes Engine.parse raise; run must catch it and
     return a Failed outcome instead. *)
  let t = Wqi_grammar.Symbol.terminal "text" in
  let s = Wqi_grammar.Symbol.nonterminal "S" in
  let bad_grammar =
    Wqi_grammar.Grammar.make ~terminals:[ t ] ~start:s
      ~productions:
        [ Wqi_grammar.Production.make ~name:"p" ~head:s
            ~components:[ t ]
            ~build:(fun _ -> failwith "guard blew up")
            () ]
      ()
  in
  let config =
    Extractor.Config.(default |> with_compiled (Engine.compile bad_grammar))
  in
  let e = Extractor.run config (Extractor.Html simple_form) in
  match e.outcome with
  | Budget.Failed err ->
    check_bool "stage recorded" true (err.Budget.error_stage = Some Budget.Parse)
  | _ -> Alcotest.fail "expected Failed from a raising grammar"

(* --- versioned JSON export --- *)

let test_export_v2 () =
  let e = Extractor.run Extractor.Config.default (Extractor.Html simple_form) in
  let json = Extractor.export ~name:"simple" e in
  check_bool "version tag" true (contains json "\"wqi_extraction_version\": 2");
  check_bool "complete status" true (contains json "\"status\": \"complete\"");
  check_bool "diagnostics present" true (contains json "\"diagnostics\"");
  check_bool "per-stage seconds" true (contains json "\"parse\"");
  let config =
    Extractor.Config.(
      default |> with_budget (Budget.make ~max_instances:3 ()))
  in
  let d = Extractor.run config (Extractor.Html simple_form) in
  let djson = Extractor.export ~name:"simple" d in
  check_bool "degraded status" true (contains djson "\"status\": \"degraded\"");
  check_bool "trip rendered" true (contains djson "\"reason\": \"instances\"");
  check_bool "budget rendered" true (contains djson "\"max_instances\": 3");
  let f =
    Wqi_model.Export.failed_source ~name:"gone"
      { Budget.error_stage = None; message = "no such file" }
  in
  check_bool "failed status" true (contains f "\"status\": \"failed\"");
  check_bool "failed keeps version" true
    (contains f "\"wqi_extraction_version\": 2")

let suite =
  [ Alcotest.test_case "budget spec" `Quick test_spec;
    Alcotest.test_case "cap trips and pins" `Quick test_cap_trips;
    Alcotest.test_case "gauge counters" `Quick test_counters;
    Alcotest.test_case "deadline trips" `Quick test_deadline;
    Alcotest.test_case "config builders" `Quick test_config;
    Alcotest.test_case "ungoverned run complete" `Quick test_complete_outcome;
    Alcotest.test_case "instance cap degrades" `Quick test_instance_cap_degrades;
    Alcotest.test_case "html cap degrades" `Quick test_html_cap_degrades;
    Alcotest.test_case "token cap degrades" `Quick test_token_cap_degrades;
    Alcotest.test_case "legacy max_instances reported" `Quick
      test_legacy_max_instances_reported;
    Alcotest.test_case "60-source corpus under tiny cap" `Quick
      test_corpus_tiny_cap;
    Alcotest.test_case "pathological nesting" `Quick test_pathological_nesting;
    Alcotest.test_case "pathological wide form" `Quick
      test_pathological_wide_form;
    Alcotest.test_case "pathological exhaustive deadline" `Quick
      test_pathological_exhaustive_deadline;
    Alcotest.test_case "run accepts all inputs" `Quick test_run_inputs;
    Alcotest.test_case "failed helper" `Quick test_failed_helper;
    Alcotest.test_case "run catches exceptions" `Quick test_run_catches;
    Alcotest.test_case "export v2" `Quick test_export_v2 ]
