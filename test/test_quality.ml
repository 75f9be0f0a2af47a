(* Quality records (lib/quality): score arithmetic, canonical JSON
   golden + round-trip, rollup reconstruction, the Agg merge property
   (merging over any split of a record stream equals single-pass
   aggregation, mirroring the telemetry merge law), and the trace
   file-naming regression for colliding document stems. *)

module Q = QCheck
module Quality = Wqi_quality.Quality
module Agg = Wqi_quality.Quality.Agg
module Trace = Wqi_obs.Trace
module Generator = Wqi_corpus.Generator

let to_alcotest = QCheck_alcotest.to_alcotest

let feq = Alcotest.(check (float 1e-9))

(* --- score ------------------------------------------------------- *)

let test_score_failed () =
  feq "failed scores 0 whatever the coverage" 0.
    (Quality.score ~outcome:"failed" ~coverage:1. ~conflicts:0 ~tokens:20
       ~ambiguity:0)

let test_score_clean () =
  feq "full coverage, no errors" 1.
    (Quality.score ~outcome:"complete" ~coverage:1. ~conflicts:0 ~tokens:12
       ~ambiguity:0)

let test_score_conflict_penalty () =
  (* Each conflicted token cancels a covered one: 2/10 off. *)
  feq "conflicts cost 1/tokens each" 0.8
    (Quality.score ~outcome:"complete" ~coverage:1. ~conflicts:2 ~tokens:10
       ~ambiguity:0)

let test_score_ambiguity_penalty () =
  feq "ambiguity costs 2 points per tree" 0.94
    (Quality.score ~outcome:"complete" ~coverage:1. ~conflicts:0 ~tokens:10
       ~ambiguity:3);
  (* ... capped at 10 trees so it cannot mask coverage. *)
  feq "ambiguity penalty capped" 0.8
    (Quality.score ~outcome:"degraded" ~coverage:1. ~conflicts:0 ~tokens:10
       ~ambiguity:50)

let test_score_clamped () =
  feq "never below 0" 0.
    (Quality.score ~outcome:"degraded" ~coverage:0.1 ~conflicts:5 ~tokens:5
       ~ambiguity:0);
  (* tokens=0 guards the conflict ratio with max 1. *)
  feq "empty interface, clean" 1.
    (Quality.score ~outcome:"complete" ~coverage:1. ~conflicts:0 ~tokens:0
       ~ambiguity:0)

(* --- canonical JSON ---------------------------------------------- *)

let golden_record =
  { Quality.source = "docs/doc-00000.html";
    grammar = "std@1";
    domain = "Books";
    outcome = "complete";
    tokens = 12;
    covered = 12;
    conflicts = 0;
    missing = 0;
    trees = 1;
    ambiguity = 0;
    trips = 0;
    coverage = 1.;
    score = 1. }

(* The exact line wqi_crawl appends to quality.jsonl for a clean
   extraction: field order, integer-float rendering and the version tag
   are all wire contract. *)
let golden_line =
  "{\"wqi_quality_version\":1,\"source\":\"docs/doc-00000.html\",\
   \"grammar\":\"std@1\",\"domain\":\"Books\",\"outcome\":\"complete\",\
   \"score\":1,\"coverage\":1,\"tokens\":12,\"covered\":12,\
   \"conflicts\":0,\"missing\":0,\"trees\":1,\"ambiguity\":0,\"trips\":0}"

let test_golden_json () =
  Alcotest.(check string) "golden quality.jsonl line" golden_line
    (Quality.to_json golden_record);
  match Quality.of_json golden_line with
  | Ok r -> Alcotest.(check bool) "golden parses back" true (r = golden_record)
  | Error e -> Alcotest.failf "golden line rejected: %s" e

let test_of_json_rejects () =
  let bad = [
    "";
    "not json";
    (* version mismatch must be a hard error, not a best-effort parse *)
    "{\"wqi_quality_version\":2,\"source\":\"x\"}";
    "{\"source\":\"x\",\"score\":1}";
  ] in
  List.iter
    (fun line ->
       match Quality.of_json line with
       | Ok _ -> Alcotest.failf "accepted bad line: %s" line
       | Error _ -> ())
    bad

let test_of_json_ignores_unknown_fields () =
  let line =
    String.concat ""
      [ String.sub golden_line 0 (String.length golden_line - 1);
        ",\"future_field\":42}" ]
  in
  match Quality.of_json line with
  | Ok r -> Alcotest.(check bool) "unknown field skipped" true (r = golden_record)
  | Error e -> Alcotest.failf "forward-compat line rejected: %s" e

(* --- of_extraction / of_rollup ----------------------------------- *)

let extraction () =
  let g = Wqi_corpus.Prng.create 0x5EEDL in
  let s =
    Generator.generate g ~id:"q-doc" ~domain:(Wqi_corpus.Vocabulary.find "Books")
      ~complexity:`Rich ~oog_prob:0. ()
  in
  Wqi_core.Extractor.run Wqi_core.Extractor.Config.default
    (Wqi_core.Extractor.Html s.html)

let test_of_extraction_consistent () =
  let r =
    Quality.of_extraction ~source:"q-doc" ~grammar:"std@1" ~domain:"Books"
      (extraction ())
  in
  Alcotest.(check bool) "has tokens" true (r.tokens > 0);
  feq "coverage = covered/tokens"
    (float_of_int r.covered /. float_of_int r.tokens)
    r.coverage;
  feq "score matches its own fields"
    (Quality.score ~outcome:r.outcome ~coverage:r.coverage
       ~conflicts:r.conflicts ~tokens:r.tokens ~ambiguity:r.ambiguity)
    r.score;
  Alcotest.(check bool) "score in [0,1]" true (r.score >= 0. && r.score <= 1.);
  (* A real record must survive the wire unchanged. *)
  match Quality.of_json (Quality.to_json r) with
  | Ok r' -> Alcotest.(check bool) "round-trips" true (r = r')
  | Error e -> Alcotest.failf "extraction record rejected: %s" e

let test_failed_record () =
  let r = Quality.failed ~source:"gone" ~grammar:"std@1" () in
  feq "failed score" 0. r.score;
  feq "failed coverage" 0. r.coverage;
  Alcotest.(check string) "failed outcome" "failed" r.outcome

let test_of_rollup () =
  (* A rollup record preserves exactly the headline fields the store
     manifest carries; the detail counters are zero, and the entry it
     writes back is the one it was read from. *)
  let meta =
    { Wqi_store.Store.source = "doc-3"; grammar = "std@1";
      outcome = "degraded"; domain = "Airfares";
      quality =
        Some { q_score = 0.625; q_coverage = 0.75; q_conflicts = 2 } }
  in
  Alcotest.(check bool) "pre-quality entry has no record" true
    (Quality.of_meta { meta with quality = None } = None);
  let r = Option.get (Quality.of_meta meta) in
  Alcotest.(check bool) "entry round-trips" true (Quality.to_meta r = meta);
  Alcotest.(check string) "rollup domain preserved" "Airfares" r.domain;
  feq "rollup score preserved" 0.625 r.score;
  feq "rollup coverage preserved" 0.75 r.coverage;
  Alcotest.(check int) "rollup conflicts preserved" 2 r.conflicts;
  Alcotest.(check int) "rollup tokens zero" 0 r.tokens;
  Alcotest.(check int) "rollup trees zero" 0 r.trees;
  match Quality.of_json (Quality.to_json r) with
  | Ok r' -> Alcotest.(check bool) "rollup round-trips" true (r = r')
  | Error e -> Alcotest.failf "rollup record rejected: %s" e

(* --- Agg merge property ------------------------------------------ *)

(* Dyadic floats (k/16): exactly representable, printed exactly by the
   canonical float rendering, and summed exactly by Agg — so both the
   JSON round-trip and the merge law can demand byte/structural
   equality instead of epsilon comparisons. *)
let dyadic = Q.Gen.map (fun k -> float_of_int k /. 16.) (Q.Gen.int_bound 16)

let gen_record =
  Q.Gen.(
    oneofl [ "doc-0"; "doc-1"; "sub/doc-2" ] >>= fun source ->
    oneofl [ "std@1"; "airfares@2" ] >>= fun grammar ->
    oneofl [ ""; "Books"; "Airfares"; "Autos" ] >>= fun domain ->
    oneofl [ "complete"; "degraded"; "failed" ] >>= fun outcome ->
    int_bound 40 >>= fun tokens ->
    int_bound tokens >>= fun covered ->
    int_bound 5 >>= fun conflicts ->
    int_bound 5 >>= fun missing ->
    int_bound 4 >>= fun ambiguity ->
    int_bound 3 >>= fun trips ->
    dyadic >>= fun coverage ->
    dyadic >>= fun score ->
    return
      { Quality.source; grammar; domain; outcome; tokens; covered;
        conflicts; missing; trees = ambiguity + 1; ambiguity; trips;
        coverage; score })

let arb_records_and_chunks =
  Q.make
    ~print:(fun (rs, k) ->
        Printf.sprintf "%d records over %d aggs:\n%s" (List.length rs) (k + 1)
          (String.concat "\n" (List.map Quality.to_json rs)))
    Q.Gen.(pair (list_size (int_bound 40) gen_record) (int_bound 4))

let prop_merge_equals_single_pass =
  Q.Test.make ~name:"Agg.merge over any split = single pass" ~count:200
    arb_records_and_chunks (fun (records, k) ->
        let parts = Array.init (k + 1) (fun _ -> Agg.create ()) in
        let reference = Agg.create () in
        List.iteri
          (fun i r ->
             (* Round-robin over k+1 partial aggregates: with random k
                and random record streams this exercises every split
                shape that matters, including empty parts. *)
             Agg.add parts.(i mod (k + 1)) r;
             Agg.add reference r)
          records;
        let merged =
          Array.fold_left Agg.merge (Agg.create ()) parts
        in
        Agg.total merged = Agg.total reference
        && Agg.domains merged = Agg.domains reference
        && Agg.grammars merged = Agg.grammars reference)

let prop_json_round_trip =
  Q.Test.make ~name:"to_json/of_json round-trip" ~count:200
    (Q.make ~print:Quality.to_json gen_record) (fun r ->
        match Quality.of_json (Quality.to_json r) with
        | Ok r' -> r = r'
        | Error _ -> false)

(* quality.jsonl is read back from disk by wqi_report, so a line may
   be anything a torn write or a hand edit leaves: [of_json] answers
   [Ok] or [Error] and never raises.  Mutations of canonical lines, one
   to four deep: byte flips (any byte), truncations, a member repeated
   with another value, numbers hundreds of digits long, and inserted
   escapes and delimiters, half of them where the line then ends (a
   [\u] escape cut short). *)
let mutate_line rand line =
  let n = String.length line in
  let long_number () =
    let digits = String.init (20 + Random.State.int rand 400) (fun _ ->
        Char.chr (48 + Random.State.int rand 10)) in
    match Random.State.int rand 4 with
    | 0 -> digits
    | 1 -> "-" ^ digits
    | 2 -> digits ^ "." ^ digits
    | _ -> "1e" ^ digits
  in
  (* The members of a flat canonical line: no commas inside values. *)
  let members () =
    if n >= 2 && line.[0] = '{' && line.[n - 1] = '}' then
      String.split_on_char ',' (String.sub line 1 (n - 2))
    else []
  in
  let rebuild ms = "{" ^ String.concat "," ms ^ "}" in
  let with_value m v =
    match String.index_opt m ':' with
    | Some i -> String.sub m 0 (i + 1) ^ v
    | None -> m
  in
  let pick l = List.nth l (Random.State.int rand (List.length l)) in
  match Random.State.int rand 5 with
  | 4 ->
    let i = Random.State.int rand (n + 1) in
    String.sub line 0 i
    ^ pick [ "\\"; "\\u"; "\\u00"; "\\u0"; "\""; "{"; ":"; ","; "}" ]
    ^ (if Random.State.bool rand then String.sub line i (n - i) else "")
  | 0 when n > 0 ->
    let b = Bytes.of_string line in
    Bytes.set b (Random.State.int rand n) (Char.chr (Random.State.int rand 256));
    Bytes.to_string b
  | 1 -> String.sub line 0 (Random.State.int rand (n + 1))
  | 2 ->
    (match members () with
     | [] -> line
     | ms ->
       let m = pick ms in
       let v = pick [ "\"x\""; "0"; "-1"; "0.5"; long_number (); "" ] in
       rebuild (ms @ [ with_value m v ]))
  | _ ->
    (match members () with
     | [] -> line
     | ms ->
       let target = pick ms in
       rebuild
         (List.map
            (fun m -> if m == target then with_value m (long_number ()) else m)
            ms))

let prop_of_json_never_raises =
  Q.Test.make ~name:"of_json never raises on mutated lines" ~count:2000
    (Q.make ~print:(fun (r, _) -> Quality.to_json r)
       Q.Gen.(pair gen_record int))
    (fun (r, seed) ->
       let rand = Random.State.make [| seed |] in
       let line = ref (Quality.to_json r) in
       for _ = 0 to Random.State.int rand 3 do
         line := mutate_line rand !line
       done;
       match Quality.of_json !line with
       | Ok _ | Error _ -> true
       | exception e ->
         Q.Test.fail_reportf "%s raised %s" (String.escaped !line)
           (Printexc.to_string e))

(* Numbers the reader cannot hold exactly are errors, not wrong
   values: 2^53 + 1 reads as 2^53 through a float, [int_of_float]
   answers garbage past [max_int], and an overflowing score is
   infinite. *)
let test_of_json_over_long_numbers () =
  let with_member key v =
    String.split_on_char ',' golden_line
    |> List.map (fun m ->
        if String.starts_with ~prefix:(key ^ ":") m then key ^ ":" ^ v else m)
    |> String.concat ","
  in
  let with_tokens = with_member "\"tokens\"" in
  List.iter
    (fun line ->
       match Quality.of_json line with
       | Ok _ -> Alcotest.failf "accepted %s" line
       | Error _ -> ())
    (with_member "\"score\"" "1e999"
     :: List.map with_tokens
       [ "99999999999999999999999"; "9007199254740993"; "9007199254740992";
         "1e400"; "-1e30" ]);
  match Quality.of_json (with_tokens "9007199254740991") with
  | Ok r ->
    Alcotest.(check int) "2^53 - 1 still reads" ((1 lsl 53) - 1)
      r.Quality.tokens
  | Error e -> Alcotest.failf "2^53 - 1 rejected: %s" e

let test_agg_buckets () =
  let agg = Agg.create () in
  List.iter
    (fun score -> Agg.add agg { golden_record with score })
    [ 0.; 0.05; 0.1; 0.55; 0.95; 1. ];
  let cell = Agg.total agg in
  Alcotest.(check int) "count" 6 cell.Agg.count;
  (* Buckets are (lower, upper]-style on uppers 0.1 .. 1.0 with 0.0
     landing in the first: 0 and 0.05 and 0.1 → bucket 0, 0.55 →
     bucket 5, 0.95 and 1.0 → bucket 9. *)
  Alcotest.(check int) "low bucket" 3 cell.Agg.score_buckets.(0);
  Alcotest.(check int) "mid bucket" 1 cell.Agg.score_buckets.(5);
  Alcotest.(check int) "top bucket" 2 cell.Agg.score_buckets.(9);
  feq "mean score" (2.65 /. 6.) (Agg.mean_score cell)

(* --- trace file naming (colliding stems regression) --------------- *)

let test_trace_doc_file_name () =
  (* Two documents with the same stem but different content keys must
     get distinct per-document trace files. *)
  let a = Trace.doc_file_name ~name:"doc-00000" ~key:"00ab" in
  let b = Trace.doc_file_name ~name:"doc-00000" ~key:"00cd" in
  Alcotest.(check string) "key suffix" "doc-00000.00ab.trace.json" a;
  Alcotest.(check bool) "distinct for distinct keys" true (a <> b);
  Alcotest.(check string) "path separators flattened"
    "a_b_c.k.trace.json"
    (Trace.doc_file_name ~name:"a/b\\c" ~key:"k");
  Alcotest.(check string) "empty key omits the dot"
    "doc.trace.json"
    (Trace.doc_file_name ~name:"doc" ~key:"")

let suite =
  [ Alcotest.test_case "score: failed" `Quick test_score_failed;
    Alcotest.test_case "score: clean" `Quick test_score_clean;
    Alcotest.test_case "score: conflicts" `Quick test_score_conflict_penalty;
    Alcotest.test_case "score: ambiguity" `Quick test_score_ambiguity_penalty;
    Alcotest.test_case "score: clamped" `Quick test_score_clamped;
    Alcotest.test_case "golden jsonl line" `Quick test_golden_json;
    Alcotest.test_case "of_json rejects" `Quick test_of_json_rejects;
    Alcotest.test_case "of_json forward-compat" `Quick
      test_of_json_ignores_unknown_fields;
    Alcotest.test_case "of_extraction consistent" `Quick
      test_of_extraction_consistent;
    Alcotest.test_case "failed record" `Quick test_failed_record;
    Alcotest.test_case "of_rollup" `Quick test_of_rollup;
    Alcotest.test_case "agg buckets" `Quick test_agg_buckets;
    to_alcotest prop_merge_equals_single_pass;
    to_alcotest prop_json_round_trip;
    to_alcotest prop_of_json_never_raises;
    Alcotest.test_case "of_json: over-long numbers" `Quick
      test_of_json_over_long_numbers;
    Alcotest.test_case "trace doc file name" `Quick test_trace_doc_file_name ]
