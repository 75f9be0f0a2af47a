(* Golden-file tests for the version-2 Export wire format: the JSON
   emitted with [export ~timings:false] must be byte-stable for a
   Complete, a Degraded (budget-tripped) and a Failed source.  This is
   the exact form the extraction server caches and serves, so any
   unintentional drift in field order, spelling or formatting fails
   here.  After an intentional change, regenerate with

     dune exec test/golden/gen_golden.exe -- test/golden

   and review the diff. *)

module Extractor = Wqi_core.Extractor
module Budget = Wqi_budget.Budget

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let html () = read_file (Filename.concat "golden" "complete.html")

(* Must match gen_golden.ml. *)
let degraded_max_instances = 48

let check_golden file ~name extraction =
  let expected = read_file (Filename.concat "golden" file) in
  let actual = Extractor.export ~timings:false ~name extraction ^ "\n" in
  if expected <> actual then
    Alcotest.failf
      "%s drifted from its golden file.@.--- golden@.%s@.--- actual@.%s@.\
       (regenerate with `dune exec test/golden/gen_golden.exe -- \
       test/golden` if the change is intentional)"
      file expected actual

let test_complete () =
  let e = Extractor.run Extractor.Config.default (Extractor.Html (html ())) in
  (match e.Extractor.outcome with
   | Budget.Complete -> ()
   | _ -> Alcotest.fail "fixture no longer extracts to Complete");
  check_golden "complete.json" ~name:"golden-complete" e

let test_degraded () =
  let budget = Budget.make ~max_instances:degraded_max_instances () in
  let config = Extractor.Config.(default |> with_budget budget) in
  let e = Extractor.run config (Extractor.Html (html ())) in
  (match e.Extractor.outcome with
   | Budget.Degraded _ -> ()
   | _ -> Alcotest.fail "instance cap no longer trips on the fixture");
  check_golden "degraded.json" ~name:"golden-degraded" e

let test_failed () =
  check_golden "failed.json" ~name:"golden-failed"
    (Extractor.failed "simulated upstream failure")

let test_deterministic () =
  (* [~timings:false] removes the only nondeterministic diagnostics
     (wall times), so two identical runs export identical bytes — the
     property the result cache's hit-equals-fresh guarantee rests on. *)
  let run () =
    Extractor.export ~timings:false ~name:"det"
      (Extractor.run Extractor.Config.default (Extractor.Html (html ())))
  in
  Alcotest.(check string) "same bytes" (run ()) (run ())

let suite =
  [ ("golden complete", `Quick, test_complete);
    ("golden degraded", `Quick, test_degraded);
    ("golden failed", `Quick, test_failed);
    ("export deterministic", `Quick, test_deterministic) ]
