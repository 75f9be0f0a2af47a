(* Tests for the best-effort parser engine, using small synthetic
   grammars over fabricated token rows. *)

module G = Wqi_grammar
module Symbol = G.Symbol
module Instance = G.Instance
module Production = G.Production
module Preference = G.Preference
module Grammar = G.Grammar
module Bitset = G.Bitset
module Engine = Wqi_parser.Engine
module Token = Wqi_token.Token
module Geometry = Wqi_layout.Geometry
module R = G.Relation

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let t_text = Symbol.terminal "text"
let t_textbox = Symbol.terminal "textbox"
let nt = Symbol.nonterminal

(* A row of tokens, 30px apart. *)
let row kinds =
  List.mapi
    (fun i kind ->
       { Token.id = i; kind;
         box = Geometry.make ~x1:(i * 30) ~y1:0 ~x2:((i * 30) + 20) ~y2:10;
         sval = Printf.sprintf "t%d" i; name = ""; options = []; value = "";
         checked = false; multiple = false })
    kinds

(* L -> text | Left(L, text): the canonical recursive list. *)
let list_grammar ?(preferences = []) () =
  Grammar.make ~terminals:[ t_text ] ~start:(nt "L")
    ~productions:
      [ Production.make ~name:"L-base" ~head:(nt "L") ~components:[ t_text ] ();
        Production.make ~name:"L-rec" ~head:(nt "L")
          ~components:[ nt "L"; t_text ]
          ~guard:(fun _ arr -> R.left ~max_gap:15 arr.(0) arr.(1))
          () ]
    ~preferences ()

let longest_wins =
  Preference.make ~name:"longest" ~winner:(nt "L") ~loser:(nt "L")
    ~conflict:(fun a b -> Instance.subsumes a b)
    ~wins:(fun a b ->
        Bitset.cardinal a.Instance.cover > Bitset.cardinal b.Instance.cover)
    ()

let longest_list () =
  Engine.compile (list_grammar ~preferences:[ longest_wins ] ())

let test_fixpoint_builds_all_sublists () =
  (* Without preferences, every contiguous sublist is derived: 3 tokens
     give 6 lists (the paper's Figure-8 ambiguity). *)
  let result =
    Engine.parse
      ~options:{ Engine.default_options with use_preferences = false }
      (Engine.compile (list_grammar ()))
      (row [ Token.Text; Token.Text; Token.Text ])
  in
  let lists =
    List.filter (fun (i : Instance.t) -> Symbol.name i.sym = "L")
      result.Engine.all_live
  in
  check_int "all contiguous sublists" 6 (List.length lists)

let test_preference_prunes_sublists () =
  let result =
    Engine.parse (longest_list ())
      (row [ Token.Text; Token.Text; Token.Text ])
  in
  (* Only the full list and its build-chain descendants survive. *)
  let lists =
    List.filter (fun (i : Instance.t) -> Symbol.name i.sym = "L")
      result.Engine.all_live
  in
  check_int "maximal chain survives" 3 (List.length lists);
  check_int "one maximal tree" 1 (List.length result.Engine.maximal);
  check_bool "complete parse" true (result.Engine.complete <> None);
  check_bool "winner's descendants spared" true (result.Engine.stats.pruned > 0)

let test_descendants_never_killed () =
  let result =
    Engine.parse (longest_list ())
      (row [ Token.Text; Token.Text; Token.Text; Token.Text ])
  in
  match result.Engine.complete with
  | None -> Alcotest.fail "expected complete parse"
  | Some top ->
    let rec all_alive (i : Instance.t) =
      i.alive && List.for_all all_alive i.children
    in
    check_bool "whole winning derivation alive" true (all_alive top)

let test_maximal_subsumption () =
  (* Two tokens too far apart to chain: two maximal single-token trees. *)
  let tokens =
    [ { Token.id = 0; kind = Token.Text;
        box = Geometry.make ~x1:0 ~y1:0 ~x2:20 ~y2:10; sval = "a"; name = "";
        options = []; value = ""; checked = false; multiple = false };
      { Token.id = 1; kind = Token.Text;
        box = Geometry.make ~x1:500 ~y1:0 ~x2:520 ~y2:10; sval = "b";
        name = ""; options = []; value = ""; checked = false; multiple = false } ]
  in
  let result =
    Engine.parse
      (longest_list ())
      tokens
  in
  check_int "two maximal trees" 2 (List.length result.Engine.maximal);
  check_bool "no complete parse" true (result.Engine.complete = None);
  List.iter
    (fun (t : Instance.t) ->
       check_int "singleton cover" 1 (Bitset.cardinal t.cover))
    result.Engine.maximal

let test_guards_respected () =
  (* A guard that rejects everything: only base lists are built. *)
  let g =
    Grammar.make ~terminals:[ t_text ] ~start:(nt "L")
      ~productions:
        [ Production.make ~name:"L-base" ~head:(nt "L") ~components:[ t_text ] ();
          Production.make ~name:"L-rec" ~head:(nt "L")
            ~components:[ nt "L"; t_text ]
            ~guard:(fun _ _ -> false)
            () ]
      ()
  in
  let result =
    Engine.parse (Engine.compile g) (row [ Token.Text; Token.Text ])
  in
  check_int "only singletons" 2 (List.length result.Engine.maximal)

let test_cover_disjointness () =
  (* A pair production can never use the same token twice. *)
  let g =
    Grammar.make ~terminals:[ t_text ] ~start:(nt "P")
      ~productions:
        [ Production.make ~name:"pair" ~head:(nt "P")
            ~components:[ t_text; t_text ] () ]
      ()
  in
  let result = Engine.parse (Engine.compile g) (row [ Token.Text ]) in
  check_int "no pair from one token" 0
    (List.length
       (List.filter (fun (i : Instance.t) -> Symbol.name i.sym = "P")
          result.Engine.all_live))

let test_semantic_constructor_runs () =
  let g =
    Grammar.make ~terminals:[ t_text ] ~start:(nt "C")
      ~productions:
        [ Production.make ~name:"c" ~head:(nt "C") ~components:[ t_text ]
            ~build:(fun arr ->
                let tok = Option.get arr.(0).Instance.token in
                Instance.S_cond
                  (Wqi_model.Condition.make ~attribute:tok.Token.sval
                     Wqi_model.Condition.Text))
            () ]
      ()
  in
  let result = Engine.parse (Engine.compile g) (row [ Token.Text ]) in
  match result.Engine.maximal with
  | [ tree ] ->
    (match Instance.conditions tree with
     | [ c ] -> Alcotest.(check string) "built from token" "t0" c.attribute
     | _ -> Alcotest.fail "expected one condition")
  | _ -> Alcotest.fail "expected one tree"

let test_truncation () =
  let result =
    Engine.parse
      ~options:{ Engine.default_options with use_preferences = false;
                 max_instances = 12 }
      (Engine.compile (list_grammar ()))
      (row [ Token.Text; Token.Text; Token.Text; Token.Text; Token.Text ])
  in
  check_bool "truncated flagged" true result.Engine.stats.truncated;
  check_bool "bounded" true (result.Engine.stats.created <= 13)

let test_late_pruning_rollback () =
  (* With scheduling off, losers breed ancestors first; rollback must
     erase them and converge to the same surviving set. *)
  let tokens = row [ Token.Text; Token.Text; Token.Text ] in
  let jit =
    Engine.parse
      (longest_list ())
      tokens
  in
  let late =
    Engine.parse
      ~options:{ Engine.default_options with use_scheduling = false }
      (longest_list ())
      tokens
  in
  check_int "same live count" jit.Engine.stats.live late.Engine.stats.live;
  check_int "same trees" (List.length jit.Engine.maximal)
    (List.length late.Engine.maximal);
  check_bool "late created at least as many" true
    (late.Engine.stats.created >= jit.Engine.stats.created)

let test_stats_consistency () =
  let result =
    Engine.parse (longest_list ())
      (row [ Token.Text; Token.Text; Token.Text ])
  in
  let s = result.Engine.stats in
  check_bool "live <= created" true (s.live <= s.created);
  check_bool "temporary <= created" true (s.temporary <= s.created);
  check_int "live matches list" s.live (List.length result.Engine.all_live)

let test_count_trees () =
  let result =
    Engine.parse
      ~options:{ Engine.default_options with use_preferences = false }
      (Engine.compile (list_grammar ())) (row [ Token.Text; Token.Text ])
  in
  (* Complete interpretations of 2 tokens: [t0 t1] as one list. *)
  check_int "one complete tree" 1 (Engine.count_trees result)

let test_determinism () =
  let tokens = Wqi_token.Tokenize.of_html
      {|<form><table><tr><td>Author: <input type="text"></td></tr>
        <tr><td>Format: <select><option>a</option><option>b</option></select></td></tr>
        </table></form>|}
  in
  let g = Wqi_stdgrammar.Std.compiled in
  let r1 = Engine.parse g tokens in
  let r2 = Engine.parse g tokens in
  check_int "same created" r1.Engine.stats.created r2.Engine.stats.created;
  check_int "same live" r1.Engine.stats.live r2.Engine.stats.live;
  Alcotest.(check (list string)) "same maximal symbols"
    (List.map (fun (i : Instance.t) -> Symbol.name i.sym) r1.Engine.maximal)
    (List.map (fun (i : Instance.t) -> Symbol.name i.sym) r2.Engine.maximal)

let test_exhaustive_blowup () =
  (* Section 4.2.1: brute-force parsing yields strictly more instances
     and multiple complete trees on an operator-list fragment. *)
  let html = {|<form><table>
    <tr><td>Author:</td><td><input type="text" name="a"></td></tr>
    <tr><td></td><td><input type="radio" name="m"> starts with<br>
    <input type="radio" name="m"> exact name</td></tr></table></form>|}
  in
  let tokens = Wqi_token.Tokenize.of_html html in
  let g = Wqi_stdgrammar.Std.compiled in
  let best = Engine.parse g tokens in
  let exhaustive =
    Engine.parse
      ~options:{ Engine.default_options with use_preferences = false }
      g tokens
  in
  check_bool "blowup" true
    (exhaustive.Engine.stats.created > best.Engine.stats.created);
  check_bool "more trees without pruning" true
    (Engine.count_trees exhaustive >= Engine.count_trees best);
  check_bool "best-effort still complete" true (best.Engine.complete <> None)

(* Row assembly joins only adjacent rows and anchors a QI at a row with
   no row directly above it, so a uniform "label + text box" table
   parses ungoverned and completely in eight instances per row: two
   tokens, Attr, Val, TextVal, CP, HQI and one QI.  The instance bound
   is exact; the wall-time bound is loose (the 400-row table parses in
   about 10 ms). *)
let instances_per_row = 8

let uniform_table rows =
  let b = Buffer.create (64 * rows) in
  Buffer.add_string b "<form><table>";
  for i = 1 to rows do
    Printf.bprintf b "<tr><td>Label%d</td><td><input name=i%d></td></tr>" i i
  done;
  Buffer.add_string b "</table></form>";
  Buffer.contents b

let check_linear ctx ~rows html =
  let tokens = Wqi_token.Tokenize.of_html html in
  let t0 = Wqi_budget.Budget.now_s () in
  let r = Engine.parse Wqi_stdgrammar.Std.compiled tokens in
  let ms = 1000. *. (Wqi_budget.Budget.now_s () -. t0) in
  check_bool (ctx ^ ": not truncated") false r.Engine.stats.truncated;
  check_bool (ctx ^ ": complete") true (r.Engine.complete <> None);
  let created = r.Engine.stats.created in
  if created > instances_per_row * rows then
    Alcotest.failf "%s: %d instances for %d rows (bound %d per row)" ctx
      created rows instances_per_row;
  if ms > 2000. then Alcotest.failf "%s: parse took %.0f ms" ctx ms

let test_uniform_tables_linear () =
  List.iter
    (fun rows ->
       check_linear (Printf.sprintf "%d-row table" rows) ~rows
         (uniform_table rows))
    [ 30; 100; 400 ];
  (* 400 field rows and the submit button's *)
  check_linear "wide_form.html" ~rows:401
    (In_channel.with_open_bin "../examples/fixtures/wide_form.html"
       In_channel.input_all)

let suite =
  [ ("fixpoint builds all sublists", `Quick, test_fixpoint_builds_all_sublists);
    ("preference prunes sublists", `Quick, test_preference_prunes_sublists);
    ("winner descendants spared", `Quick, test_descendants_never_killed);
    ("maximal subsumption", `Quick, test_maximal_subsumption);
    ("guards respected", `Quick, test_guards_respected);
    ("cover disjointness", `Quick, test_cover_disjointness);
    ("semantic constructor", `Quick, test_semantic_constructor_runs);
    ("truncation", `Quick, test_truncation);
    ("late pruning rollback", `Quick, test_late_pruning_rollback);
    ("stats consistency", `Quick, test_stats_consistency);
    ("count trees", `Quick, test_count_trees);
    ("determinism", `Quick, test_determinism);
    ("exhaustive blowup", `Quick, test_exhaustive_blowup);
    ("uniform tables assemble in linear instances", `Quick,
     test_uniform_tables_linear) ]
