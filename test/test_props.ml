(* Property-based tests (qcheck) on core data structures and invariants. *)

module Q = QCheck
module Bitset = Wqi_grammar.Bitset
module Geometry = Wqi_layout.Geometry
module Entity = Wqi_html.Entity
module Dom = Wqi_html.Dom
module Condition = Wqi_model.Condition
module Prng = Wqi_corpus.Prng

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- bitset properties --- *)

let universe = 130

let elems_gen = Q.small_list (Q.int_bound (universe - 1))

let bitset_of = Bitset.of_list universe

let prop_union_commutative =
  Q.Test.make ~name:"bitset union commutative" ~count:200
    (Q.pair elems_gen elems_gen) (fun (xs, ys) ->
        Bitset.equal
          (Bitset.union (bitset_of xs) (bitset_of ys))
          (Bitset.union (bitset_of ys) (bitset_of xs)))

let prop_union_models_list_union =
  Q.Test.make ~name:"bitset union = list union" ~count:200
    (Q.pair elems_gen elems_gen) (fun (xs, ys) ->
        Bitset.elements (Bitset.union (bitset_of xs) (bitset_of ys))
        = List.sort_uniq compare (xs @ ys))

let prop_inter_subset =
  Q.Test.make ~name:"intersection is a subset of both" ~count:200
    (Q.pair elems_gen elems_gen) (fun (xs, ys) ->
        let i = Bitset.inter (bitset_of xs) (bitset_of ys) in
        Bitset.subset i (bitset_of xs) && Bitset.subset i (bitset_of ys))

let prop_disjoint_iff_empty_inter =
  Q.Test.make ~name:"disjoint iff empty intersection" ~count:200
    (Q.pair elems_gen elems_gen) (fun (xs, ys) ->
        Bitset.disjoint (bitset_of xs) (bitset_of ys)
        = Bitset.is_empty (Bitset.inter (bitset_of xs) (bitset_of ys)))

let prop_cardinal =
  Q.Test.make ~name:"cardinal counts distinct elements" ~count:200 elems_gen
    (fun xs ->
       Bitset.cardinal (bitset_of xs)
       = List.length (List.sort_uniq compare xs))

let prop_strict_subset_irreflexive =
  Q.Test.make ~name:"strict subset irreflexive" ~count:200 elems_gen (fun xs ->
      not (Bitset.strict_subset (bitset_of xs) (bitset_of xs)))

(* --- geometry properties --- *)

let box_gen =
  Q.map
    (fun (x1, y1, w, h) -> Geometry.make ~x1 ~y1 ~x2:(x1 + w) ~y2:(y1 + h))
    (Q.quad (Q.int_bound 500) (Q.int_bound 500) (Q.int_bound 200)
       (Q.int_bound 200))

let prop_union_contains =
  Q.Test.make ~name:"union contains both boxes" ~count:200
    (Q.pair box_gen box_gen) (fun (a, b) ->
        let u = Geometry.union a b in
        Geometry.contains u a && Geometry.contains u b)

let prop_overlap_symmetric =
  Q.Test.make ~name:"overlaps symmetric" ~count:200 (Q.pair box_gen box_gen)
    (fun (a, b) ->
       Geometry.h_overlap a b = Geometry.h_overlap b a
       && Geometry.v_overlap a b = Geometry.v_overlap b a
       && Geometry.h_gap a b = Geometry.h_gap b a)

let prop_left_of_antisymmetric =
  Q.Test.make ~name:"left_of antisymmetric on separated boxes" ~count:200
    (Q.pair box_gen box_gen) (fun (a, b) ->
        (* Two boxes cannot be strictly left of each other unless they
           touch within tolerance. *)
        (not (Geometry.left_of ~max_gap:1000 a b))
        || (not (Geometry.left_of ~max_gap:1000 b a))
        || abs (a.Geometry.x1 - b.Geometry.x1) <= 4)

let prop_distance_symmetric =
  Q.Test.make ~name:"distance symmetric, zero on self" ~count:200
    (Q.pair box_gen box_gen) (fun (a, b) ->
        Geometry.distance a b = Geometry.distance b a
        && Geometry.distance a a = 0.)

(* Hint regions are sound: whenever a relation holds of two boxes, each
   box lies in the region the other anchors ([Hint.region]'s contract,
   which the candidate index and guards' scope queries probe by).  Box
   pairs are drawn near each other, so adjacency holds often. *)
module Hint = Wqi_grammar.Hint

let near_pair_gen =
  Q.map
    (fun ((x1, y1, w, h), (dx, dy, w', h')) ->
       let a = Geometry.make ~x1 ~y1 ~x2:(x1 + w) ~y2:(y1 + h) in
       let x1' = x1 + dx and y1' = y1 + dy in
       (a, Geometry.make ~x1:x1' ~y1:y1' ~x2:(x1' + w') ~y2:(y1' + h')))
    (Q.pair
       (Q.quad (Q.int_bound 300) (Q.int_bound 300) (Q.int_bound 80)
          (Q.int_bound 40))
       (Q.quad (Q.int_range (-60) 200) (Q.int_range (-40) 100)
          (Q.int_bound 80) (Q.int_bound 40)))

let in_region (r : Hint.region) (b : Geometry.box) =
  let meets span lo hi = match span with
    | None -> true
    | Some (l, h) -> lo <= h && hi >= l
  in
  meets r.Hint.y b.Geometry.y1 b.Geometry.y2
  && meets r.Hint.x b.Geometry.x1 b.Geometry.x2

let hint_rels =
  Hint.
    [ Adjacent_left; Adjacent_above; Left_of 60; Above 40; Below 40;
      Same_row; Same_column; Left_aligned 6; Top_aligned 6;
      Bottom_aligned 6 ]

let prop_region_sound =
  Q.Test.make ~name:"relation holds => candidate in Hint.region" ~count:2000
    near_pair_gen (fun (a, b) ->
        List.for_all
          (fun rel ->
             (not (Hint.holds_rel rel a b))
             || in_region (Hint.region rel ~anchor:a ~anchor_is_first:true) b
                && in_region
                     (Hint.region rel ~anchor:b ~anchor_is_first:false)
                     a)
          hint_rels)

(* --- entity properties --- *)

let printable_string =
  Q.string_gen_of_size (Q.Gen.int_bound 30) (Q.Gen.char_range ' ' '~')

let prop_entity_roundtrip =
  Q.Test.make ~name:"decode after encode_text is identity" ~count:300
    printable_string (fun s -> Entity.decode (Entity.encode_text s) = s)

let prop_attribute_roundtrip =
  Q.Test.make ~name:"decode after encode_attribute is identity" ~count:300
    printable_string (fun s -> Entity.decode (Entity.encode_attribute s) = s)

(* --- HTML roundtrip property --- *)

let name_gen = Q.Gen.oneofl [ "div"; "span"; "b"; "i"; "em" ]
let word_gen =
  Q.Gen.string_size ~gen:(Q.Gen.char_range 'a' 'z') (Q.Gen.int_range 1 8)

(* Random small DOM trees with no adjacent text nodes and no
   whitespace-sensitive content: serialization then parsing must
   reproduce them exactly. *)
let dom_gen =
  let open Q.Gen in
  let rec tree depth =
    if depth = 0 then map Dom.text word_gen
    else
      frequency
        [ (2, map Dom.text word_gen);
          ( 3,
            name_gen >>= fun name ->
            list_size (int_bound 3)
              (pair (tree (depth - 1)) (return ()))
            >>= fun children ->
            let children = List.map fst children in
            (* Separate adjacent texts with an element to keep the
               roundtrip exact. *)
            let rec dedup = function
              | (Dom.Text a) :: (Dom.Text b) :: rest ->
                Dom.Text a :: Dom.element "b" [ Dom.Text b ] :: dedup rest
              | x :: rest -> x :: dedup rest
              | [] -> []
            in
            word_gen >>= fun attr_value ->
            return
              (Dom.element name
                 ~attrs:[ ("class", attr_value) ]
                 (dedup children)) ) ]
  in
  tree 3

let dom_arbitrary = Q.make ~print:(Fmt.to_to_string Dom.pp) dom_gen

let prop_html_roundtrip =
  Q.Test.make ~name:"printer/parser roundtrip" ~count:200 dom_arbitrary
    (fun tree ->
       match Wqi_html.Parser.parse_fragment (Wqi_html.Printer.to_string tree) with
       | [ reparsed ] -> reparsed = tree
       | _ -> false)

(* --- condition properties --- *)

let prop_normalize_idempotent =
  Q.Test.make ~name:"label normalization idempotent" ~count:300
    printable_string (fun s ->
        let n = Condition.normalize_label s in
        Condition.normalize_label n = n)

let prop_matches_reflexive =
  Q.Test.make ~name:"condition matches itself" ~count:200
    (Q.pair printable_string (Q.small_list printable_string))
    (fun (attr, ops) ->
       Q.assume (String.trim attr <> "");
       let c = Condition.make ~operators:ops ~attribute:attr Condition.Text in
       Condition.matches ~truth:c c)

(* --- prng properties --- *)

let prop_prng_in_bounds =
  Q.Test.make ~name:"prng int in bounds" ~count:300
    (Q.pair Q.int (Q.int_range 1 1000)) (fun (seed, bound) ->
        let g = Prng.create (Int64.of_int seed) in
        let v = Prng.int g bound in
        v >= 0 && v < bound)

let prop_prng_sample =
  Q.Test.make ~name:"prng sample distinct subset" ~count:200
    (Q.triple Q.int (Q.int_bound 10) (Q.small_list Q.int))
    (fun (seed, k, items) ->
       let g = Prng.create (Int64.of_int seed) in
       let items = List.mapi (fun i x -> (i, x)) items in
       let s = Prng.sample g k items in
       List.length s = min k (List.length items)
       && List.length (List.sort_uniq compare s) = List.length s
       && List.for_all (fun x -> List.mem x items) s)

let prop_weighted_pick_member =
  Q.Test.make ~name:"weighted pick returns a member" ~count:200
    (Q.pair Q.int (Q.list_of_size (Q.Gen.int_range 1 8) (Q.float_bound_inclusive 10.)))
    (fun (seed, weights) ->
       Q.assume (List.exists (fun w -> w > 0.) weights);
       let g = Prng.create (Int64.of_int seed) in
       let items = List.mapi (fun i w -> (i, w)) weights in
       let picked = Prng.weighted_pick g items in
       picked >= 0 && picked < List.length weights)

(* --- tokenizer / extractor invariants --- *)

let prop_token_ids_dense =
  Q.Test.make ~name:"token ids dense over generated sources" ~count:25
    (Q.int_bound 10_000) (fun seed ->
        let g = Prng.create (Int64.of_int seed) in
        let source =
          Wqi_corpus.Generator.generate g ~id:"prop"
            ~domain:(Wqi_corpus.Vocabulary.find "Books") ~complexity:`Simple
            ~oog_prob:0.1 ()
        in
        let tokens = Wqi_token.Tokenize.of_html source.html in
        List.for_all2
          (fun (t : Wqi_token.Token.t) i -> t.id = i)
          tokens
          (List.init (List.length tokens) Fun.id))

let prop_extractor_deterministic =
  Q.Test.make ~name:"extractor deterministic on generated sources" ~count:10
    (Q.int_bound 10_000) (fun seed ->
        let g = Prng.create (Int64.of_int seed) in
        let source =
          Wqi_corpus.Generator.generate g ~id:"prop"
            ~domain:(Wqi_corpus.Vocabulary.find "Airfares")
            ~complexity:`Simple ~oog_prob:0.1 ()
        in
        let run () =
          List.map Condition.to_string
            Wqi_core.Extractor.(
              conditions (run Config.default (Html source.html)))
        in
        run () = run ())

(* --- schedule-graph properties over random grammars --- *)

(* Random layered grammars: nonterminal i may only use components with
   larger index (or terminals), so d-edges are always acyclic; random
   preferences then stress the r-edge machinery. *)
let random_grammar_gen =
  let open Q.Gen in
  int_range 3 8 >>= fun n ->
  let sym i = Wqi_grammar.Symbol.nonterminal (Printf.sprintf "N%d" i) in
  let t_text = Wqi_grammar.Symbol.terminal "text" in
  (* Each symbol gets a base production on the terminal plus up to two
     productions over higher-indexed symbols. *)
  let production_gens =
    List.concat
      (List.init n (fun i ->
           [ ( int_bound 1000 >>= fun salt ->
               return
                 (Wqi_grammar.Production.make
                    ~name:(Printf.sprintf "p%d-base-%d" i salt)
                    ~head:(sym i) ~components:[ t_text ] ()) ) ]
           @
           if i + 1 < n then
             [ ( int_range (i + 1) (n - 1) >>= fun j ->
                 return
                   (Wqi_grammar.Production.make
                      ~name:(Printf.sprintf "p%d-uses-%d" i j)
                      ~head:(sym i)
                      ~components:[ sym j; t_text ]
                      ()) ) ]
           else []))
  in
  let rec sequence = function
    | [] -> return []
    | g :: rest ->
      g >>= fun x ->
      sequence rest >>= fun xs -> return (x :: xs)
  in
  sequence production_gens >>= fun productions ->
  list_size (int_bound 6)
    (pair (int_bound (n - 1)) (int_bound (n - 1)))
  >>= fun pref_pairs ->
  let preferences =
    List.mapi
      (fun k (w, l) ->
         Wqi_grammar.Preference.make
           ~name:(Printf.sprintf "r%d" k)
           ~winner:(sym w) ~loser:(sym l) ())
      pref_pairs
  in
  return
    (Wqi_grammar.Grammar.make ~terminals:[ t_text ] ~start:(sym 0)
       ~productions ~preferences ())

let random_grammar =
  Q.make
    ~print:(fun g ->
        Fmt.str "%a" Wqi_grammar.Grammar.pp g)
    random_grammar_gen

let index_of order sym =
  let rec go i = function
    | [] -> -1
    | x :: rest -> if Wqi_grammar.Symbol.equal x sym then i else go (i + 1) rest
  in
  go 0 order

let prop_schedule_complete =
  Q.Test.make ~name:"schedule orders every nonterminal once" ~count:100
    random_grammar (fun g ->
        let s = Wqi_grammar.Schedule.build g in
        let order = s.Wqi_grammar.Schedule.order in
        let nts = Wqi_grammar.Grammar.nonterminals g in
        List.length order = List.length nts
        && List.for_all (fun nt -> index_of order nt >= 0) nts)

let prop_schedule_d_edges =
  Q.Test.make ~name:"components scheduled before heads" ~count:100
    random_grammar (fun g ->
        let s = Wqi_grammar.Schedule.build g in
        let order = s.Wqi_grammar.Schedule.order in
        List.for_all
          (fun (p : Wqi_grammar.Production.t) ->
             List.for_all
               (fun c ->
                  Wqi_grammar.Symbol.is_terminal c
                  || Wqi_grammar.Symbol.equal c p.head
                  || index_of order c < index_of order p.head)
               p.components)
          g.productions)

let prop_schedule_r_edges =
  Q.Test.make ~name:"direct r-edges honoured, transformed go via parents"
    ~count:100 random_grammar (fun g ->
        let s = Wqi_grammar.Schedule.build g in
        let order = s.Wqi_grammar.Schedule.order in
        let transformed =
          List.map (fun (r, _) -> r.Wqi_grammar.Preference.name)
            s.Wqi_grammar.Schedule.transformed
        in
        let relaxed =
          List.map (fun r -> r.Wqi_grammar.Preference.name)
            s.Wqi_grammar.Schedule.relaxed
        in
        List.for_all
          (fun (r : Wqi_grammar.Preference.t) ->
             Wqi_grammar.Preference.same_symbol r
             || List.mem r.name relaxed
             ||
             if List.mem r.name transformed then
               List.for_all
                 (fun parent ->
                    Wqi_grammar.Symbol.equal parent r.winner
                    || index_of order r.winner < index_of order parent)
                 (Wqi_grammar.Grammar.parents_of g r.loser)
             else index_of order r.winner < index_of order r.loser)
          g.preferences)

(* --- parser invariants over generated sources --- *)

let parse_generated seed =
  let g = Prng.create (Int64.of_int seed) in
  let domains = Wqi_corpus.Vocabulary.all in
  let domain = List.nth domains (seed mod List.length domains) in
  let source =
    Wqi_corpus.Generator.generate g ~id:"prop" ~domain ~complexity:`Rich
      ~oog_prob:0.15 ()
  in
  let tokens = Wqi_token.Tokenize.of_html source.html in
  (tokens, Wqi_parser.Engine.parse Wqi_stdgrammar.Std.compiled tokens)

let prop_maximal_non_subsuming =
  Q.Test.make ~name:"maximal trees pairwise non-subsuming" ~count:15
    (Q.int_bound 10_000) (fun seed ->
        let _tokens, r = parse_generated seed in
        let trees = r.Wqi_parser.Engine.maximal in
        List.for_all
          (fun (a : Wqi_grammar.Instance.t) ->
             List.for_all
               (fun (b : Wqi_grammar.Instance.t) ->
                  a.id = b.id
                  || not (Wqi_grammar.Bitset.subset a.cover b.cover))
               trees)
          trees)

let prop_maximal_alive_and_parentless =
  Q.Test.make ~name:"maximal trees are live tops" ~count:15
    (Q.int_bound 10_000) (fun seed ->
        let _tokens, r = parse_generated seed in
        List.for_all
          (fun (t : Wqi_grammar.Instance.t) ->
             t.alive
             && not
                  (List.exists
                     (fun (p : Wqi_grammar.Instance.t) -> p.alive)
                     t.parents))
          r.Wqi_parser.Engine.maximal)

let prop_complete_covers_everything =
  Q.Test.make ~name:"complete parse covers every token" ~count:15
    (Q.int_bound 10_000) (fun seed ->
        let tokens, r = parse_generated seed in
        match r.Wqi_parser.Engine.complete with
        | None -> true
        | Some top ->
          Wqi_grammar.Bitset.cardinal top.cover = List.length tokens)

let prop_live_trees_consistent =
  Q.Test.make ~name:"children of live maximal trees are alive" ~count:15
    (Q.int_bound 10_000) (fun seed ->
        let _tokens, r = parse_generated seed in
        let rec ok (i : Wqi_grammar.Instance.t) =
          i.alive && List.for_all ok i.children
        in
        List.for_all ok r.Wqi_parser.Engine.maximal)

let prop_stats_bounds =
  Q.Test.make ~name:"parser stats are internally consistent" ~count:15
    (Q.int_bound 10_000) (fun seed ->
        let _tokens, r = parse_generated seed in
        let s = r.Wqi_parser.Engine.stats in
        s.live <= s.created && s.temporary <= s.created
        && s.pruned + s.rolled_back <= s.created
        && s.live = List.length r.Wqi_parser.Engine.all_live)

let prop_extractor_total =
  Q.Test.make ~name:"extractor never raises on random markup" ~count:100
    printable_string (fun s ->
        ignore (Wqi_core.Extractor.(run Config.default (Html s)));
        true)

(* --- budget / degradation properties --- *)

module Budget = Wqi_budget.Budget
module Extractor = Wqi_core.Extractor

(* Markup soup: random concatenation of tag fragments, broken entities,
   stray brackets and form markup — the adversarial end of "arbitrary
   input" for the totality guarantee. *)
let soup_gen =
  let open Q.Gen in
  let fragment =
    oneofl
      [ "<"; ">"; "</"; "<!"; "<!--"; "-->"; "&"; "&amp"; "&#x"; "\"";
        "='"; "<select"; "<option selected"; "</select>"; "<input";
        "type=checkbox"; "<table><tr><td"; "</b></i>"; "<form action=";
        "<textarea>"; "name=\""; " "; "from"; "to"; "<script>"; "<";
        "<div style=\"width:"; "9999px\""; "<br/>"; "\x00"; "\xff" ]
  in
  list_size (int_range 0 40) fragment >>= fun parts ->
  return (String.concat "" parts)

let soup = Q.make ~print:(Printf.sprintf "%S") soup_gen

let prop_extract_total_on_soup =
  Q.Test.make ~name:"extract never raises on markup soup" ~count:150 soup
    (fun s ->
       ignore (Extractor.(run Config.default (Html s)));
       true)

let generated_html seed =
  let g = Prng.create (Int64.of_int seed) in
  let domains = Wqi_corpus.Vocabulary.all in
  let domain = List.nth domains (seed mod List.length domains) in
  let source =
    Wqi_corpus.Generator.generate g ~id:"prop" ~domain ~complexity:`Rich
      ~oog_prob:0.15 ()
  in
  source.Wqi_corpus.Generator.html

let prop_extract_total_on_truncated =
  Q.Test.make ~name:"extract never raises on truncated documents" ~count:40
    (Q.pair (Q.int_bound 10_000) (Q.int_bound 10_000)) (fun (seed, cut) ->
        let html = generated_html seed in
        let cut = cut mod max 1 (String.length html) in
        ignore (Extractor.(run Config.default (Html (String.sub html 0 cut))));
        true)

let tiny_budget_config seed =
  (* Vary which cap bites so every stage's degradation path gets hit. *)
  let budget =
    match seed mod 5 with
    | 0 -> Budget.make ~max_html_nodes:(1 + (seed mod 37)) ()
    | 1 -> Budget.make ~max_boxes:(1 + (seed mod 53)) ()
    | 2 -> Budget.make ~max_tokens:(1 + (seed mod 17)) ()
    | 3 -> Budget.make ~max_instances:(1 + (seed mod 29)) ()
    | _ -> Budget.make ~max_rounds:(1 + (seed mod 7)) ()
  in
  Extractor.Config.with_budget budget Extractor.Config.default

let prop_budgeted_run_total =
  Q.Test.make ~name:"budgeted run never raises, outcome well-formed" ~count:40
    (Q.int_bound 10_000) (fun seed ->
        let config = tiny_budget_config seed in
        let e = Extractor.run config (Extractor.Html (generated_html seed)) in
        match e.Extractor.outcome with
        | Budget.Complete -> true
        | Budget.Degraded trips -> trips <> []
        | Budget.Failed _ -> false)

let prop_degraded_token_prefix_dense =
  Q.Test.make ~name:"degraded token prefix keeps dense ids" ~count:40
    (Q.pair (Q.int_bound 10_000) (Q.int_range 1 20)) (fun (seed, cap) ->
        let gauge = Budget.start (Budget.make ~max_tokens:cap ()) in
        let tokens = Wqi_token.Tokenize.of_html ~gauge (generated_html seed) in
        List.length tokens <= cap
        && List.for_all2
             (fun (t : Wqi_token.Token.t) i -> t.id = i)
             tokens
             (List.init (List.length tokens) Fun.id))

let suite =
  List.map to_alcotest
    [ prop_union_commutative;
      prop_union_models_list_union;
      prop_inter_subset;
      prop_disjoint_iff_empty_inter;
      prop_cardinal;
      prop_strict_subset_irreflexive;
      prop_union_contains;
      prop_overlap_symmetric;
      prop_left_of_antisymmetric;
      prop_distance_symmetric;
      prop_region_sound;
      prop_entity_roundtrip;
      prop_attribute_roundtrip;
      prop_html_roundtrip;
      prop_normalize_idempotent;
      prop_matches_reflexive;
      prop_prng_in_bounds;
      prop_prng_sample;
      prop_weighted_pick_member;
      prop_token_ids_dense;
      prop_extractor_deterministic;
      prop_schedule_complete;
      prop_schedule_d_edges;
      prop_schedule_r_edges;
      prop_maximal_non_subsuming;
      prop_maximal_alive_and_parentless;
      prop_complete_covers_everything;
      prop_live_trees_consistent;
      prop_stats_bounds;
      prop_extractor_total;
      prop_extract_total_on_soup;
      prop_extract_total_on_truncated;
      prop_budgeted_run_total;
      prop_degraded_token_prefix_dense ]
