(* Equivalence suite: the delta-driven (semi-naive) engine — with and
   without spatial candidate indexing — must be observationally
   identical to the naive reference oracle ({!Parse_oracle}) — not
   just "equivalent trees" but the same instance ids, because ids are
   the tie-breaker for maximal-tree selection and preference
   enforcement order.  The suite sweeps generated corpus sources across
   grammars, grammar complexities and parser configurations (a
   three-way pass per source: oracle / engine unhinted / engine
   hinted), single-word and multi-word universes alike (the engine
   keeps every cover as arena words, the oracle as {!Bitset} sets),
   plus the bitset word boundary and the raw-word constructor the
   arena builds instance covers with, plus a property test that
   randomly drops production hints — hints are pure pruning advice, so
   any subset of them must leave every observable unchanged. *)

module G = Wqi_grammar
module Symbol = G.Symbol
module Instance = G.Instance
module Bitset = G.Bitset
module Engine = Wqi_parser.Engine
module Generator = Wqi_corpus.Generator
module Tokenize = Wqi_token.Tokenize

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let unhinted options = { options with Engine.use_hints = false }

let ids instances = List.map (fun (i : Instance.t) -> i.Instance.id) instances

let tree_strings instances =
  List.map (Fmt.str "%a" Instance.pp_tree) instances

let model_strings (result : Engine.result) =
  List.concat_map
    (fun tree ->
       List.map
         (fun (c, toks) ->
            Fmt.str "%a@%a" Wqi_model.Condition.pp c
              Fmt.(list ~sep:(any ",") int)
              toks)
         (Instance.collect_conditions tree))
    result.Engine.maximal

let check_equivalent ctx (fast : Engine.result) (slow : Engine.result) =
  let check_list what = Alcotest.(check (list string)) (ctx ^ ": " ^ what) in
  check_int (ctx ^ ": created") slow.Engine.stats.created
    fast.Engine.stats.created;
  check_int (ctx ^ ": live") slow.Engine.stats.live fast.Engine.stats.live;
  check_int (ctx ^ ": pruned") slow.Engine.stats.pruned
    fast.Engine.stats.pruned;
  check_int (ctx ^ ": rolled back") slow.Engine.stats.rolled_back
    fast.Engine.stats.rolled_back;
  check_bool (ctx ^ ": truncated") slow.Engine.stats.truncated
    fast.Engine.stats.truncated;
  check_bool (ctx ^ ": complete") (slow.Engine.complete <> None)
    (fast.Engine.complete <> None);
  Alcotest.(check (list int))
    (ctx ^ ": live ids")
    (ids slow.Engine.all_live) (ids fast.Engine.all_live);
  Alcotest.(check (list int))
    (ctx ^ ": maximal ids")
    (ids slow.Engine.maximal) (ids fast.Engine.maximal);
  check_list "maximal trees" (tree_strings slow.Engine.maximal)
    (tree_strings fast.Engine.maximal);
  check_list "semantic model" (model_strings slow) (model_strings fast)

(* Three-way: the hinted semi-naive engine (the default), the same
   engine with hints disabled, and the naive oracle.  [fst] is the
   hinted result; the hints-off and oracle results are both checked
   against it.  The guard/index counters legitimately differ between
   the passes (that is the optimization) and are deliberately not part
   of [check_equivalent]. *)
let parse_both ?(options = Engine.default_options) pack tokens =
  let hinted = Engine.parse ~options pack tokens in
  let plain = Engine.parse ~options:(unhinted options) pack tokens in
  check_equivalent "hints-on vs hints-off" hinted plain;
  Alcotest.(check bool)
    "hints never add guard work" true
    (hinted.Engine.stats.guards_tried <= plain.Engine.stats.guards_tried);
  let slow = Parse_oracle.parse ~options pack.Engine.grammar tokens in
  (hinted, slow)

(* 60 generated sources across the three domains, both complexity
   levels, with a sprinkle of out-of-grammar noise. *)
let corpus_sources () =
  let g = Wqi_corpus.Prng.create 0xE9015L in
  let domains = Wqi_corpus.Vocabulary.core_three in
  List.init 60 (fun i ->
      Generator.generate g
        ~id:(Printf.sprintf "equiv-%02d" i)
        ~domain:(List.nth domains (i mod 3))
        ~complexity:(if i mod 2 = 0 then `Simple else `Rich)
        ~oog_prob:(if i mod 5 = 0 then 0.1 else 0.)
        ())

let test_corpus_equivalence () =
  let grammar = Wqi_stdgrammar.Std.compiled in
  List.iter
    (fun (s : Generator.source) ->
       let tokens = Tokenize.of_html s.html in
       let fast, slow = parse_both grammar tokens in
       check_equivalent s.id fast slow)
    (corpus_sources ())

(* The variant packs carry their own productions and preferences, so
   each is checked against the oracle over generated sources of its own
   domain (both complexities, with noise and section headers). *)
let pack_of file =
  match
    Wqi_core.Extractor.load_grammar
      (Filename.concat "../examples/grammars" file)
  with
  | Ok pack -> pack
  | Error msg -> Alcotest.failf "load %s: %s" file msg

let domain_sources ~seed ~prefix domain n =
  let g = Wqi_corpus.Prng.create seed in
  List.init n (fun i ->
      Generator.generate g
        ~id:(Printf.sprintf "%s-%02d" prefix i)
        ~domain
        ~complexity:(if i mod 2 = 0 then `Simple else `Rich)
        ~oog_prob:(if i mod 4 = 0 then 0.1 else 0.)
        ~header_prob:(if i mod 3 = 0 then 0.2 else 0.)
        ())

let check_pack_equivalence file sources =
  let pack = pack_of file in
  let pruned = ref 0 and conditions = ref 0 in
  List.iter
    (fun (s : Generator.source) ->
       let tokens = Tokenize.of_html s.html in
       let fast, slow = parse_both pack tokens in
       check_equivalent (file ^ "/" ^ s.id) fast slow;
       pruned := !pruned + fast.Engine.stats.pruned;
       conditions := !conditions + List.length (model_strings fast))
    sources;
  (* The sources must reach the pack's preferences and yield conditions,
     or the comparison would be vacuous. *)
  check_bool (file ^ ": preferences fired") true (!pruned > 0);
  check_bool (file ^ ": conditions found") true (!conditions > 0)

let test_airline_equivalence () =
  check_pack_equivalence "airline.wqg"
    (domain_sources ~seed:0xA1B0L ~prefix:"airline"
       (Wqi_corpus.Vocabulary.find "Airfares") 24)

let test_realestate_equivalence () =
  check_pack_equivalence "realestate.wqg"
    (domain_sources ~seed:0x4EA1L ~prefix:"realestate"
       (Wqi_corpus.Vocabulary.find "RealEstates") 24)

(* Slow-tail sources: Rich forms over every domain, with the benchmark's
   noise and header rates, stacked two to a page, kept when their parse
   creates at least 200 instances on a single-word universe.  These are
   the parses where the longest QI chains meet R-subsume-QI, so the
   engine's enforcement scan faces its largest winner and loser fronts —
   and the oracle, which enforces through the plain creation-order pair
   scan, checks every kill it makes.  A single Rich form does not get
   there: with rows joined only when adjacent, the heaviest of 2000
   creates under 200 instances. *)
let slow_tail_sources n =
  let g = Wqi_corpus.Prng.create 0x5107AL in
  let grammar = Wqi_stdgrammar.Std.compiled in
  let rich i =
    Generator.generate g
      ~id:(Printf.sprintf "tail-%04d" i)
      ~domain:(Wqi_corpus.Prng.pick g Wqi_corpus.Vocabulary.all)
      ~complexity:`Rich ~oog_prob:0.1 ~header_prob:0.2 ()
  in
  let rec go acc k i =
    if k = n || i >= 2_000 then List.rev acc
    else
      let a = rich i in
      let b = rich (i + 1) in
      let s =
        { a with
          Generator.id = a.Generator.id ^ "+" ^ b.Generator.id;
          html = a.Generator.html ^ b.Generator.html;
          truth = a.Generator.truth @ b.Generator.truth;
          patterns = a.Generator.patterns @ b.Generator.patterns }
      in
      let tokens = Tokenize.of_html s.Generator.html in
      if
        List.length tokens <= Bitset.bits_per_word
        && (Engine.parse grammar tokens).Engine.stats.created >= 200
      then go (s :: acc) (k + 1) (i + 2)
      else go acc k (i + 2)
  in
  go [] 0 0

let test_slow_tail_equivalence () =
  let grammar = Wqi_stdgrammar.Std.compiled in
  let sources = slow_tail_sources 12 in
  check_int "slow-tail sources found" 12 (List.length sources);
  List.iter
    (fun (s : Generator.source) ->
       let tokens = Tokenize.of_html s.html in
       let fast, slow = parse_both grammar tokens in
       check_equivalent s.id fast slow)
    sources

(* Multi-word universes: Rich forms (every domain, the benchmark's noise
   and header rates) stacked on one page until it holds 64 to 250
   tokens, three pages for each of 2, 3 and 4 cover words.  The arena
   keeps one cover layout for every universe size, so these pages run
   the code the single-word sources do, with covers, conflicts and
   descent tests spanning several words. *)
let stacked_sources () =
  let g = Wqi_corpus.Prng.create 0x3A11DL in
  let bpw = Bitset.bits_per_word in
  let rich id =
    Generator.generate g ~id
      ~domain:(Wqi_corpus.Prng.pick g Wqi_corpus.Vocabulary.all)
      ~complexity:`Rich ~oog_prob:0.1 ~header_prob:0.2 ()
  in
  (* Stack forms until the page reaches [words] words; a page that
     overshoots (past 250 tokens or into the next word) is dropped. *)
  let rec page words id (acc : Generator.source option) k =
    let s = rich (Printf.sprintf "%s.%d" id k) in
    let s =
      match acc with
      | None -> s
      | Some a ->
        { a with
          Generator.id = a.Generator.id ^ "+" ^ s.Generator.id;
          html = a.Generator.html ^ s.Generator.html }
    in
    let n = List.length (Tokenize.of_html s.Generator.html) in
    if n <= (words - 1) * bpw then page words id (Some s) (k + 1)
    else if n <= Int.min 250 (words * bpw) then Some s
    else None
  in
  List.concat_map
    (fun words ->
       let rec go acc i =
         if List.length acc = 3 then List.rev acc
         else
           match page words (Printf.sprintf "w%d-%d" words i) None 0 with
           | Some s -> go (s :: acc) (i + 1)
           | None -> go acc (i + 1)
       in
       go [] 0)
    [ 2; 3; 4 ]

let test_multiword_equivalence () =
  let grammar = Wqi_stdgrammar.Std.compiled in
  let sources = stacked_sources () in
  let words (s : Generator.source) =
    let n = List.length (Tokenize.of_html s.Generator.html) in
    (n + Bitset.bits_per_word - 1) / Bitset.bits_per_word
  in
  Alcotest.(check (list int))
    "cover words per page" [ 2; 2; 2; 3; 3; 3; 4; 4; 4 ]
    (List.map words sources);
  let pruned = ref 0 in
  List.iter
    (fun (s : Generator.source) ->
       let tokens = Tokenize.of_html s.Generator.html in
       let fast, slow = parse_both grammar tokens in
       check_equivalent s.Generator.id fast slow;
       pruned := !pruned + fast.Engine.stats.pruned)
    sources;
  check_bool "preferences fired" true (!pruned > 0);
  (* One page cut short by the instance cap, without preferences so
     that its live tops outnumber the truncated parse's 1024-top window:
     the window's ranking and cut are compared on a multi-word universe
     too. *)
  let s = List.hd sources in
  let tokens = Tokenize.of_html s.Generator.html in
  let options =
    { Engine.default_options with use_preferences = false;
      max_instances = 2_000 }
  in
  let fast, slow = parse_both ~options grammar tokens in
  check_bool "multi-word page truncated" true fast.Engine.stats.truncated;
  let tops =
    List.filter
      (fun (i : Instance.t) ->
         (not (Symbol.is_terminal i.sym))
         && not (List.exists (fun (p : Instance.t) -> p.alive) i.parents))
      fast.Engine.all_live
  in
  check_bool "tops outnumber the window" true (List.length tops > 1024);
  check_equivalent (s.Generator.id ^ "/capped") fast slow

(* The ablation configurations let instances breed before pruning, and
   the naive oracle's cost explodes with the instance count (that is the
   point of the delta engine) — so these stick to Simple sources and a
   tight budget to keep the oracle side affordable. *)
let simple_sources n =
  corpus_sources ()
  |> List.filteri (fun i _ -> i mod 2 = 0)
  |> List.filteri (fun i _ -> i < n)

let test_corpus_equivalence_unscheduled () =
  let grammar = Wqi_stdgrammar.Std.compiled in
  let options =
    { Engine.default_options with use_scheduling = false;
      max_instances = 2_000 }
  in
  List.iter
    (fun (s : Generator.source) ->
       let tokens = Tokenize.of_html s.html in
       let fast, slow = parse_both ~options grammar tokens in
       check_equivalent (s.id ^ "/late-pruning") fast slow)
    (simple_sources 8)

let test_corpus_equivalence_exhaustive () =
  let grammar = Wqi_stdgrammar.Std.compiled in
  let options =
    { Engine.default_options with use_preferences = false;
      max_instances = 2_000 }
  in
  List.iter
    (fun (s : Generator.source) ->
       let tokens = Tokenize.of_html s.html in
       let fast, slow = parse_both ~options grammar tokens in
       check_equivalent (s.id ^ "/exhaustive") fast slow)
    (simple_sources 6)

let test_truncation_equivalence () =
  (* The instance budget must bite at the identical creation step. *)
  let grammar = Wqi_stdgrammar.Std.compiled in
  let s = List.nth (corpus_sources ()) 1 in
  let tokens = Tokenize.of_html s.Generator.html in
  let options =
    { Engine.default_options with use_preferences = false; max_instances = 60 }
  in
  let fast, slow = parse_both ~options grammar tokens in
  check_bool "truncated" true fast.Engine.stats.truncated;
  check_equivalent "truncation" fast slow

(* --- randomized truncation fuzz --- *)

module Budget = Wqi_budget.Budget

let trip_strings gauge =
  List.map (Fmt.str "%a" Budget.pp_trip) (Budget.trips gauge)

(* Budget degradation is part of the observable contract: wherever the
   axe falls — engine-level instance cap, gauge-level instance cap, or
   a fix-point round cap — the arena engine (hinted and unhinted) and
   the naive oracle must degrade *identically*: same truncation point,
   same surviving instance ids, same maximal trees, same recorded
   trips.  Random (seeded) trip points over corpus sources probe axe
   positions no hand-written case would pick: mid-round, mid-assembly,
   one short of a preference kill.  Deadlines are deliberately absent —
   a wall-clock trip lands nondeterministically by nature, while the
   deterministic axes share all of its trip machinery. *)
let test_truncation_fuzz () =
  let grammar = Wqi_stdgrammar.Std.compiled in
  let rng = Wqi_corpus.Prng.create 0xF0221L in
  let sources = corpus_sources () |> List.filteri (fun i _ -> i < 10) in
  List.iter
    (fun (s : Generator.source) ->
       let tokens = Tokenize.of_html s.Generator.html in
       let ntok = List.length tokens in
       let created = (Engine.parse grammar tokens).Engine.stats.created in
       for round = 0 to 2 do
         (* A cap below the token count would truncate tokenization
            itself; anywhere in (ntok, created) lands mid-derivation. *)
         let cap =
           if created <= ntok + 1 then ntok + 1
           else ntok + 1 + Wqi_corpus.Prng.int rng (created - ntok - 1)
         in
         let budget, options =
           match round with
           | 0 -> (None, { Engine.default_options with max_instances = cap })
           | 1 -> (Some (Budget.make ~max_instances:cap ()),
                   Engine.default_options)
           | _ -> (Some (Budget.make
                           ~max_rounds:(1 + Wqi_corpus.Prng.int rng 4) ()),
                   Engine.default_options)
         in
         let ctx = Printf.sprintf "%s/fuzz-%d(cap %d)" s.Generator.id round cap in
         let run parse =
           match budget with
           | None -> (parse None, [])
           | Some b ->
             let gauge = Budget.start b in
             let r = parse (Some gauge) in
             (r, trip_strings gauge)
         in
         let engine options gauge =
           Engine.parse ?gauge ~options grammar tokens
         in
         let oracle gauge =
           Parse_oracle.parse ?gauge ~options grammar.Engine.grammar tokens
         in
         let fast, fast_trips = run (engine options) in
         let plain, plain_trips = run (engine (unhinted options)) in
         let slow, slow_trips = run oracle in
         if round < 2 && cap < created then
           check_bool (ctx ^ ": tripped") true fast.Engine.stats.truncated;
         check_equivalent (ctx ^ "/hints-off") fast plain;
         check_equivalent (ctx ^ "/naive") fast slow;
         Alcotest.(check (list string))
           (ctx ^ ": trips vs hints-off") fast_trips plain_trips;
         Alcotest.(check (list string))
           (ctx ^ ": trips vs naive") fast_trips slow_trips
       done)
    sources

(* --- single-word bitset specialization boundary --- *)

let boundary_universes = [ 62; 63; 64; 65; 126; 127 ]

let test_bitset_boundary_membership () =
  List.iter
    (fun n ->
       let ctx i = Printf.sprintf "n=%d bit=%d" n i in
       let all = Bitset.of_list n (List.init n Fun.id) in
       check_int (Printf.sprintf "n=%d full cardinal" n) n
         (Bitset.cardinal all);
       List.iter
         (fun i ->
            let s = Bitset.singleton n i in
            check_bool (ctx i ^ " mem") true (Bitset.mem s i);
            check_int (ctx i ^ " cardinal") 1 (Bitset.cardinal s);
            Alcotest.(check (list int)) (ctx i ^ " elements") [ i ]
              (Bitset.elements s);
            check_bool (ctx i ^ " subset of all") true (Bitset.subset s all);
            check_bool (ctx i ^ " all not subset") false
              (Bitset.subset all s);
            check_bool (ctx i ^ " disjoint empty") true
              (Bitset.disjoint s (Bitset.empty n)))
         [ 0; n - 2; n - 1 ])
    boundary_universes

let test_bitset_boundary_algebra () =
  List.iter
    (fun n ->
       let ctx = Printf.sprintf "n=%d" n in
       let evens = Bitset.of_list n (List.filter (fun i -> i mod 2 = 0) (List.init n Fun.id)) in
       let odds = Bitset.of_list n (List.filter (fun i -> i mod 2 = 1) (List.init n Fun.id)) in
       check_bool (ctx ^ " evens/odds disjoint") true
         (Bitset.disjoint evens odds);
       check_int (ctx ^ " split cardinals") n
         (Bitset.cardinal evens + Bitset.cardinal odds);
       let union = Bitset.union evens odds in
       check_int (ctx ^ " union cardinal") n (Bitset.cardinal union);
       check_bool (ctx ^ " union equal of_list") true
         (Bitset.equal union (Bitset.of_list n (List.init n Fun.id)));
       check_bool (ctx ^ " inter empty") true
         (Bitset.is_empty (Bitset.inter evens odds));
       (* union_into over a private copy must match union and leave the
          source untouched. *)
       let acc = Bitset.union_into ~into:(Bitset.copy evens) odds in
       check_bool (ctx ^ " union_into equals union") true
         (Bitset.equal acc union);
       check_int (ctx ^ " source unchanged") ((n + 1) / 2)
         (Bitset.cardinal evens))
    boundary_universes

(* [of_words] reads the arena's layout — member [i] at bit
   [i mod bits_per_word] of word [i / bits_per_word], from an offset —
   and must give the very set [of_list] builds. *)
let test_bitset_of_words () =
  List.iter
    (fun n ->
       let bpw = Bitset.bits_per_word in
       let members = List.filter (fun i -> i mod 3 <> 1) (List.init n Fun.id) in
       let nw = max 1 ((n + bpw - 1) / bpw) in
       (* a junk word ahead of the set: [off] must be honoured *)
       let words = Array.make (nw + 1) 0 in
       words.(0) <- -1;
       List.iter
         (fun i ->
            words.(1 + (i / bpw)) <- words.(1 + (i / bpw)) lor (1 lsl (i mod bpw)))
         members;
       let s = Bitset.of_words n words 1 in
       let ctx = Printf.sprintf "n=%d" n in
       check_bool (ctx ^ " of_words = of_list") true
         (Bitset.equal s (Bitset.of_list n members));
       check_int (ctx ^ " hash") (Bitset.hash (Bitset.of_list n members))
         (Bitset.hash s);
       Alcotest.(check (list int)) (ctx ^ " elements") members
         (Bitset.elements s))
    (0 :: boundary_universes)

let test_bitset_universe_mismatch () =
  (* 63 is single-word, 64 multi-word: mixed-representation operations
     must fail loudly, exactly like same-representation size mismatches. *)
  let a = Bitset.of_list 63 [ 0; 62 ] in
  let b = Bitset.of_list 64 [ 0; 63 ] in
  Alcotest.check_raises "union across boundary"
    (Invalid_argument "Bitset: universe mismatch") (fun () ->
        ignore (Bitset.union a b));
  Alcotest.check_raises "disjoint across boundary"
    (Invalid_argument "Bitset: universe mismatch") (fun () ->
        ignore (Bitset.disjoint a b));
  check_bool "equal across boundary is false" false (Bitset.equal a b)

let test_parse_across_boundary () =
  (* A table wider than one word takes multi-word covers through the
     whole engine, and the oracle's boxed sets; the two must agree. *)
  let grammar = Wqi_stdgrammar.Std.compiled in
  let html =
    let row i =
      Printf.sprintf
        "<tr><td>Field%02d:</td><td><input type=\"text\" name=\"f%d\"></td></tr>"
        i i
    in
    "<form><table>"
    ^ String.concat "" (List.init 32 row)
    ^ "</table></form>"
  in
  let tokens = Tokenize.of_html html in
  check_bool "crosses the word boundary" true (List.length tokens > 63);
  (* Rows assemble linearly, so the cap never bites here; it stays as
     a guard against a regression that would let the table breed. *)
  let options = { Engine.default_options with max_instances = 5_000 } in
  let fast, slow = parse_both ~options grammar tokens in
  check_equivalent "wide interface" fast slow

(* --- hint-subset property --- *)

(* Hints are pruning advice, never semantics: a grammar carrying any
   subset of the standard grammar's hints must parse every source to
   the byte-identical result.  Random subsets (fixed seed) probe the
   interaction of indexed and scanned slots within one production —
   e.g. a kept second-slot hint with a dropped first-slot one. *)
let with_hint_subset rng (grammar : G.Grammar.t) =
  let module P = G.Production in
  let productions =
    List.map
      (fun (p : P.t) ->
         P.make ~name:p.P.name ~head:p.P.head ~components:p.P.components
           ~guard:p.P.guard ~build:p.P.build
           ~hints:
             (List.filter (fun _ -> Wqi_corpus.Prng.bool rng) p.P.hints)
           ())
      grammar.G.Grammar.productions
  in
  G.Grammar.make ~terminals:grammar.G.Grammar.terminals
    ~start:grammar.G.Grammar.start ~productions
    ~preferences:grammar.G.Grammar.preferences ()

let test_random_hint_subsets () =
  let grammar = Wqi_stdgrammar.Std.compiled in
  let rng = Wqi_corpus.Prng.create 0x41D7L in
  let sources = simple_sources 6 in
  for round = 1 to 5 do
    let subset =
      Engine.compile (with_hint_subset rng grammar.Engine.grammar)
    in
    List.iter
      (fun (s : Generator.source) ->
         let tokens = Tokenize.of_html s.Generator.html in
         let full = Engine.parse grammar tokens in
         let dropped = Engine.parse subset tokens in
         check_equivalent
           (Printf.sprintf "%s/hint-subset-%d" s.Generator.id round)
           dropped full)
      sources
  done

let suite =
  [ ("delta = naive on 60 corpus sources", `Quick, test_corpus_equivalence);
    ("delta = naive on slow-tail sources", `Quick,
     test_slow_tail_equivalence);
    ("delta = naive on multi-word universes", `Quick,
     test_multiword_equivalence);
    ("delta = naive without scheduling", `Quick,
     test_corpus_equivalence_unscheduled);
    ("delta = naive exhaustive", `Quick, test_corpus_equivalence_exhaustive);
    ("delta = naive under truncation", `Quick, test_truncation_equivalence);
    ("randomized truncation fuzz degrades identically", `Quick,
     test_truncation_fuzz);
    ("bitset word-boundary membership", `Quick,
     test_bitset_boundary_membership);
    ("bitset word-boundary algebra", `Quick, test_bitset_boundary_algebra);
    ("bitset of_words = of_list", `Quick, test_bitset_of_words);
    ("bitset universe mismatch", `Quick, test_bitset_universe_mismatch);
    ("parse across the word boundary", `Quick, test_parse_across_boundary);
    ("random hint subsets are observationally inert", `Quick,
     test_random_hint_subsets);
    ("engine = oracle on the airline pack", `Quick,
     test_airline_equivalence);
    ("engine = oracle on the realestate pack", `Quick,
     test_realestate_equivalence) ]
