(* Corpus byte-identity pin.  ~500 generated forms over every vocabulary
   domain, Simple and Rich, with out-of-grammar patterns and section
   headers, are extracted with the built-in standard grammar
   ([Config.std]) and with the grammar loaded from
   examples/grammars/std.wqg at run time.  The digests below were
   last re-pinned when row and list assembly moved to adjacent parts
   with anchored QI bases (CHANGES.md accounts for every document
   whose conditions moved): the concatenated [export ~timings:false]
   bytes carry the conditions, the missing and conflict reports and
   the parser counters ([instances_created], [guards_tried], ...), so
   any change in what the parser does — not only in what it returns —
   moves the digest.  The quality records derived from each extraction
   are pinned alongside.

   Run alone with [dune build @equiv] (also part of runtest). *)

module Extractor = Wqi_core.Extractor
module Generator = Wqi_corpus.Generator
module Prng = Wqi_corpus.Prng
module Vocabulary = Wqi_corpus.Vocabulary
module Quality = Wqi_quality.Quality

let std_wqg = "../examples/grammars/std.wqg"

let docs = 500

let sources =
  lazy
    (let g = Prng.create 0x50_1A_2004L in
     let domains = Array.of_list Vocabulary.all in
     List.init docs (fun i ->
         Generator.generate g
           ~id:(Printf.sprintf "pin-%03d" i)
           ~domain:domains.(i mod Array.length domains)
           ~complexity:(if i mod 2 = 0 then `Simple else `Rich)
           ~oog_prob:0.1 ~header_prob:0.2 ()))

(* MD5 of every export (one per line) and of every quality record. *)
let digests pack =
  let config = Extractor.Config.(default |> with_compiled pack) in
  let grammar =
    pack.Wqi_parser.Engine.name ^ "@" ^ pack.Wqi_parser.Engine.version
  in
  let exports = Buffer.create (1 lsl 20) in
  let quality = Buffer.create (1 lsl 18) in
  List.iter
    (fun (s : Generator.source) ->
       let e = Extractor.run config (Extractor.Html s.Generator.html) in
       Buffer.add_string exports
         (Extractor.export ~timings:false ~name:s.Generator.id e);
       Buffer.add_char exports '\n';
       Buffer.add_string quality
         (Quality.to_json
            (Quality.of_extraction ~source:s.Generator.id ~grammar
               ~domain:s.Generator.domain e));
       Buffer.add_char quality '\n')
    (Lazy.force sources);
  ( Digest.to_hex (Digest.string (Buffer.contents exports)),
    Digest.to_hex (Digest.string (Buffer.contents quality)) )

let check_pinned what pack ~export ~quality =
  let e, q = digests pack in
  Alcotest.(check string) (what ^ ": export digest") export e;
  Alcotest.(check string) (what ^ ": quality digest") quality q

(* Both grammars extract identically, so they share one pin. *)
let export_md5 = "99c6472e96c7783a05dd05ce1c5d0d1e"
let quality_md5 = "ea286b25c7e2c17982c08da29c1f7c39"

let test_std () =
  check_pinned "Config.std" Extractor.Config.std ~export:export_md5
    ~quality:quality_md5

let test_loaded () =
  match Extractor.load_grammar std_wqg with
  | Error msg -> Alcotest.failf "load %s: %s" std_wqg msg
  | Ok pack ->
    check_pinned "std.wqg" pack ~export:export_md5 ~quality:quality_md5

(* Parse level: every observable the parser-equivalence suite compares
   ([Test_parser_equiv.check_equivalent]) plus the guard and index
   counters, over its 60-form corpus, one line per form.  This digest
   and the production-hints one below were first computed with the
   hand-written OCaml grammar that std.wqg replaced, which was proved
   to parse byte-identically to it, and re-pinned with the adjacency
   row and list assembly (counters, tree shapes and repeats across
   trees moved; one form's conditions changed, see CHANGES.md). *)
let parse_digest grammar =
  let module Engine = Wqi_parser.Engine in
  let module E = Test_parser_equiv in
  let b = Buffer.create (1 lsl 20) in
  let ints l = String.concat "," (List.map string_of_int l) in
  List.iter
    (fun (s : Generator.source) ->
       let tokens = Wqi_token.Tokenize.of_html s.Generator.html in
       let r = Engine.parse grammar tokens in
       let st = r.Engine.stats in
       Printf.bprintf b
         "%s created=%d live=%d pruned=%d rolled_back=%d truncated=%b \
          complete=%b live_ids=%s maximal_ids=%s guards_tried=%d \
          guards_admitted=%d index_probes=%d index_pruned=%d\n"
         s.Generator.id st.created st.live st.pruned st.rolled_back
         st.truncated (r.Engine.complete <> None)
         (ints (E.ids r.Engine.all_live)) (ints (E.ids r.Engine.maximal))
         st.guards_tried st.guards_admitted st.index_probes st.index_pruned;
       List.iter (Printf.bprintf b "tree %s\n")
         (E.tree_strings r.Engine.maximal);
       List.iter (Printf.bprintf b "model %s\n") (E.model_strings r))
    (E.corpus_sources ());
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every production's name and rendered hints, in grammar order. *)
let hints_digest (g : Wqi_grammar.Grammar.t) =
  let module P = Wqi_grammar.Production in
  let b = Buffer.create 8192 in
  List.iter
    (fun (p : P.t) ->
       Buffer.add_string b p.P.name;
       List.iter
         (fun h -> Printf.bprintf b " %s" (Fmt.str "%a" Wqi_grammar.Hint.pp h))
         p.P.hints;
       Buffer.add_char b '\n')
    g.Wqi_grammar.Grammar.productions;
  Digest.to_hex (Digest.string (Buffer.contents b))

let parse_md5 = "b3cd864c20897d574ad61ea1b18d83b0"
let hints_md5 = "171f113b8bcfafc5abff49beda00a39c"

let test_parse () =
  Alcotest.(check string) "parse digest" parse_md5
    (parse_digest Wqi_stdgrammar.Std.compiled)

let test_hints () =
  Alcotest.(check string) "hints digest" hints_md5
    (hints_digest Wqi_stdgrammar.Std.grammar)

let suite =
  [ Alcotest.test_case "compiled std grammar" `Slow test_std;
    Alcotest.test_case "loaded std.wqg" `Slow test_loaded;
    Alcotest.test_case "std parse observables" `Quick test_parse;
    Alcotest.test_case "std production hints" `Quick test_hints ]
