(* Corpus byte-identity pin.  ~500 generated forms over every vocabulary
   domain, Simple and Rich, with out-of-grammar patterns and section
   headers, are extracted with the compiled standard grammar
   ([Config.std]) and with the grammar loaded from
   examples/grammars/std.wqg.  The digests below were computed by the
   extraction code before the hot path was made monomorphic: the
   concatenated [export ~timings:false] bytes carry the conditions, the
   missing and conflict reports and the parser counters
   ([instances_created], [guards_tried], ...), so any change in what the
   parser does — not only in what it returns — moves the digest.  The
   quality records derived from each extraction are pinned alongside.

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
let export_md5 = "93db2e17e3ea1ba3c5e08ac6d734a9fd"
let quality_md5 = "88419ec491326187370bce95b18309bf"

let test_std () =
  check_pinned "Config.std" Extractor.Config.std ~export:export_md5
    ~quality:quality_md5

let test_loaded () =
  match Extractor.load_grammar std_wqg with
  | Error msg -> Alcotest.failf "load %s: %s" std_wqg msg
  | Ok pack ->
    check_pinned "std.wqg" pack ~export:export_md5 ~quality:quality_md5

let suite =
  [ Alcotest.test_case "compiled std grammar" `Slow test_std;
    Alcotest.test_case "loaded std.wqg" `Slow test_loaded ]
