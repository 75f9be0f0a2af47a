(* Grammar-as-data suite: the .wqg file format is the standard grammar's
   only representation (examples/grammars/std.wqg, embedded in Std), so
   the loader must be exactly as trustworthy as the grammar it carries.
   What the std grammar parses is pinned by the corpus-pin digests
   (test_corpus_pin.ml); this suite checks that every way of reaching
   that grammar parses alike, and covers the format itself:

   - equivalence: Std.grammar and the std.wqg loaded at run time parse
     the equivalence corpus byte-identically to Std.compiled (via
     Test_parser_equiv.check_equivalent, instance ids included);
   - round-trip: dump → parse → dump is byte-identical, and the
     committed std.wqg is its own canonical dump;
   - mutation: truncated, substituted, cut and duplicated grammar files
     never make the loader or the interpreter raise, and whatever loads
     dumps stably;
   - rejection: malformed grammar files fail to load with precise
     file:line:col diagnostics, never a late crash. *)

module G = Wqi_grammar
module Algebra = G.Algebra
module Loader = G.Loader
module Engine = Wqi_parser.Engine
module Std = Wqi_stdgrammar.Std
module Extractor = Wqi_core.Extractor

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let grammars_dir = "../examples/grammars"
let std_wqg = Filename.concat grammars_dir "std.wqg"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let instantiated decl =
  match Algebra.instantiate Std.env decl with
  | Ok g -> g
  | Error msgs -> Alcotest.failf "instantiate: %s" (String.concat "; " msgs)

let loaded path =
  match Loader.load ~env:Std.env path with
  | Ok decl -> decl
  | Error e -> Alcotest.failf "load %s: %s" path (Loader.error_to_string e)

(* --- equivalence: every route to the std grammar parses alike --- *)

(* The reference, Std.compiled, reuses pooled arenas across the corpus,
   so a parse that leaked state into the pool would show here too. *)
let check_corpus_equivalent ctx parse =
  List.iter
    (fun (s : Wqi_corpus.Generator.source) ->
       let tokens = Wqi_token.Tokenize.of_html s.html in
       Test_parser_equiv.check_equivalent (ctx ^ "/" ^ s.id) (parse tokens)
         (Engine.parse Std.compiled tokens))
    (Test_parser_equiv.corpus_sources ())

let test_decl_equivalence () =
  (* The instantiated declaration, compiled afresh for every parse. *)
  check_corpus_equivalent "decl" (fun tokens ->
      Engine.parse (Engine.compile Std.grammar) tokens)

let test_loaded_equivalence () =
  (* Committed bytes on disk → Extractor.load_grammar → parser, equal
     to the embedded copy and under the same identity. *)
  match Extractor.load_grammar std_wqg with
  | Error msg -> Alcotest.failf "load_grammar: %s" msg
  | Ok pack ->
    check_string "name" Std.compiled.Engine.name pack.Engine.name;
    check_string "version" Std.compiled.Engine.version pack.Engine.version;
    check_corpus_equivalent "loaded" (Engine.parse pack)

(* --- round-trips and the committed golden --- *)

let test_dump_parse_dump () =
  let dumped = Loader.dump Std.decl in
  match Loader.parse ~env:Std.env ~file:"<dump>" dumped with
  | Error e -> Alcotest.failf "reparse: %s" (Loader.error_to_string e)
  | Ok decl -> check_string "dump/parse/dump" dumped (Loader.dump decl)

let test_committed_std_is_golden () =
  (* examples/grammars/std.wqg is written in canonical form, so
     `wqi_grammar_dump --export` reprints it byte for byte. *)
  check_string "std.wqg bytes" (Loader.dump (loaded std_wqg))
    (read_file std_wqg)

let test_variant_roundtrips () =
  List.iter
    (fun file ->
       let path = Filename.concat grammars_dir file in
       let decl = loaded path in
       let dumped = Loader.dump decl in
       (match Loader.parse ~env:Std.env ~file dumped with
        | Error e ->
          Alcotest.failf "%s redump: %s" file (Loader.error_to_string e)
        | Ok decl' ->
          check_string (file ^ ": canonical") dumped (Loader.dump decl'));
       ignore (instantiated decl))
    [ "airline.wqg"; "realestate.wqg" ]

let test_variants_extract () =
  (* Variants are live grammars, not inert data: an airline-ish form
     must yield conditions under the airline grammar through the full
     extractor stack, selected via Config.with_compiled. *)
  let html =
    "<form><table>\
     <tr><td>Departure city:</td><td><input type=\"text\" name=\"from\"></td></tr>\
     <tr><td>Passengers:</td><td><select name=\"n\">\
     <option>1</option><option>2</option><option>3</option></select></td></tr>\
     </table></form>"
  in
  List.iter
    (fun (file, name) ->
       let path = Filename.concat grammars_dir file in
       let decl = loaded path in
       check_string (file ^ ": name") name decl.Algebra.g_name;
       let pack =
         Engine.compile ~name:decl.Algebra.g_name ~version:decl.Algebra.g_version
           (instantiated decl)
       in
       let config = Extractor.Config.(default |> with_compiled pack) in
       let e = Extractor.run config (Extractor.Html html) in
       check_bool (file ^ ": outcome complete") true
         (e.Extractor.outcome = Wqi_budget.Budget.Complete);
       check_bool (file ^ ": found conditions") true
         (List.length (Extractor.conditions e) >= 2))
    [ ("airline.wqg", "airline"); ("realestate.wqg", "realestate") ]

(* --- mutation: every byte string is safe to load --- *)

(* A mutation of one grammar file, drawn as data so a counterexample
   prints as a short description instead of 15 KB of grammar. *)
type mutation =
  | Truncate of int  (** keep the first [n] bytes *)
  | Substitute of (int * char) list  (** overwrite byte [i] with [c] *)
  | Delete of int * int  (** drop [len] bytes at [i] *)
  | Duplicate of int * int * int  (** copy [len] bytes at [i] to [j] *)

(* Bytes the s-expression reader gives meaning to, plus the symbol and
   number characters grammar files are made of. *)
let sexp_alphabet = "()\" \n\t;\\-_>=0123456789abcdeglnoprstxACPQRTV"

let mutate text = function
  | Truncate n -> String.sub text 0 n
  | Substitute subs ->
    let b = Bytes.of_string text in
    List.iter (fun (i, c) -> Bytes.set b i c) subs;
    Bytes.to_string b
  | Delete (i, len) ->
    String.sub text 0 i
    ^ String.sub text (i + len) (String.length text - i - len)
  | Duplicate (i, len, j) ->
    String.sub text 0 j ^ String.sub text i len
    ^ String.sub text j (String.length text - j)

let mutation_gen n =
  let open QCheck.Gen in
  let pos = int_bound n in
  let byte =
    map (String.get sexp_alphabet) (int_bound (String.length sexp_alphabet - 1))
  in
  let span =
    pos >>= fun i ->
    int_bound (min 200 (n - i)) >|= fun len -> (i, len)
  in
  oneof
    [ map (fun n -> Truncate n) pos;
      map (fun subs -> Substitute subs)
        (list_size (int_range 1 4) (pair (int_bound (n - 1)) byte));
      map (fun (i, len) -> Delete (i, len)) span;
      map (fun ((i, len), j) -> Duplicate (i, len, j)) (pair span pos) ]

let pp_mutation = function
  | Truncate n -> Printf.sprintf "truncate to %d" n
  | Substitute subs ->
    String.concat ", "
      (List.map (fun (i, c) -> Printf.sprintf "byte %d := %C" i c) subs)
  | Delete (i, len) -> Printf.sprintf "delete %d bytes at %d" len i
  | Duplicate (i, len, j) ->
    Printf.sprintf "copy %d bytes at %d to %d" len i j

let mutant_files = [ "std.wqg"; "airline.wqg"; "realestate.wqg" ]

let mutant_arbitrary =
  let texts =
    List.map
      (fun file -> (file, read_file (Filename.concat grammars_dir file)))
      mutant_files
  in
  QCheck.make
    ~print:(fun ((file, _), m) -> file ^ ": " ^ pp_mutation m)
    QCheck.Gen.(
      oneofl texts >>= fun ((_, text) as f) ->
      mutation_gen (String.length text) >|= fun m -> (f, m))

(* Loading never raises; a mutant that loads instantiates without
   raising and dumps stably (dump → parse → dump). *)
let prop_mutants_load_safely =
  QCheck.Test.make ~name:"mutated grammar files load safely" ~count:2000
    mutant_arbitrary (fun ((file, text), m) ->
        match Loader.parse ~env:Std.env ~file (mutate text m) with
        | Error _ -> true
        | Ok decl ->
          ignore (Algebra.instantiate Std.env decl);
          let dumped = Loader.dump decl in
          (match Loader.parse ~env:Std.env ~file:"<dump>" dumped with
           | Ok decl' -> String.equal dumped (Loader.dump decl')
           | Error _ -> false))

(* --- rejection: precise diagnostics --- *)

let header =
  "(wqi-grammar (format 1) (name t) (version 1) (terminals text textbox) \
   (start QI))\n"

let expect_error ctx text expected =
  match Loader.parse ~env:Std.env ~file:"bad.wqg" text with
  | Ok _ -> Alcotest.failf "%s: expected a load error" ctx
  | Error e -> check_string ctx expected (Loader.error_to_string e)

let test_reject_unknown_symbol () =
  expect_error "unknown symbol"
    (header
     ^ "(production P-QI (head QI) (components Nope) (build (lift 0)))\n")
    "bad.wqg:2:40: unknown symbol \"Nope\""

let test_reject_arity_mismatch () =
  expect_error "slot out of arity"
    (header
     ^ "(production P-QI (head QI) (components text) (guard (text-class \
        plausible-attribute token 2)))\n")
    "bad.wqg:2:91: slot 2 out of range (production has 1 component)"

let test_reject_cycle () =
  expect_error "cyclic productions"
    (header
     ^ "(production P-A (head A) (components B) (build (lift 0)))\n"
     ^ "(production P-B (head B) (components A) (build (lift 0)))\n"
     ^ "(production P-QI (head QI) (components A) (build (lift 0)))\n")
    "bad.wqg:3:2: production P-B: cyclic productions: A -> B -> A"

let test_reject_malformed_predicate () =
  expect_error "malformed predicate"
    (header
     ^ "(production P-QI (head QI) (components text text) (guard (frob 0 1)))\n")
    "bad.wqg:2:58: unknown predicate \"frob\""

let test_reject_unknown_text_class () =
  expect_error "unknown text class"
    (header
     ^ "(production P-QI (head QI) (components text) (guard (text-class \
        mystery token 0)))\n")
    "bad.wqg:2:65: unknown text class \"mystery\""

let test_reject_duplicate_production () =
  expect_error "duplicate production name"
    (header
     ^ "(production P-QI (head QI) (components text))\n"
     ^ "(production P-QI (head QI) (components textbox))\n")
    "bad.wqg:3:2: duplicate production name \"P-QI\""

let test_reject_non_head_start () =
  expect_error "start is not a head"
    (header ^ "(production P-A (head A) (components text))\n")
    "bad.wqg:1:78: start symbol \"QI\" is not the head of any production"

let test_reject_bad_format () =
  expect_error "unsupported format"
    "(wqi-grammar (format 2) (name t) (version 1) (terminals text) (start \
     QI))\n"
    "bad.wqg:1:22: unsupported grammar format 2"

let test_reject_self_relation () =
  expect_error "slot related to itself"
    (header
     ^ "(production P-QI (head QI) (components text textbox) (guard (left-of \
        60 1 1)))\n")
    "bad.wqg:2:61: left-of relates slot 1 to itself"

let suite =
  [ ("declarative std = compiled std on the corpus", `Quick,
     test_decl_equivalence);
    ("loaded std.wqg = compiled std on the corpus", `Quick,
     test_loaded_equivalence);
    ("dump/parse/dump is byte-identical", `Quick, test_dump_parse_dump);
    ("committed std.wqg matches --export", `Quick,
     test_committed_std_is_golden);
    ("variant files are canonical and instantiate", `Quick,
     test_variant_roundtrips);
    ("variant grammars drive the extractor", `Quick, test_variants_extract);
    QCheck_alcotest.to_alcotest prop_mutants_load_safely;
    ("reject: unknown symbol", `Quick, test_reject_unknown_symbol);
    ("reject: slot out of arity", `Quick, test_reject_arity_mismatch);
    ("reject: cyclic productions", `Quick, test_reject_cycle);
    ("reject: malformed predicate", `Quick, test_reject_malformed_predicate);
    ("reject: unknown text class", `Quick, test_reject_unknown_text_class);
    ("reject: duplicate production name", `Quick,
     test_reject_duplicate_production);
    ("reject: start not a head", `Quick, test_reject_non_head_start);
    ("reject: unsupported format", `Quick, test_reject_bad_format);
    ("reject: self-relation", `Quick, test_reject_self_relation) ]
