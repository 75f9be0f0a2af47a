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

(* --- adjacency and [none]: round-trip, rejection, mutation --- *)

(* Row assembly over the adjacency relations and the [none] predicate,
   in every spelling the loader accepts: a bare relation, a relation
   with its parameter, and [none] under [not].  The guard under test is
   alone on line 4. *)
let adjacency_grammar guard =
  header
  ^ "(production P-HQI (head HQI) (components text textbox) (guard \
     (adjacent-left 0 1)))\n"
  ^ "(production P-QI-base (head QI) (components HQI) (guard (none \
     adjacent-above HQI 0)) (build (lift 0)))\n"
  ^ "(production P-QI-above (head QI) (components QI HQI) (guard " ^ guard
  ^ ") (build (concat 0 1)))\n"

let test_adjacency_roundtrip () =
  let text =
    adjacency_grammar
      "(and (adjacent-above 0 1) (not (none above 40 HQI 1)) (none \
       same-row HQI 0))"
  in
  match Loader.parse ~env:Std.env ~file:"adj.wqg" text with
  | Error e -> Alcotest.failf "load: %s" (Loader.error_to_string e)
  | Ok decl ->
    let dumped = Loader.dump decl in
    (match Loader.parse ~env:Std.env ~file:"<dump>" dumped with
     | Error e -> Alcotest.failf "reparse: %s" (Loader.error_to_string e)
     | Ok decl' -> check_string "dump/parse/dump" dumped (Loader.dump decl'));
    check_bool "guard kept" true
      (List.exists
         (fun (p : Algebra.production) ->
            p.Algebra.p_guard
            = Algebra.P_and
                [ Algebra.P_rel (G.Hint.Adjacent_above, 0, 1);
                  Algebra.P_not (Algebra.P_none (G.Hint.Above 40, "HQI", 1));
                  Algebra.P_none (G.Hint.Same_row, "HQI", 0) ])
         decl.Algebra.g_productions);
    ignore (instantiated decl)

let test_reject_adjacency () =
  List.iter
    (fun (ctx, guard, expected) ->
       expect_error ctx (adjacency_grammar guard) ("bad.wqg:4:" ^ expected))
    [ ("adjacency takes no gap", "(adjacent-above 40 0 1)",
       "61: adjacent-above expects two slots");
      ("none: unknown relation", "(none frob HQI 0)",
       "67: unknown relation \"frob\"");
      ("none: symbol not a component", "(none adjacent-above CP 0)",
       "82: none: \"CP\" is not a component of the production");
      ("none: the head itself", "(none adjacent-above QI 0)",
       "82: none: \"QI\" is the production's own head");
      ("none: slot out of range", "(none adjacent-above HQI 2)",
       "86: slot 2 out of range (production has 2 components)");
      ("none: missing slot", "(none adjacent-above HQI)",
       "61: none expects a relation, a symbol and a slot");
      ("none: relation missing its gap", "(none above HQI 0)",
       "73: expected an integer, got \"HQI\"") ]

(* Whatever fills the guard's relation, symbol and slot positions, the
   file either loads (and then instantiates and dumps stably) or fails
   with an error positioned on the guard's line — never an exception,
   never a diagnostic somewhere else. *)
let prop_adjacency_arguments =
  let pick l = QCheck.Gen.oneofl l in
  let gen =
    QCheck.Gen.(
      oneof
        [ map3
            (fun r sym slot -> Printf.sprintf "(none %s %s %s)" r sym slot)
            (pick
               [ "adjacent-above"; "adjacent-left"; "above 40"; "left-of";
                 "same-row"; "frob"; "(x)"; "\"s\""; "7" ])
            (pick [ "HQI"; "QI"; "CP"; "text"; "0"; "()"; "Nope" ])
            (pick [ "0"; "1"; "2"; "-1"; "x"; "(0)"; "0 1"; "" ]);
          map3
            (fun r a b -> Printf.sprintf "(%s %s %s)" r a b)
            (pick [ "adjacent-above"; "adjacent-left"; "adjacent-above 3" ])
            (pick [ "0"; "1"; "2"; "x"; "(1)" ])
            (pick [ "0"; "1"; "-4"; ""; "HQI" ]) ])
  in
  QCheck.Test.make ~name:"adjacency and none arguments load safely"
    ~count:500 (QCheck.make ~print:Fun.id gen) (fun guard ->
        match Loader.parse ~env:Std.env ~file:"adj.wqg"
                (adjacency_grammar guard) with
        | Error e ->
          e.Loader.pos.G.Sexp.line = 4 && e.Loader.pos.G.Sexp.col >= 1
        | Ok decl ->
          (match Algebra.instantiate Std.env decl with
           | Ok _ -> ()
           | Error msgs -> QCheck.Test.fail_report (String.concat "; " msgs));
          let dumped = Loader.dump decl in
          (match Loader.parse ~env:Std.env ~file:"<dump>" dumped with
           | Ok decl' -> String.equal dumped (Loader.dump decl')
           | Error _ -> false))

(* --- every other rejection text, pinned --- *)

(* Each malformed file fails with exactly this diagnostic: the reader,
   the header, every predicate, build and preference form, and the
   cycle check. *)
let loader_rejections =
  [
      ("empty file",
       "",
       "bad.wqg:1:1: empty grammar file");
      ("header not a header",
       "(production P (head QI) (components text))\n",
       "bad.wqg:1:1: expected a (wqi-grammar ...) header form");
      ("header atom",
       "wqi-grammar\n",
       "bad.wqg:1:1: expected a (wqi-grammar ...) header form");
      ("header missing terminals",
       "(wqi-grammar (format 1) (name t) (version 1) (start QI))\n",
       "bad.wqg:1:1: missing (terminals ...) clause");
      ("header no terminals",
       "(wqi-grammar (format 1) (name t) (version 1) (terminals) (start QI))\n",
       "bad.wqg:1:46: at least one terminal is required");
      ("header duplicate clause",
       "(wqi-grammar (format 1) (format 1) (name t) (version 1) (terminals text) (start QI))\n",
       "bad.wqg:1:25: duplicate (format ...) clause");
      ("header format not an integer",
       "(wqi-grammar (format one) (name t) (version 1) (terminals text) (start QI))\n",
       "bad.wqg:1:22: expected an integer, got \"one\"");
      ("header start arity",
       "(wqi-grammar (format 1) (name t) (version 1) (terminals text) (start QI HQI))\n",
       "bad.wqg:1:63: start expects 1 argument, got 2");
      ("header name is a list",
       "(wqi-grammar (format 1) (name (t)) (version 1) (terminals text) (start QI))\n",
       "bad.wqg:1:31: expected an atom, got a list");
      ("stray atom form",
       header ^ "stray\n",
       "bad.wqg:2:1: expected a (production ...) or (preference ...) form");
      ("unknown form",
       header ^ "(grammar-rule P)\n",
       "bad.wqg:2:1: expected a (production ...) or (preference ...) form");
      ("malformed production",
       header ^ "(production)\n",
       "bad.wqg:2:1: malformed (production NAME ...) form");
      ("production missing head",
       header ^ "(production P-QI (components text))\n",
       "bad.wqg:2:1: missing (head ...) clause");
      ("production head arity",
       header ^ "(production P-QI (head QI HQI) (components text))\n",
       "bad.wqg:2:18: head expects 1 argument, got 2");
      ("terminal head",
       header ^ "(production P-QI (head QI) (components text))\n(production P-T (head text) (components text))\n",
       "bad.wqg:3:23: head \"text\" is a terminal");
      ("no components",
       header ^ "(production P-QI (head QI) (components))\n",
       "bad.wqg:2:28: production needs at least one component");
      ("missing components",
       header ^ "(production P-QI (head QI))\n",
       "bad.wqg:2:1: missing (components ...) clause");
      ("duplicate guard",
       header ^ "(production P-QI (head QI) (components text) (guard true) (guard true))\n",
       "bad.wqg:2:59: duplicate (guard ...) clause");
      ("guard arity",
       header ^ "(production P-QI (head QI) (components text) (guard true true))\n",
       "bad.wqg:2:46: guard expects 1 argument, got 2");
      ("predicate atom",
       header ^ "(production P-QI (head QI) (components text) (guard maybe))\n",
       "bad.wqg:2:53: malformed predicate: unexpected atom \"maybe\"");
      ("predicate keyword list",
       header ^ "(production P-QI (head QI) (components text) (guard ((and))))\n",
       "bad.wqg:2:53: malformed predicate: expected (keyword ...)");
      ("not arity",
       header ^ "(production P-QI (head QI) (components text) (guard (not)))\n",
       "bad.wqg:2:53: not expects 1 argument, got 0");
      ("relation missing gap",
       header ^ "(production P-QI (head QI) (components text textbox) (guard (left-of 0 1)))\n",
       "bad.wqg:2:61: left-of expects a gap and two slots");
      ("bare relation arity",
       header ^ "(production P-QI (head QI) (components text textbox) (guard (same-row 0)))\n",
       "bad.wqg:2:61: same-row expects two slots");
      ("slot not an integer",
       header ^ "(production P-QI (head QI) (components text textbox) (guard (same-row zero 1)))\n",
       "bad.wqg:2:71: expected an integer, got \"zero\"");
      ("slot is a list",
       header ^ "(production P-QI (head QI) (components text textbox) (guard (same-row (0) 1)))\n",
       "bad.wqg:2:71: expected an atom, got a list");
      ("text source",
       header ^ "(production P-QI (head QI) (components text) (guard (text-class unit-word both 0)))\n",
       "bad.wqg:2:75: expected 'token' or 'sem', got \"both\"");
      ("text-class arity",
       header ^ "(production P-QI (head QI) (components text) (guard (text-class unit-word token)))\n",
       "bad.wqg:2:53: text-class expects 3 arguments, got 2");
      ("unknown splitter",
       header ^ "(production P-QI (head QI) (components text) (guard (splits halves 0)))\n",
       "bad.wqg:2:61: unknown splitter \"halves\"");
      ("ops-exist unknown class",
       header ^ "(production P-QI (head QI) (components text) (guard (ops-exist mystery 0)))\n",
       "bad.wqg:2:64: unknown text class \"mystery\"");
      ("ops-count arity",
       header ^ "(production P-QI (head QI) (components text) (guard (ops-count>= 2)))\n",
       "bad.wqg:2:53: ops-count>= expects 2 arguments, got 1");
      ("unknown options class",
       header ^ "(production P-QI (head QI) (components text) (guard (options-class mystery 0)))\n",
       "bad.wqg:2:68: unknown options class \"mystery\"");
      ("unknown combo",
       header ^ "(production P-QI (head QI) (components text) (guard (combo time-combo 0)))\n",
       "bad.wqg:2:60: unknown combo \"time-combo\"");
      ("combo without slots",
       header ^ "(production P-QI (head QI) (components text) (guard (combo date-combo)))\n",
       "bad.wqg:2:53: combo expects a name and at least one slot");
      ("build atom",
       header ^ "(production P-QI (head QI) (components text) (build lift))\n",
       "bad.wqg:2:53: malformed build");
      ("unknown build",
       header ^ "(production P-QI (head QI) (components text) (build (frob 0)))\n",
       "bad.wqg:2:53: unknown build \"frob\"");
      ("str arity",
       header ^ "(production P-QI (head QI) (components text) (build (str)))\n",
       "bad.wqg:2:53: str expects 1 argument, got 0");
      ("unknown string expression",
       header ^ "(production P-QI (head QI) (components text) (build (str (text 0))))\n",
       "bad.wqg:2:58: unknown string expression \"text\"");
      ("string expression atom",
       header ^ "(production P-QI (head QI) (components text) (build (str token)))\n",
       "bad.wqg:2:58: expected (lit ...), (token N) or (sem N)");
      ("split-str part",
       header ^ "(production P-QI (head QI) (components text) (build (split-str bound-suffix third 0)))\n",
       "bad.wqg:2:77: expected 'first' or 'second', got \"third\"");
      ("split-str unknown splitter",
       header ^ "(production P-QI (head QI) (components text) (build (split-str halves first 0)))\n",
       "bad.wqg:2:64: unknown splitter \"halves\"");
      ("unknown operator expression",
       header ^ "(production P-QI (head QI) (components text) (build (ops (all 0))))\n",
       "bad.wqg:2:58: unknown operator expression \"all\"");
      ("operator expression atom",
       header ^ "(production P-QI (head QI) (components text) (build (ops options)))\n",
       "bad.wqg:2:58: expected (options N), (of N), (singleton N), (append A B) or (lit ...)");
      ("append arity",
       header ^ "(production P-QI (head QI) (components text) (build (ops (append 0))))\n",
       "bad.wqg:2:58: append expects 2 arguments, got 1");
      ("unknown domain atom",
       header ^ "(production P-QI (head QI) (components text) (build (domain number)))\n",
       "bad.wqg:2:61: unknown domain \"number\"");
      ("unknown domain form",
       header ^ "(production P-QI (head QI) (components text) (build (domain (set 0))))\n",
       "bad.wqg:2:61: unknown domain \"set\"");
      ("malformed domain",
       header ^ "(production P-QI (head QI) (components text) (build (domain ())))\n",
       "bad.wqg:2:61: malformed domain");
      ("cond without attribute",
       header ^ "(production P-QI (head QI) (components text) (build (cond (domain text))))\n",
       "bad.wqg:2:53: missing (attribute ...) clause");
      ("cond without domain",
       header ^ "(production P-QI (head QI) (components text) (build (cond (attribute (token 0)))))\n",
       "bad.wqg:2:53: missing (domain ...) clause");
      ("cond operators arity",
       header ^ "(production P-QI (head QI) (components text) (build (cond (operators) (attribute (token 0)) (domain text))))\n",
       "bad.wqg:2:59: operators expects 1 argument, got 0");
      ("concat slot range",
       header ^ "(production P-QI (head QI) (components text) (build (concat 0 1)))\n",
       "bad.wqg:2:63: slot 1 out of range (production has 1 component)");
      ("malformed preference",
       header ^ "(production P-QI (head QI) (components text))\n(preference)\n",
       "bad.wqg:3:1: malformed (preference NAME ...) form");
      ("preference unknown winner",
       header ^ "(production P-QI (head QI) (components text))\n(preference R (winner Nope) (loser QI) (beats))\n",
       "bad.wqg:3:23: unknown symbol \"Nope\"");
      ("preference missing loser",
       header ^ "(production P-QI (head QI) (components text))\n(preference R (winner QI) (beats))\n",
       "bad.wqg:3:1: missing (loser ...) clause");
      ("preference without criterion",
       header ^ "(production P-QI (head QI) (components text))\n(preference R (winner QI) (loser QI))\n",
       "bad.wqg:3:1: missing winning-criterion form (one of beats, subsume, closest-unit, clean-attr, assoc)");
      ("preference two criteria",
       header ^ "(production P-QI (head QI) (components text))\n(preference R (winner QI) (loser QI) (beats) (subsume))\n",
       "bad.wqg:3:46: more than one winning-criterion form");
      ("beats arity",
       header ^ "(production P-QI (head QI) (components text))\n(preference R (winner QI) (loser QI) (beats QI))\n",
       "bad.wqg:3:38: beats expects 0 arguments, got 1");
      ("clean-attr without splitters",
       header ^ "(production P-QI (head QI) (components text))\n(preference R (winner QI) (loser QI) (clean-attr))\n",
       "bad.wqg:3:38: clean-attr needs at least one splitter");
      ("clean-attr unknown splitter",
       header ^ "(production P-QI (head QI) (components text))\n(preference R (winner QI) (loser QI) (clean-attr halves))\n",
       "bad.wqg:3:50: unknown splitter \"halves\"");
      ("assoc without symbols",
       header ^ "(production P-QI (head QI) (components text))\n(preference R (winner QI) (loser QI) (assoc))\n",
       "bad.wqg:3:38: assoc needs at least one symbol");
      ("assoc unknown symbol",
       header ^ "(production P-QI (head QI) (components text))\n(preference R (winner QI) (loser QI) (assoc Label))\n",
       "bad.wqg:3:45: unknown symbol \"Label\"");
      ("longer cycle",
       header ^ "(production P-QI (head QI) (components A))\n(production P-A (head A) (components B text))\n(production P-B (head B) (components C))\n(production P-C (head C) (components text A))\n",
       "bad.wqg:5:2: production P-C: cyclic productions: A -> B -> C -> A");
      ("self-recursion beside a cycle",
       header ^ "(production P-QI (head QI) (components QI A))\n(production P-A (head A) (components A QI))\n",
       "bad.wqg:3:2: production P-A: cyclic productions: QI -> A -> QI");
      ("unterminated string",
       header ^ "(production P-QI (head QI) (components text) (build (str (lit \"oops))))\n",
       "bad.wqg:2:63: unterminated string");
      ("unknown escape",
       header ^ "(production P-QI (head QI) (components text) (build (str (lit \"a\\qb\"))))\n",
       "bad.wqg:2:66: unknown escape '\\q'");
      ("unclosed paren",
       header ^ "(production P-QI (head QI) (components text)\n",
       "bad.wqg:2:1: unclosed '('");
      ("stray close paren",
       header ^ ")\n",
       "bad.wqg:2:1: unexpected ')'");
      ("stray character",
       header ^ "(production P-QI (head QI) (components text) #)\n",
       "bad.wqg:2:46: unexpected character '#'");

  ]

let test_reject_every_form () =
  List.iter
    (fun (ctx, text, expected) -> expect_error ctx text expected)
    loader_rejections

(* [Algebra.instantiate] re-checks declarations the loader never
   produced: each is the one-production grammar [base] with one
   defect. *)
let base =
  { Algebra.g_name = "t"; g_version = "1"; g_terminals = [ "text"; "textbox" ];
    g_start = "QI";
    g_productions =
      [ { Algebra.p_name = "P-QI"; p_head = "QI"; p_components = [ "text" ];
          p_guard = Algebra.P_true; p_build = Algebra.B_none } ];
    g_preferences = [] }

let with_prod ?(name = "P-QI") ?(head = "QI") ?(components = [ "text" ])
    ?(guard = Algebra.P_true) ?(build = Algebra.B_none) () =
  { base with
    Algebra.g_productions =
      [ { Algebra.p_name = name; p_head = head; p_components = components;
          p_guard = guard; p_build = build } ] }

let with_pref ?(winner = "QI") ?(loser = "QI") kind =
  { base with
    Algebra.g_preferences =
      [ { Algebra.r_name = "R"; r_winner = winner; r_loser = loser;
          r_kind = kind } ] }

let prod name head components =
  { Algebra.p_name = name; p_head = head; p_components = components;
    p_guard = Algebra.P_true; p_build = Algebra.B_none }

let instantiate_rejections =
  [ ("terminal head", with_prod ~head:"text" (), "production P-QI: head \"text\" is a terminal | start symbol \"QI\" is not the head of any production");
    ("unknown component", with_prod ~components:[ "Nope" ] (), "production P-QI: unknown symbol \"Nope\"");
    ("slot out of range",
     with_prod ~guard:(Algebra.P_text_is ("unit-word", Algebra.Token_text, 3)) (),
     "slot 3 out of range (production has 1 components)");
    ("relation to itself",
     with_prod ~components:[ "text"; "textbox" ]
       ~guard:(Algebra.P_rel (G.Hint.Left_of 60, 1, 1)) (),
     "relation left_of<=60 relates slot 1 to itself");
    ("none: not a component",
     with_prod ~guard:(Algebra.P_none (G.Hint.Same_row, "HQI", 0)) (), "none: \"HQI\" is not a component of the production");
    ("none: own head",
     { base with
       Algebra.g_productions =
         [ prod "P-QI" "QI" [ "text" ];
           { (prod "P-QI-rec" "QI" [ "QI"; "text" ]) with
             Algebra.p_guard = Algebra.P_none (G.Hint.Same_row, "QI", 0) } ] },
     "none: \"QI\" is the production's own head");
    ("unknown text class",
     with_prod ~guard:(Algebra.P_text_is ("mystery", Algebra.Sem_str, 0)) (),
     "unknown text class \"mystery\"");
    ("unknown splitter",
     with_prod ~guard:(Algebra.P_split_applies ("halves", 0)) (), "unknown splitter \"halves\"");
    ("unknown options class",
     with_prod ~guard:(Algebra.P_options_class ("mystery", 0)) (), "unknown options class \"mystery\"");
    ("unknown combo", with_prod ~guard:(Algebra.P_combo ("time", [ 0 ])) (), "unknown combo \"time\"");
    ("build slot out of range", with_prod ~build:(Algebra.B_lift 2) (), "slot 2 out of range (production has 1 components)");
    ("build: unknown splitter",
     with_prod ~build:(Algebra.B_split_str ("halves", `First, 0)) (), "unknown splitter \"halves\"");
    ("empty components", with_prod ~components:[] (), "production P-QI: Production.make: empty components");
    ("start not a head", { base with Algebra.g_start = "Nope" }, "start symbol \"Nope\" is not the head of any production");
    ("preference: unknown winner", with_pref ~winner:"Nope" Algebra.K_beats, "preference R: unknown symbol \"Nope\"");
    ("preference: unknown loser", with_pref ~loser:"Nope" Algebra.K_subsume, "preference R: unknown symbol \"Nope\"");
    ("preference: unknown splitter",
     with_pref (Algebra.K_clean_attr [ "bound-suffix"; "halves" ]), "unknown splitter \"halves\"");
    ("preference: unknown assoc symbol", with_pref (Algebra.K_assoc [ "Label" ]), "preference R: unknown symbol \"Label\"");
    ("duplicate production name",
     { base with
       Algebra.g_productions = [ prod "P-QI" "QI" [ "text" ]; prod "P-QI" "QI" [ "textbox" ] ] },
     "duplicate production name P-QI");
    ("d-edge cycle",
     { base with
       Algebra.g_productions =
         [ prod "P-QI" "QI" [ "A" ]; prod "P-A" "A" [ "B" ]; prod "P-B" "B" [ "A"; "text" ] ] },
     "d-edge cycle through A (mutual recursion between distinct symbols is not schedulable)");
    ("several defects, in order",
     { base with
       Algebra.g_start = "S";
       g_productions =
         [ prod "P-1" "text" [ "text" ]; prod "P-2" "QI" [ "Nope"; "text" ];
           { (prod "P-3" "QI" [ "text" ]) with Algebra.p_build = Algebra.B_lift 4 } ];
       g_preferences =
         [ { Algebra.r_name = "R"; r_winner = "Gone"; r_loser = "QI";
             r_kind = Algebra.K_beats } ] },
     "production P-1: head \"text\" is a terminal | production P-2: unknown symbol \"Nope\" | slot 4 out of range (production has 1 components) | preference R: unknown symbol \"Gone\" | start symbol \"S\" is not the head of any production") ]

let test_instantiate_rejections () =
  List.iter
    (fun (ctx, decl, expected) ->
       match Algebra.instantiate Std.env decl with
       | Ok _ -> Alcotest.failf "%s: expected an instantiation error" ctx
       | Error msgs -> check_string ctx expected (String.concat " | " msgs))
    instantiate_rejections

(* --- the load pipeline: schedules and dispatch tables --- *)

(* What [Engine.compile] derives from each committed grammar file: the
   2P schedule ([Schedule.pp]: order, transformed and relaxed
   preferences), the d-edge-only order, and an MD5 of the dispatch
   tables (symbol ids, per-production components, packed checks and
   layout, per-symbol preferences).  Instance ids, and with them
   Export-v2 bytes, follow from these, and the parser-equivalence
   oracle schedules through [Schedule.build] itself, so a changed
   schedule would pass there unseen. *)
let dispatch_digest (t : Wqi_parser.Dispatch.t) =
  let module D = Wqi_parser.Dispatch in
  let b = Buffer.create 4096 in
  let ints a =
    Buffer.add_char b '[';
    Array.iter (fun i -> Buffer.add_string b (string_of_int i ^ ";")) a;
    Buffer.add_char b ']'
  in
  Array.iteri
    (fun i s ->
       Buffer.add_string b (Fmt.str "sym %d %a\n" i G.Symbol.pp s))
    t.D.syms;
  Array.iter
    (fun (fp : D.fprod) ->
       Buffer.add_string b
         (Printf.sprintf "prod %d %s head %d arity %d marks %d deltas %d comps "
            fp.D.ord fp.D.prod.G.Production.name fp.D.head fp.D.arity
            fp.D.mark_base fp.D.delta_base);
       ints fp.D.comps;
       Buffer.add_string b " checks";
       Array.iter ints fp.D.checks;
       Buffer.add_char b '\n')
    t.D.prods;
  Array.iteri
    (fun i ords ->
       Buffer.add_string b (Printf.sprintf "by_head %d " i);
       ints ords;
       Buffer.add_char b '\n')
    t.D.by_head;
  Array.iter
    (fun (fr : D.fpref) ->
       Buffer.add_string b
         (Printf.sprintf "pref %s %d %d\n" fr.D.pref.G.Preference.name
            fr.D.wsid fr.D.lsid))
    t.D.prefs;
  Array.iteri
    (fun i frs ->
       Buffer.add_string b (Printf.sprintf "prefs_by_sym %d" i);
       Array.iter
         (fun (fr : D.fpref) ->
            Buffer.add_string b (" " ^ fr.D.pref.G.Preference.name))
         frs;
       Buffer.add_char b '\n')
    t.D.prefs_by_sym;
  Buffer.add_string b
    (Printf.sprintf "nsyms %d marks_len %d deltas_len %d max_arity %d\n"
       t.D.nsyms t.D.marks_len t.D.deltas_len t.D.max_arity);
  Digest.to_hex (Digest.string (Buffer.contents b))

let load_pipeline_text file =
  let decl = loaded (Filename.concat grammars_dir file) in
  let g = instantiated decl in
  let pack = Engine.compile g in
  let tables = pack.Engine.tables in
  let names ids =
    String.concat " -> "
      (Array.to_list
         (Array.map
            (fun id -> Fmt.str "%a" G.Symbol.pp tables.Wqi_parser.Dispatch.syms.(id))
            ids))
  in
  Fmt.str "== %s@.%a@.d-order: %s@.relaxed ids: %s@.dispatch md5: %s@." file
    G.Schedule.pp (G.Schedule.build g) (names pack.Engine.d_order_ids)
    (String.concat " "
       (Array.to_list
          (Array.map
             (fun (fr : Wqi_parser.Dispatch.fpref) ->
                fr.Wqi_parser.Dispatch.pref.G.Preference.name)
             pack.Engine.relaxed)))
    (dispatch_digest tables)
  ^ Fmt.str "order ids: %s@." (names pack.Engine.order_ids)

let schedules_golden = "golden/schedules.txt"

let test_load_pipeline_golden () =
  let got = String.concat "\n" (List.map load_pipeline_text mutant_files) in
  check_string "schedules and dispatch tables" (read_file schedules_golden) got

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
    ("reject: self-relation", `Quick, test_reject_self_relation);
    ("adjacency and none round-trip", `Quick, test_adjacency_roundtrip);
    ("reject: adjacency and none arguments", `Quick, test_reject_adjacency);
    QCheck_alcotest.to_alcotest prop_adjacency_arguments;
    ("reject: every other form, pinned", `Quick, test_reject_every_form);
    ("instantiate rejections, pinned", `Quick, test_instantiate_rejections);
    ("schedules and dispatch tables match the golden", `Quick,
     test_load_pipeline_golden) ]
