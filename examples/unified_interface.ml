(* Building a unified query interface for a domain — the last of the
   motivating applications in the paper's introduction ("to build
   unified query interfaces").

   Pipeline: extract the schemas of several Books sources, unify them
   into one merged schema, *emit the unified interface as HTML*, and —
   the dogfooding finale — run the extractor on our own generated
   markup to confirm the unified form round-trips.

   Run with: dune exec examples/unified_interface.exe *)

module Dom = Wqi_html.Dom
module Condition = Wqi_model.Condition
module Match = Wqi_match.Interface_match

let el = Dom.element
let txt = Dom.text

(* Render a unified condition back to form markup. *)
let markup_of_condition index (c : Condition.t) =
  let name prefix = Printf.sprintf "%s_%d" prefix index in
  let field =
    match c.domain with
    | Condition.Text ->
      [ el "input" ~attrs:[ ("type", "text"); ("name", name "t") ] [] ]
    | Condition.Enumeration values ->
      [ el "select"
          ~attrs:[ ("name", name "s") ]
          (List.map (fun v -> el "option" [ txt v ]) values) ]
    | Condition.Range _ ->
      [ txt " from ";
        el "input" ~attrs:[ ("type", "text"); ("name", name "lo"); ("size", "8") ] [];
        txt " to ";
        el "input" ~attrs:[ ("type", "text"); ("name", name "hi"); ("size", "8") ] [] ]
    | Condition.Datetime ->
      let sel n options =
        el "select" ~attrs:[ ("name", name n) ]
          (List.map (fun v -> el "option" [ txt v ]) options)
      in
      [ sel "m" [ "January"; "February"; "March"; "April"; "May"; "June";
                  "July"; "August"; "September"; "October"; "November";
                  "December" ];
        sel "d" (List.init 31 (fun i -> string_of_int (i + 1)));
        sel "y" [ "2004"; "2005"; "2006" ] ]
  in
  el "tr" [ el "td" ((txt (c.attribute ^ " ") :: field)) ]

let () =
  (* 1. Extract schemas from several generated Books sources. *)
  let g = Wqi_corpus.Prng.create 0xB00C5L in
  let domain = Wqi_corpus.Vocabulary.find "Books" in
  let sources =
    List.init 6 (fun i ->
        Wqi_corpus.Generator.generate g
          ~id:(Printf.sprintf "books-%d" i)
          ~domain ~complexity:`Rich ~oog_prob:0. ())
  in
  let schemas =
    List.map
      (fun (s : Wqi_corpus.Generator.source) ->
         { Match.source = s.id;
           conditions =
             Wqi_core.Extractor.(
               conditions (run Config.default (Html s.html))) })
      sources
  in
  Format.printf "== Input schemas ==@.";
  List.iter
    (fun (s : Match.schema) ->
       Format.printf "  %-10s %s@." s.source
         (String.concat ", "
            (List.map
               (fun (c : Condition.t) -> Condition.normalize_label c.attribute)
               s.conditions)))
    schemas;

  (* 2. Unify. *)
  let unified = Match.unify schemas in
  Format.printf "@.== Unified schema (with source support) ==@.";
  List.iter
    (fun (c, support) ->
       Format.printf "  %d/%d  %a@." support (List.length schemas)
         Condition.pp c)
    unified;

  (* 3. Emit the unified interface as HTML (keep well-supported
     conditions only). *)
  let kept =
    List.filter (fun (_, support) -> support >= 2) unified
  in
  let form =
    el "form"
      ~attrs:[ ("action", "/unified-search") ]
      [ el "h2" [ txt "Unified book search" ];
        el "table" (List.mapi (fun i (c, _) -> markup_of_condition i c) kept);
        el "input" ~attrs:[ ("type", "submit"); ("value", "Search all sources") ] [] ]
  in
  let html = Wqi_html.Printer.to_string form in
  Format.printf "@.== Generated unified interface (%d bytes of HTML) ==@."
    (String.length html);
  print_string (Wqi_layout.Debug.ascii_of_html html);

  (* 4. Dogfood: extract our own unified interface. *)
  let roundtrip = Wqi_core.Extractor.(run Config.default (Html html)) in
  Format.printf "@.== Re-extracted from the generated markup ==@.";
  List.iter
    (fun c -> Format.printf "  %a@." Condition.pp c)
    (Wqi_core.Extractor.conditions roundtrip);
  Format.printf "(%d unified conditions emitted, %d re-extracted)@."
    (List.length kept)
    (List.length (Wqi_core.Extractor.conditions roundtrip))
