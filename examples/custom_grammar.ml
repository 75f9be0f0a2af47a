(* Section 7 of the paper suggests the best-effort parsing framework
   generalizes beyond query forms: "by designing a grammar that captures
   such structure regularities, we can employ our parsing framework to
   extract the services available in E-commerce Web sites" — e.g. the
   navigational menus regularly arranged on the left-hand side of entry
   pages.

   This example builds exactly that: a tiny custom 2P grammar for
   left-column navigation menus, run through the *same* parser engine
   and front-end — no parsing machinery is touched, only the grammar
   (the extensibility claim of Section 4.1).

   Run with: dune exec examples/custom_grammar.exe *)

module G = Wqi_grammar
module Symbol = G.Symbol
module Instance = G.Instance
module Production = G.Production
module Preference = G.Preference
module R = G.Relation

let t_text = Symbol.terminal "text"
let t_image = Symbol.terminal "image"
let item = Symbol.nonterminal "MenuItem"
let menu = Symbol.nonterminal "Menu"
let page = Symbol.nonterminal "Page"

let tok_sval (i : Instance.t) =
  match i.token with Some t -> t.Wqi_token.Token.sval | None -> ""

let labels_of (i : Instance.t) =
  match i.sem with Instance.S_ops l -> l | _ -> []

(* A menu item is a short, link-like text. *)
let short_label s =
  let words =
    List.filter (( <> ) "") (String.split_on_char ' ' (String.trim s))
  in
  words <> [] && List.length words <= 3 && String.length s <= 30

let nav_grammar =
  G.Grammar.make
    ~terminals:[ t_text; t_image ]
    ~start:page
    ~productions:
      [ Production.make ~name:"item" ~head:item ~components:[ t_text ]
          ~guard:(fun arr -> short_label (tok_sval arr.(0)))
          ~build:(fun arr -> Instance.S_ops [ tok_sval arr.(0) ])
          ();
        (* A menu is a left-aligned vertical stack of items. *)
        Production.make ~name:"menu-base" ~head:menu ~components:[ item ]
          ~build:(fun arr -> Instance.S_ops (labels_of arr.(0)))
          ();
        Production.make ~name:"menu-grow" ~head:menu
          ~components:[ menu; item ]
          ~guard:(fun arr ->
              R.above ~max_gap:24 arr.(0) arr.(1)
              && R.left_aligned ~tolerance:8 arr.(0) arr.(1))
          ~build:(fun arr ->
              Instance.S_ops (labels_of arr.(0) @ labels_of arr.(1)))
          ();
        Production.make ~name:"page" ~head:page ~components:[ menu ]
          ~guard:(fun arr -> List.length (labels_of arr.(0)) >= 3)
          ~build:(fun arr -> Instance.S_ops (labels_of arr.(0)))
          () ]
    ~preferences:
      [ (* The longest stack wins — the same R2 convention as RBList. *)
        Preference.make ~name:"longest-menu" ~winner:menu ~loser:menu
          ~conflict:(fun a b -> Instance.subsumes a b)
          ~wins:(fun a b ->
              G.Bitset.cardinal a.Instance.cover
              > G.Bitset.cardinal b.Instance.cover)
          () ]
    ()

(* An e-commerce entry page: a navigation column on the left, prose on
   the right. *)
let entry_page = {|
<table>
<tr>
<td>
  <b>Departments</b><br>
  Books<br>
  Music<br>
  Electronics<br>
  Toys and Games<br>
  Home and Garden<br>
  Gift Certificates
</td>
<td>
  <h2>Welcome to our store</h2>
  <p>We offer the best selection of products at everyday low prices,
  with free shipping on qualified orders and easy returns within
  thirty days of purchase.</p>
</td>
</tr>
</table>|}

let () =
  let tokens = Wqi_token.Tokenize.of_html entry_page in
  let result =
    Wqi_parser.Engine.parse (Wqi_parser.Engine.compile nav_grammar) tokens
  in
  Format.printf "tokens: %d; instances created: %d@." (List.length tokens)
    result.Wqi_parser.Engine.stats.created;
  List.iter
    (fun (tree : Instance.t) ->
       if Symbol.equal tree.sym page then begin
         Format.printf "@.Navigation menu found (%d services):@."
           (List.length (labels_of tree));
         List.iter (Format.printf "  - %s@.") (labels_of tree)
       end)
    result.Wqi_parser.Engine.maximal;
  (* The prose on the right never assembles into a menu: its lines are
     neither short nor consistently left-aligned with each other as
     items — the grammar, not ad-hoc code, makes that judgement. *)
  Format.printf "@.(maximal trees: %d; the prose column stays unparsed)@."
    (List.length result.Wqi_parser.Engine.maximal)
