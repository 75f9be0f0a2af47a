module G = Wqi_grammar
module Symbol = G.Symbol
module Instance = G.Instance
module Production = G.Production
module Preference = G.Preference
module Bitset = G.Bitset
module R = G.Relation
module H = G.Hint
module Condition = Wqi_model.Condition

(* ------------------------------------------------------------------ *)
(* Symbols                                                             *)
(* ------------------------------------------------------------------ *)

let t_text = Symbol.terminal "text"
let t_textbox = Symbol.terminal "textbox"
let t_selection = Symbol.terminal "selection"
let t_radio = Symbol.terminal "radio"
let t_checkbox = Symbol.terminal "checkbox"
let t_button = Symbol.terminal "button"
let t_image = Symbol.terminal "image"

let terminals =
  [ t_text; t_textbox; t_selection; t_radio; t_checkbox; t_button; t_image ]

let nt = Symbol.nonterminal
let attr = nt "Attr"
let attr_bound = nt "AttrBound"
let attr_tail = nt "AttrTail"
let value = nt "Val"
let sel_val = nt "SelVal"
let op_sel = nt "OpSel"
let bound_word = nt "BoundWord"
let unit_word = nt "UnitWord"
let action = nt "Action"
let decor = nt "Decor"
let rbu = nt "RBU"
let rb_list = nt "RBList"
let cbu = nt "CBU"
let cb_list = nt "CBList"
let op = nt "Op"
let text_val = nt "TextVal"
let text_op = nt "TextOp"
let select_cp = nt "SelectCP"
let enum_rb = nt "EnumRB"
let check_cp = nt "CheckCP"
let cb_solo = nt "CBSolo"
let bound_val = nt "BoundVal"
let bound_sel = nt "BoundSel"
let range_body = nt "RangeBody"
let range_sel_body = nt "RangeSelBody"
let range_cp = nt "RangeCP"
let range_sel_cp = nt "RangeSelCP"
let date_body = nt "DateBody"
let date_cp = nt "DateCP"
let keyword_cp = nt "KeywordCP"
let cp = nt "CP"
let hqi = nt "HQI"
let qi = nt "QI"

let start = qi

(* ------------------------------------------------------------------ *)
(* Semantic access helpers                                             *)
(* ------------------------------------------------------------------ *)

let tok_sval (i : Instance.t) =
  match i.token with Some tk -> tk.Wqi_token.Token.sval | None -> ""

let tok_options (i : Instance.t) =
  match i.token with Some tk -> tk.Wqi_token.Token.options | None -> []

let str_of (i : Instance.t) =
  match i.sem with Instance.S_str s -> s | _ -> ""

let ops_of (i : Instance.t) =
  match i.sem with Instance.S_ops l -> l | _ -> []

let dom_of (i : Instance.t) =
  match i.sem with Instance.S_domain d -> d | _ -> Condition.Text

let cond ?operators ~attribute domain =
  Instance.S_cond (Condition.make ?operators ~attribute domain)

let enum_options (i : Instance.t) =
  match dom_of i with Condition.Enumeration vs -> vs | _ -> []

(* ------------------------------------------------------------------ *)
(* Production helpers                                                  *)
(* ------------------------------------------------------------------ *)

(* [hints] restate the guard's spatial conjuncts declaratively so the
   parser can enumerate candidates through its row-band index instead of
   scanning whole stores.  Soundness rule: a hint may only be given when
   the guard calls the very same relation with the same (or looser)
   bounds on the same pair of components — the hint then prunes only
   combinations the guard would reject anyway, and results stay
   byte-identical with hints disabled. *)
let prod name head components ?guard ?build ?hints () =
  Production.make ~name ~head ~components ?guard ?build ?hints ()

let g1 f = fun arr -> f arr.(0)
let g2 f = fun arr -> f arr.(0) arr.(1)
let g3 f = fun arr -> f arr.(0) arr.(1) arr.(2)

(* ------------------------------------------------------------------ *)
(* Atom productions                                                    *)
(* ------------------------------------------------------------------ *)

let atoms =
  [ prod "P-Attr" attr [ t_text ]
      ~guard:(g1 (fun s -> Lexicon.plausible_attribute (tok_sval s)))
      ~build:(g1 (fun s -> Instance.S_str (tok_sval s)))
      ();
    prod "P-Val" value [ t_textbox ]
      ~build:(fun _ -> Instance.S_domain Condition.Text)
      ();
    prod "P-SelVal" sel_val [ t_selection ]
      ~build:(g1 (fun s ->
          Instance.S_domain (Condition.Enumeration (tok_options s))))
      ();
    prod "P-OpSel" op_sel [ t_selection ]
      ~guard:(g1 (fun s -> Lexicon.all_operator_options (tok_options s)))
      ~build:(g1 (fun s -> Instance.S_ops (tok_options s)))
      ();
    prod "P-AttrBound" attr_bound [ t_text ]
      ~guard:
        (g1 (fun s -> Option.is_some (Lexicon.split_bound_suffix (tok_sval s))))
      ~build:
        (g1 (fun s ->
             match Lexicon.split_bound_suffix (tok_sval s) with
             | Some (label, _marker) -> Instance.S_str label
             | None -> Instance.S_none))
      ();
    prod "P-AttrTail" attr_tail [ t_text ]
      ~guard:
        (g1 (fun s -> Option.is_some (Lexicon.split_unit_prefix (tok_sval s))))
      ~build:
        (g1 (fun s ->
             match Lexicon.split_unit_prefix (tok_sval s) with
             | Some (_unit, label) -> Instance.S_str label
             | None -> Instance.S_none))
      ();
    prod "P-BoundWord" bound_word [ t_text ]
      ~guard:(g1 (fun s -> Lexicon.is_bound_marker (tok_sval s)))
      ~build:(g1 (fun s -> Instance.S_str (tok_sval s)))
      ();
    prod "P-UnitWord" unit_word [ t_text ]
      ~guard:(g1 (fun s -> Lexicon.is_unit_word (tok_sval s)))
      ();
    prod "P-Action" action [ t_button ] ();
    prod "P-Decor" decor [ t_image ] () ]

(* ------------------------------------------------------------------ *)
(* Radio / checkbox structure                                          *)
(* ------------------------------------------------------------------ *)

let unit_gap = 30

let button_units =
  [ prod "P-RBU" rbu [ t_radio; t_text ]
      ~guard:(g2 (fun r s -> R.left ~max_gap:unit_gap r s))
      ~build:(g2 (fun _ s -> Instance.S_str (tok_sval s)))
      ~hints:[ H.left_of ~max_gap:unit_gap 0 1 ]
      ();
    prod "P-CBU" cbu [ t_checkbox; t_text ]
      ~guard:(g2 (fun c s -> R.left ~max_gap:unit_gap c s))
      ~build:(g2 (fun _ s -> Instance.S_str (tok_sval s)))
      ~hints:[ H.left_of ~max_gap:unit_gap 0 1 ]
      () ]

let list_of_units name list_sym unit_sym =
  [ prod (name ^ "-base") list_sym [ unit_sym ]
      ~build:(g1 (fun u -> Instance.S_ops [ str_of u ]))
      ();
    prod (name ^ "-h") list_sym [ list_sym; unit_sym ]
      ~guard:(g2 (fun l u -> R.left ~max_gap:90 l u))
      ~build:(g2 (fun l u -> Instance.S_ops (ops_of l @ [ str_of u ])))
      ~hints:[ H.left_of ~max_gap:90 0 1 ]
      ();
    prod (name ^ "-v") list_sym [ list_sym; unit_sym ]
      ~guard:
        (g2 (fun l u ->
             R.above ~max_gap:20 l u && R.left_aligned ~tolerance:10 l u))
      ~build:(g2 (fun l u -> Instance.S_ops (ops_of l @ [ str_of u ])))
      ~hints:[ H.above ~max_gap:20 0 1; H.left_aligned ~tolerance:10 0 1 ]
      () ]

let lists =
  list_of_units "P-RBList" rb_list rbu
  @ list_of_units "P-CBList" cb_list cbu

let op_productions =
  [ prod "P-Op-RB" op [ rb_list ]
      ~guard:(g1 (fun l -> List.exists Lexicon.is_operator_phrase (ops_of l)))
      ~build:(g1 (fun l -> Instance.S_ops (ops_of l)))
      ();
    prod "P-Op-Sel" op [ op_sel ]
      ~build:(g1 (fun s -> Instance.S_ops (ops_of s)))
      ();
    (* Checkbox modifier lists ("[x] exact match  [x] whole words"). *)
    prod "P-Op-CB" op [ cb_list ]
      ~guard:
        (g1 (fun l -> List.for_all Lexicon.is_operator_phrase (ops_of l)))
      ~build:(g1 (fun l -> Instance.S_ops (ops_of l)))
      () ]

(* ------------------------------------------------------------------ *)
(* Condition patterns                                                  *)
(* ------------------------------------------------------------------ *)

let text_val_build = g2 (fun a _v -> cond ~attribute:(str_of a) Condition.Text)

(* Above/below attribute conventions also left-align the label with the
   field; requiring it stops labels from capturing fields in the row
   above or below within a label column. *)
let stacked rel a b = rel a b && R.left_aligned ~tolerance:25 a b

(* Attribute-to-field adjacency: label columns in real tables are sized
   by their longest sibling label, so the gap between a short label and
   its field can be large.  Association scoring still prefers the
   tightest pairing when several fields compete. *)
let attr_left_gap = 150
let attr_left a b = R.left ~max_gap:attr_left_gap a b

(* Hint counterparts of the two conventions above, by slot index. *)
let h_attr_left a b = H.left_of ~max_gap:attr_left_gap a b
let h_stacked_above a b = [ H.above a b; H.left_aligned ~tolerance:25 a b ]

let text_vals =
  [ prod "P-TextVal-left" text_val [ attr; value ]
      ~guard:(g2 (fun a v -> attr_left a v))
      ~build:text_val_build ~hints:[ h_attr_left 0 1 ] ();
    prod "P-TextVal-above" text_val [ attr; value ]
      ~guard:(g2 (fun a v -> stacked (R.above ?max_gap:None) a v))
      ~build:text_val_build ~hints:(h_stacked_above 0 1) ();
    prod "P-TextVal-below" text_val [ attr; value ]
      ~guard:(g2 (fun a v -> stacked (R.below ~max_gap:14) a v))
      ~build:text_val_build
      ~hints:[ H.below ~max_gap:14 0 1; H.left_aligned ~tolerance:25 0 1 ]
      ();
    (* "...miles of ZIP [box]": the unit-prefixed run labels the next
       field. *)
    prod "P-TextVal-tail" text_val [ attr_tail; value ]
      ~guard:(g2 (fun a v -> R.left ~max_gap:60 a v))
      ~build:text_val_build ~hints:[ H.left_of ~max_gap:60 0 1 ] ();
    prod "P-TextVal-unit" text_val [ attr; value; unit_word ]
      ~guard:(g3 (fun a v u -> attr_left a v && R.left ~max_gap:30 v u))
      ~build:(g3 (fun a _v _u -> cond ~attribute:(str_of a) Condition.Text))
      ~hints:[ h_attr_left 0 1; H.left_of ~max_gap:30 1 2 ]
      () ]

let text_op_build =
  g3 (fun a _v o ->
      cond ~operators:(ops_of o) ~attribute:(str_of a) Condition.Text)

let text_op_build_op_mid =
  g3 (fun a o _v ->
      cond ~operators:(ops_of o) ~attribute:(str_of a) Condition.Text)

let text_ops =
  [ (* Paper P5: Left(Attr, Val) ∧ Below(Op, Val) — operators under the
       textbox, as in Qam's author condition. *)
    prod "P-TextOp-below" text_op [ attr; value; op ]
      ~guard:(g3 (fun a v o -> attr_left a v && R.above ~max_gap:24 v o))
      ~build:text_op_build
      ~hints:[ h_attr_left 0 1; H.above ~max_gap:24 1 2 ]
      ();
    prod "P-TextOp-right" text_op [ attr; value; op ]
      ~guard:(g3 (fun a v o -> attr_left a v && R.left ~max_gap:90 v o))
      ~build:text_op_build
      ~hints:[ h_attr_left 0 1; H.left_of ~max_gap:90 1 2 ]
      ();
    prod "P-TextOp-opleft" text_op [ attr; op; value ]
      ~guard:(g3 (fun a o v -> attr_left a o && R.left o v))
      ~build:text_op_build_op_mid
      ~hints:[ h_attr_left 0 1; H.left_of 1 2 ]
      ();
    prod "P-TextOp-attrabove" text_op [ attr; value; op ]
      ~guard:(g3 (fun a v o -> R.above a v && R.above ~max_gap:24 v o))
      ~build:text_op_build
      ~hints:[ H.above 0 1; H.above ~max_gap:24 1 2 ]
      () ]

let select_build =
  g2 (fun a s -> cond ~attribute:(str_of a) (dom_of s))

let select_cps =
  [ prod "P-SelectCP-left" select_cp [ attr; sel_val ]
      ~guard:(g2 (fun a s -> attr_left a s))
      ~build:select_build ~hints:[ h_attr_left 0 1 ] ();
    prod "P-SelectCP-above" select_cp [ attr; sel_val ]
      ~guard:(g2 (fun a s -> stacked (R.above ?max_gap:None) a s))
      ~build:select_build ~hints:(h_stacked_above 0 1) () ]

let enum_rb_build =
  g2 (fun a l ->
      cond ~attribute:(str_of a) (Condition.Enumeration (ops_of l)))

let enum_rbs =
  [ (* Paper P7: a bare radio-button list is itself a condition. *)
    prod "P-EnumRB-bare" enum_rb [ rb_list ]
      ~guard:(g1 (fun l -> List.length (ops_of l) >= 2))
      ~build:
        (g1 (fun l ->
             cond ~attribute:"" (Condition.Enumeration (ops_of l))))
      ();
    prod "P-EnumRB-left" enum_rb [ attr; rb_list ]
      ~guard:(g2 (fun a l -> attr_left a l))
      ~build:enum_rb_build ~hints:[ h_attr_left 0 1 ] ();
    prod "P-EnumRB-above" enum_rb [ attr; rb_list ]
      ~guard:(g2 (fun a l -> stacked (R.above ?max_gap:None) a l))
      ~build:enum_rb_build ~hints:(h_stacked_above 0 1) () ]

let check_cp_build =
  g2 (fun a l ->
      cond ~attribute:(str_of a) (Condition.Enumeration (ops_of l)))

let check_cps =
  [ prod "P-CheckCP-bare" check_cp [ cb_list ]
      ~guard:(g1 (fun l -> List.length (ops_of l) >= 2))
      ~build:
        (g1 (fun l ->
             cond ~attribute:"" (Condition.Enumeration (ops_of l))))
      ();
    prod "P-CheckCP-left" check_cp [ attr; cb_list ]
      ~guard:(g2 (fun a l -> attr_left a l))
      ~build:check_cp_build ~hints:[ h_attr_left 0 1 ] ();
    prod "P-CheckCP-above" check_cp [ attr; cb_list ]
      ~guard:(g2 (fun a l -> stacked (R.above ?max_gap:None) a l))
      ~build:check_cp_build ~hints:(h_stacked_above 0 1) ();
    prod "P-CBSolo" cb_solo [ cbu ]
      ~build:
        (g1 (fun u ->
             cond ~attribute:(str_of u)
               (Condition.Enumeration [ str_of u ])))
      () ]

let bounds =
  [ prod "P-BoundVal" bound_val [ bound_word; value ]
      ~guard:(g2 (fun w v -> R.left ~max_gap:40 w v))
      ~build:(fun _ -> Instance.S_domain Condition.Text)
      ~hints:[ H.left_of ~max_gap:40 0 1 ]
      ();
    prod "P-BoundSel" bound_sel [ bound_word; sel_val ]
      ~guard:(g2 (fun w s -> R.left ~max_gap:40 w s))
      ~build:(g2 (fun _ s -> Instance.S_domain (dom_of s)))
      ~hints:[ H.left_of ~max_gap:40 0 1 ]
      () ]

let range_bodies =
  [ prod "P-RangeBody-h" range_body [ bound_val; bound_val ]
      ~guard:(g2 (fun a b -> R.left ~max_gap:120 a b))
      ~build:(fun _ -> Instance.S_domain (Condition.Range Condition.Text))
      ~hints:[ H.left_of ~max_gap:120 0 1 ]
      ();
    prod "P-RangeBody-v" range_body [ bound_val; bound_val ]
      ~guard:(g2 (fun a b -> R.above ~max_gap:24 a b))
      ~build:(fun _ -> Instance.S_domain (Condition.Range Condition.Text))
      ~hints:[ H.above ~max_gap:24 0 1 ]
      ();
    (* "Attr [tb] to [tb]": the first bound carries no marker. *)
    prod "P-RangeBody-valfirst" range_body [ value; bound_val ]
      ~guard:(g2 (fun v b -> R.left ~max_gap:60 v b))
      ~build:(fun _ -> Instance.S_domain (Condition.Range Condition.Text))
      ~hints:[ H.left_of ~max_gap:60 0 1 ]
      ();
    prod "P-RangeSelBody-h" range_sel_body [ bound_sel; bound_sel ]
      ~guard:(g2 (fun a b -> R.left ~max_gap:120 a b))
      ~build:
        (g2 (fun a _ -> Instance.S_domain (Condition.Range (dom_of a))))
      ~hints:[ H.left_of ~max_gap:120 0 1 ]
      ();
    prod "P-RangeSelBody-v" range_sel_body [ bound_sel; bound_sel ]
      ~guard:(g2 (fun a b -> R.above ~max_gap:24 a b))
      ~build:
        (g2 (fun a _ -> Instance.S_domain (Condition.Range (dom_of a))))
      ~hints:[ H.above ~max_gap:24 0 1 ]
      () ]

let range_build =
  g2 (fun a body ->
      cond ~operators:[ "between" ] ~attribute:(str_of a) (dom_of body))

(* "From: [box] To: [box]" on an airfare form is two attributed
   conditions, not a range: a range pattern's attribute is never itself
   a bare bound marker. *)
let range_attr_ok a = not (Lexicon.is_bound_marker (str_of a))

let range_cps =
  [ prod "P-RangeCP-combined" range_cp [ attr_bound; value; bound_val ]
      ~guard:
        (g3 (fun a v b -> attr_left a v && R.left ~max_gap:60 v b))
      ~build:
        (g3 (fun a _v _b ->
             cond ~operators:[ "between" ] ~attribute:(str_of a)
               (Condition.Range Condition.Text)))
      ~hints:[ h_attr_left 0 1; H.left_of ~max_gap:60 1 2 ]
      ();
    prod "P-RangeSelCP-combined" range_sel_cp [ attr_bound; sel_val; bound_sel ]
      ~guard:
        (g3 (fun a v b -> attr_left a v && R.left ~max_gap:60 v b))
      ~build:
        (g3 (fun a v _b ->
             cond ~operators:[ "between" ] ~attribute:(str_of a)
               (Condition.Range (dom_of v))))
      ~hints:[ h_attr_left 0 1; H.left_of ~max_gap:60 1 2 ]
      ();
    prod "P-RangeCP-left" range_cp [ attr; range_body ]
      ~guard:(g2 (fun a b -> range_attr_ok a && attr_left a b))
      ~build:range_build ~hints:[ h_attr_left 0 1 ] ();
    prod "P-RangeCP-above" range_cp [ attr; range_body ]
      ~guard:
        (g2 (fun a b -> range_attr_ok a && stacked (R.above ?max_gap:None) a b))
      ~build:range_build ~hints:(h_stacked_above 0 1) ();
    prod "P-RangeSelCP-left" range_sel_cp [ attr; range_sel_body ]
      ~guard:(g2 (fun a b -> range_attr_ok a && attr_left a b))
      ~build:range_build ~hints:[ h_attr_left 0 1 ] ();
    prod "P-RangeSelCP-above" range_sel_cp [ attr; range_sel_body ]
      ~guard:
        (g2 (fun a b -> range_attr_ok a && stacked (R.above ?max_gap:None) a b))
      ~build:range_build ~hints:(h_stacked_above 0 1) () ]

let date_combo insts =
  Lexicon.plausible_date_combo (List.map enum_options insts)

let date_bodies =
  [ prod "P-DateBody-3" date_body [ sel_val; sel_val; sel_val ]
      ~guard:
        (g3 (fun a b c ->
             R.left ~max_gap:30 a b && R.left ~max_gap:30 b c
             && date_combo [ a; b; c ]))
      ~build:(fun _ -> Instance.S_domain Condition.Datetime)
      ~hints:[ H.left_of ~max_gap:30 0 1; H.left_of ~max_gap:30 1 2 ]
      ();
    prod "P-DateBody-2" date_body [ sel_val; sel_val ]
      ~guard:
        (g2 (fun a b -> R.left ~max_gap:30 a b && date_combo [ a; b ]))
      ~build:(fun _ -> Instance.S_domain Condition.Datetime)
      ~hints:[ H.left_of ~max_gap:30 0 1 ]
      () ]

let date_build =
  g2 (fun a _b -> cond ~attribute:(str_of a) Condition.Datetime)

let date_cps =
  [ prod "P-DateCP-left" date_cp [ attr; date_body ]
      ~guard:(g2 (fun a b -> attr_left a b))
      ~build:date_build ~hints:[ h_attr_left 0 1 ] ();
    prod "P-DateCP-above" date_cp [ attr; date_body ]
      ~guard:(g2 (fun a b -> stacked (R.above ?max_gap:None) a b))
      ~build:date_build ~hints:(h_stacked_above 0 1) () ]

let keyword_cps =
  [ prod "P-KeywordCP" keyword_cp [ value; action ]
      ~guard:(g2 (fun v a -> R.left ~max_gap:60 v a))
      ~build:(fun _ -> cond ~attribute:"" Condition.Text)
      ~hints:[ H.left_of ~max_gap:60 0 1 ]
      () ]

(* ------------------------------------------------------------------ *)
(* Assembly: CP, HQI, QI                                               *)
(* ------------------------------------------------------------------ *)

let lift_conditions (i : Instance.t) =
  match i.sem with
  | Instance.S_cond c -> Instance.S_conds [ c ]
  | Instance.S_conds cs -> Instance.S_conds cs
  | Instance.S_none | Instance.S_str _ | Instance.S_ops _
  | Instance.S_domain _ ->
    Instance.S_conds []

let cp_alternatives =
  [ text_val; text_op; select_cp; enum_rb; check_cp; cb_solo; range_cp;
    range_sel_cp; date_cp; keyword_cp; action; decor ]

let cp_productions =
  List.map
    (fun alt ->
       prod ("P-CP-" ^ Symbol.name alt) cp [ alt ]
         ~build:(g1 lift_conditions) ())
    cp_alternatives

let concat_conds (a : Instance.t) (b : Instance.t) =
  let conds_of (i : Instance.t) =
    match i.sem with Instance.S_conds cs -> cs | _ -> []
  in
  Instance.S_conds (conds_of a @ conds_of b)

let assembly =
  [ prod "P-HQI-base" hqi [ cp ] ~build:(g1 lift_conditions) ();
    prod "P-HQI-left" hqi [ hqi; cp ]
      ~guard:(g2 (fun row c -> R.left ~max_gap:150 row c))
      ~build:(g2 concat_conds) ~hints:[ H.left_of ~max_gap:150 0 1 ] ();
    prod "P-QI-base" qi [ hqi ] ~build:(g1 lift_conditions) ();
    prod "P-QI-above" qi [ qi; hqi ]
      ~guard:(g2 (fun q row -> R.above ~max_gap:120 q row))
      ~build:(g2 concat_conds) ~hints:[ H.above ~max_gap:120 0 1 ] () ]

let productions =
  atoms @ button_units @ lists @ op_productions @ text_vals @ text_ops
  @ select_cps @ enum_rbs @ check_cps @ bounds @ range_bodies @ range_cps
  @ date_bodies @ date_cps @ keyword_cps @ cp_productions @ assembly

(* ------------------------------------------------------------------ *)
(* Preferences                                                         *)
(* ------------------------------------------------------------------ *)

let cover_size (i : Instance.t) = Bitset.cardinal i.Instance.cover

(* The longer of two subsuming instances of the same symbol wins (the
   paper's R2, generalized).  Descendants of the winner are spared by the
   parser itself. *)
let subsume_pref sym =
  Preference.make
    ~name:("R-subsume-" ^ Symbol.name sym)
    ~winner:sym ~loser:sym
    ~conflict:(fun v1 v2 -> Instance.subsumes v1 v2)
    ~wins:(fun v1 v2 -> cover_size v1 > cover_size v2)
    ()

(* Winner type beats loser type whenever they compete for tokens. *)
let beats ~name winner loser = Preference.make ~name ~winner ~loser ()

(* Between two readings of the same pattern, the one whose attribute
   does not still carry a bound marker or a unit parsed the label
   correctly ("Price range" beats "Price range from"; "ZIP" beats
   "miles of ZIP"). *)
let attribute_of (i : Instance.t) =
  match i.sem with
  | Instance.S_cond c -> c.Condition.attribute
  | _ -> ""

let dirty_attribute label =
  Option.is_some (Lexicon.split_bound_suffix label)
  || Option.is_some (Lexicon.split_unit_prefix label)

let clean_range_attr sym =
  Preference.make
    ~name:("R-clean-attr-" ^ Symbol.name sym)
    ~winner:sym ~loser:sym
    ~wins:(fun v1 v2 ->
        (not (dirty_attribute (attribute_of v1)))
        && dirty_attribute (attribute_of v2))
    ()

(* For units (radio/checkbox + label), the tighter pairing wins. *)
let unit_distance (i : Instance.t) =
  match i.children with
  | [ box_child; label ] -> R.h_gap box_child label
  | _ -> max_int

let closest_unit sym =
  Preference.make
    ~name:("R-closest-" ^ Symbol.name sym)
    ~winner:sym ~loser:sym
    ~wins:(fun v1 v2 -> unit_distance v1 < unit_distance v2)
    ()

(* --- Association scoring -------------------------------------------
   When two condition patterns compete for an attribute label or a
   field, the tighter, more conventional association should win:
   a label binds to the field on its right before a field below it,
   and never across a larger gap when a closer pairing exists.  The
   score orders (relation class, gap, bounding area): left-of is the
   strongest convention, then above/below, then anything else; ties
   break toward the more compact interpretation. *)

let is_attr_sym (i : Instance.t) =
  Symbol.equal i.sym attr || Symbol.equal i.sym attr_bound
  || Symbol.equal i.sym attr_tail

let assoc_score (i : Instance.t) =
  match i.children with
  | a :: (first :: rest) when is_attr_sym a ->
    let field_box =
      List.fold_left
        (fun acc (c : Instance.t) -> Wqi_layout.Geometry.union acc c.box)
        first.Instance.box rest
    in
    let gap = Wqi_layout.Geometry.h_gap a.box field_box in
    let vgap = Wqi_layout.Geometry.v_gap a.box field_box in
    if Wqi_layout.Geometry.left_of ~max_gap:10_000 a.box field_box then
      (0, gap)
    else (1000, vgap)
  | _ ->
    (* Bare (attribute-less) patterns lose to any attributed reading. *)
    (3000, 0)

(* Between equally tight associations, keep the reading that explains
   more tokens (the longer list), then the more compact one. *)
let assoc_wins v1 v2 =
  let r1, g1 = assoc_score v1 and r2, g2 = assoc_score v2 in
  if r1 <> r2 then r1 < r2
  else if g1 <> g2 then g1 < g2
  else
    let c1 = cover_size v1 and c2 = cover_size v2 in
    if c1 <> c2 then c1 > c2
    else R.width v1 * R.height v1 < R.width v2 * R.height v2

let assoc_pref winner loser =
  Preference.make
    ~name:
      (Fmt.str "R-assoc-%s-%s" (Symbol.name winner) (Symbol.name loser))
    ~winner ~loser ~wins:assoc_wins ()

(* Pattern-precedence pairs are arbitrated unconditionally, never by
   association score (an operator list under a textbox *is* the farther
   reading, yet the conventional one). *)
let precedence_pairs =
  [ (text_op, text_val); (text_op, enum_rb); (text_op, select_cp);
    (date_cp, select_cp); (range_cp, text_val); (range_cp, select_cp);
    (range_sel_cp, select_cp); (check_cp, cb_solo);
    (text_op, check_cp); (text_op, cb_solo);
    (text_val, keyword_cp); (select_cp, keyword_cp) ]

let attr_field_family =
  [ text_val; text_op; select_cp; enum_rb; check_cp; date_cp; range_cp;
    range_sel_cp ]

let assoc_prefs =
  List.concat_map
    (fun winner ->
       List.filter_map
         (fun loser ->
            let excluded =
              List.exists
                (fun (w, l) ->
                   (Symbol.equal w winner && Symbol.equal l loser)
                   || (Symbol.equal w loser && Symbol.equal l winner))
                precedence_pairs
            in
            if excluded then None else Some (assoc_pref winner loser))
         attr_field_family)
    attr_field_family

let preferences =
  (* R1 (paper): a unit binds its label more tightly than Attr does. *)
  [ beats ~name:"R1-RBU-Attr" rbu attr;
    beats ~name:"R1-CBU-Attr" cbu attr;
    closest_unit rbu;
    closest_unit cbu;
    (* R2 (paper): longer lists win. *)
    subsume_pref rb_list;
    subsume_pref cb_list ]
  (* Pattern precedence. *)
  @ List.map
      (fun (w, l) ->
         beats ~name:(Fmt.str "R-%s-%s" (Symbol.name w) (Symbol.name l)) w l)
      precedence_pairs
  (* Association-score arbitration across and within patterns. *)
  @ assoc_prefs
  (* Structural maximality. *)
  @ [ clean_range_attr range_cp;
      clean_range_attr range_sel_cp;
      clean_range_attr text_val;
      subsume_pref date_body;
      subsume_pref range_body;
      subsume_pref enum_rb;
      subsume_pref check_cp;
      subsume_pref hqi;
      subsume_pref qi ]

let grammar =
  G.Grammar.make ~terminals ~start ~productions ~preferences ()

(* Compile once at load: the pack (symbol interning, dispatch tables,
   arena pool) is immutable apart from its lock-free pool, so one shared
   copy serves every thread and domain. *)
let compiled =
  Wqi_parser.Engine.compile ~name:"std" ~version:"1" grammar
