(* Flat dispatch tables: everything about a grammar the parser's inner
   loops would otherwise rediscover per parse — or chase through
   closures and hashtables per production application — resolved once at
   [Engine.compile] time into dense int-indexed arrays.

   Symbols are interned to dense ids (token-kind terminals first, so any
   token maps without a lookup miss, then grammar symbols in declaration
   order — deterministic, and identical for equal grammars).  Each
   production becomes an [fprod] carrying its component symbol ids, its
   watermark/delta offsets into the arena's flat scratch arrays, and its
   spatial hints compiled to packed candidate-relative checks.

   A packed check is two ints per hint, laid out [meta; param]:
   [meta = tag lor (other_slot lsl 4)] where [tag] names the relation
   with the *candidate as first argument* (a hint whose candidate sits on
   the second side compiles to the flipped tag), and [param] is the gap
   or tolerance.  The engine evaluates tags directly on the arena's
   coordinate columns with the exact {!Wqi_layout.Geometry} formulas, so
   admitted candidate sets are identical to interpreting
   {!Wqi_grammar.Hint.holds_rel} on boxes. *)

module G = Wqi_grammar
module Symbol = G.Symbol
module Hint = G.Hint
module Token = Wqi_token.Token

(* Candidate-relative relation tags. *)
let tag_left_of = 0 (* candidate left_of other *)
let tag_right_of = 1 (* other left_of candidate *)
let tag_above = 2 (* candidate above other *)
let tag_below = 3 (* other above candidate *)
let tag_same_row = 4
let tag_same_col = 5
let tag_left_al = 6
let tag_top_al = 7
let tag_bot_al = 8

let no_checks : int array = [||]

type fprod = {
  ord : int;  (* index in [prods]; also the arena's chosen-row index *)
  prod : G.Production.t;  (* guard/build/name: the boxed originals *)
  head : int;
  comps : int array;
  arity : int;
  checks : int array array;
      (* per slot, stride 2 ([meta; param]); [no_checks] when unhinted *)
  mark_base : int;  (* offset of this production's watermarks (arity) *)
  delta_base : int;  (* offset of its delta flags (arity + 1) *)
}

(* A preference with its winner and loser interned. *)
type fpref = {
  pref : G.Preference.t;
  wsid : int;
  lsid : int;
}

type t = {
  syms : Symbol.t array;
  nsyms : int;
  ids : (Symbol.t, int) Hashtbl.t;  (* compile time only *)
  prods : fprod array;
  by_head : int array array;  (* symbol id -> fprod ordinals, grammar order *)
  prefs : fpref array;  (* grammar order *)
  prefs_by_sym : fpref array array;
      (* symbol id -> the preferences it wins or loses, grammar order *)
  marks_len : int;
  deltas_len : int;
  max_arity : int;
}

let sym_id t sym = Hashtbl.find t.ids sym

let all_token_kinds =
  [ Token.Text; Token.Textbox; Token.Selection; Token.Radio; Token.Checkbox;
    Token.Button; Token.Image ]

(* Token kinds are interned first, in [all_token_kinds] order, so a
   token's terminal id needs no lookup. *)
let token_sid : Token.kind -> int = function
  | Token.Text -> 0
  | Token.Textbox -> 1
  | Token.Selection -> 2
  | Token.Radio -> 3
  | Token.Checkbox -> 4
  | Token.Button -> 5
  | Token.Image -> 6

(* A hint [rel(a, b)] becomes checkable at the later of its two slots;
   the packed tag is normalized so the candidate (the later slot) is the
   relation's first argument. *)
let pack_hint (h : Hint.t) =
  let other = min h.a h.b in
  let cand_first = h.a > h.b in
  let tag, param =
    match h.rel with
    | Hint.Left_of g -> ((if cand_first then tag_left_of else tag_right_of), g)
    | Hint.Above g -> ((if cand_first then tag_above else tag_below), g)
    | Hint.Below g -> ((if cand_first then tag_below else tag_above), g)
    | Hint.Same_row -> (tag_same_row, 0)
    | Hint.Same_column -> (tag_same_col, 0)
    | Hint.Left_aligned tol -> (tag_left_al, tol)
    | Hint.Top_aligned tol -> (tag_top_al, tol)
    | Hint.Bottom_aligned tol -> (tag_bot_al, tol)
  in
  (max h.a h.b, tag lor (other lsl 4), param)

let build (g : G.Grammar.t) =
  let ids = Hashtbl.create 64 in
  let rev = ref [] in
  let count = ref 0 in
  let intern sym =
    match Hashtbl.find_opt ids sym with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      Hashtbl.add ids sym i;
      rev := sym :: !rev;
      i
  in
  List.iter
    (fun k ->
       let id = intern (Symbol.of_token_kind k) in
       assert (id = token_sid k))
    all_token_kinds;
  List.iter (fun s -> ignore (intern s)) g.terminals;
  List.iter
    (fun (p : G.Production.t) ->
       ignore (intern p.head);
       List.iter (fun s -> ignore (intern s)) p.components)
    g.productions;
  List.iter
    (fun (r : G.Preference.t) ->
       ignore (intern r.winner);
       ignore (intern r.loser))
    g.preferences;
  ignore (intern g.start);
  let syms = Array.of_list (List.rev !rev) in
  let nsyms = Array.length syms in
  let mark_base = ref 0 and delta_base = ref 0 in
  let prods =
    Array.of_list
      (List.mapi
         (fun ord (p : G.Production.t) ->
            let arity = List.length p.components in
            let checks =
              if p.hints = [] then Array.make arity no_checks
              else begin
                let per_slot = Array.make arity [] in
                List.iter
                  (fun h ->
                     let slot, meta, param = pack_hint h in
                     per_slot.(slot) <- (meta, param) :: per_slot.(slot))
                  p.hints;
                Array.map
                  (fun l ->
                     match List.rev l with
                     | [] -> no_checks
                     | l ->
                       let arr = Array.make (2 * List.length l) 0 in
                       List.iteri
                         (fun k (meta, param) ->
                            arr.(2 * k) <- meta;
                            arr.((2 * k) + 1) <- param)
                         l;
                       arr)
                  per_slot
              end
            in
            let fp =
              { ord;
                prod = p;
                head = intern p.head;
                comps =
                  Array.of_list (List.map (fun s -> intern s) p.components);
                arity;
                checks;
                mark_base = !mark_base;
                delta_base = !delta_base }
            in
            mark_base := !mark_base + arity;
            delta_base := !delta_base + arity + 1;
            fp)
         g.productions)
  in
  let by_head = Array.make nsyms [] in
  Array.iter (fun fp -> by_head.(fp.head) <- fp.ord :: by_head.(fp.head)) prods;
  let by_head = Array.map (fun l -> Array.of_list (List.rev l)) by_head in
  let max_arity =
    Array.fold_left (fun acc fp -> max acc fp.arity) 1 prods
  in
  let prefs =
    Array.of_list
      (List.map
         (fun (r : G.Preference.t) ->
            { pref = r;
              wsid = Hashtbl.find ids r.winner;
              lsid = Hashtbl.find ids r.loser })
         g.preferences)
  in
  let prefs_by_sym = Array.make nsyms [] in
  for k = Array.length prefs - 1 downto 0 do
    let fr = prefs.(k) in
    prefs_by_sym.(fr.wsid) <- fr :: prefs_by_sym.(fr.wsid);
    if fr.lsid <> fr.wsid then
      prefs_by_sym.(fr.lsid) <- fr :: prefs_by_sym.(fr.lsid)
  done;
  { syms;
    nsyms;
    ids;
    prods;
    by_head;
    prefs;
    prefs_by_sym = Array.map Array.of_list prefs_by_sym;
    marks_len = max 1 !mark_base;
    deltas_len = max 1 !delta_base;
    max_arity }
