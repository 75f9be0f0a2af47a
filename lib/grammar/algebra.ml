module Condition = Wqi_model.Condition
module Geometry = Wqi_layout.Geometry

type slot = int

type text_src = Token_text | Sem_str

type pred =
  | P_true
  | P_and of pred list
  | P_not of pred
  | P_rel of Hint.rel * slot * slot
  | P_text_is of string * text_src * slot
  | P_split_applies of string * slot
  | P_ops_exists of string * slot
  | P_ops_forall of string * slot
  | P_ops_count_ge of int * slot
  | P_options_class of string * slot
  | P_combo of string * slot list

type str_expr =
  | S_lit of string
  | S_token_text of slot
  | S_sem_str of slot

type ops_expr =
  | O_token_options of slot
  | O_sem_ops of slot
  | O_singleton of slot
  | O_append of slot * slot
  | O_lit of string list

type dom_expr =
  | D_text
  | D_datetime
  | D_enum of ops_expr
  | D_of_slot of slot
  | D_range of dom_expr

type build =
  | B_none
  | B_str of str_expr
  | B_split_str of string * [ `First | `Second ] * slot
  | B_ops of ops_expr
  | B_domain of dom_expr
  | B_cond of ops_expr option * str_expr * dom_expr
  | B_lift of slot
  | B_concat of slot * slot

type pref_kind =
  | K_beats
  | K_subsume
  | K_closest_unit
  | K_clean_attr of string list
  | K_assoc of string list

type production = {
  p_name : string;
  p_head : string;
  p_components : string list;
  p_guard : pred;
  p_build : build;
}

type preference = {
  r_name : string;
  r_winner : string;
  r_loser : string;
  r_kind : pref_kind;
}

type grammar = {
  g_name : string;
  g_version : string;
  g_terminals : string list;
  g_start : string;
  g_productions : production list;
  g_preferences : preference list;
}

type env = {
  text_classes : (string * (string -> bool)) list;
  options_classes : (string * (string list -> bool)) list;
  splitters : (string * (string -> (string * string) option)) list;
  combos : (string * (string list list -> bool)) list;
}

let empty_env =
  { text_classes = []; options_classes = []; splitters = []; combos = [] }

(* ------------------------------------------------------------------ *)
(* Semantic access                                                     *)
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

let enum_options (i : Instance.t) =
  match dom_of i with Condition.Enumeration vs -> vs | _ -> []

let read_text src i =
  match src with Token_text -> tok_sval i | Sem_str -> str_of i

(* ------------------------------------------------------------------ *)
(* Compilation: resolve names and slots once, return plain closures.   *)
(* ------------------------------------------------------------------ *)

exception Err of string

let err fmt = Format.kasprintf (fun m -> raise (Err m)) fmt

let slot ~arity s =
  if s < 0 || s >= arity then
    err "slot %d out of range (production has %d components)" s arity
  else s

let lookup kind table name =
  match List.assoc_opt name table with
  | Some f -> f
  | None -> err "unknown %s %S" kind name

(* Conjunction chains compile to a flat closure array walked by index —
   [P_and [p; P_and [q; r]]] costs three calls through one array, not a
   [List.for_all] re-traversing cons cells per guard invocation — and
   relations resolve their [Hint.rel] match here, once, so the per-call
   closure is the monomorphic geometry predicate with its parameter
   already bound. *)
let rec flatten_and acc = function
  | P_and ps -> List.fold_left flatten_and acc ps
  | P_true -> acc
  | p -> p :: acc

let rec c_pred env ~arity p : Instance.t array -> bool =
  match p with
  | P_true -> fun _ -> true
  | P_and ps ->
    (match List.rev (List.fold_left flatten_and [] ps) with
     | [] -> fun _ -> true
     | [ p ] -> c_pred env ~arity p
     | ps ->
       let fs = Array.of_list (List.map (c_pred env ~arity) ps) in
       let n = Array.length fs in
       fun arr ->
         let k = ref 0 in
         while !k < n && (Array.unsafe_get fs !k) arr do
           incr k
         done;
         !k >= n)
  | P_not p ->
    let f = c_pred env ~arity p in
    fun arr -> not (f arr)
  | P_rel (rel, a, b) ->
    let a = slot ~arity a and b = slot ~arity b in
    if a = b then err "relation %a relates slot %d to itself" Hint.pp_rel rel a;
    let holds : Geometry.box -> Geometry.box -> bool =
      match rel with
      | Hint.Left_of max_gap -> Geometry.left_of ~max_gap
      | Hint.Above max_gap -> Geometry.above ~max_gap
      | Hint.Below max_gap -> Geometry.below ~max_gap
      | Hint.Same_row -> Geometry.same_row
      | Hint.Same_column -> Geometry.same_column
      | Hint.Left_aligned tolerance -> Geometry.left_aligned ~tolerance
      | Hint.Top_aligned tolerance -> Geometry.top_aligned ~tolerance
      | Hint.Bottom_aligned tolerance -> Geometry.bottom_aligned ~tolerance
    in
    fun arr -> holds arr.(a).Instance.box arr.(b).Instance.box
  | P_text_is (name, src, s) ->
    let f = lookup "text class" env.text_classes name in
    let s = slot ~arity s in
    fun arr -> f (read_text src arr.(s))
  | P_split_applies (name, s) ->
    let f = lookup "splitter" env.splitters name in
    let s = slot ~arity s in
    fun arr -> Option.is_some (f (tok_sval arr.(s)))
  | P_ops_exists (name, s) ->
    let f = lookup "text class" env.text_classes name in
    let s = slot ~arity s in
    fun arr -> List.exists f (ops_of arr.(s))
  | P_ops_forall (name, s) ->
    let f = lookup "text class" env.text_classes name in
    let s = slot ~arity s in
    fun arr -> List.for_all f (ops_of arr.(s))
  | P_ops_count_ge (n, s) ->
    let s = slot ~arity s in
    fun arr -> List.length (ops_of arr.(s)) >= n
  | P_options_class (name, s) ->
    let f = lookup "options class" env.options_classes name in
    let s = slot ~arity s in
    fun arr -> f (tok_options arr.(s))
  | P_combo (name, slots) ->
    let f = lookup "combo" env.combos name in
    let slots = List.map (slot ~arity) slots in
    fun arr -> f (List.map (fun s -> enum_options arr.(s)) slots)

let c_str ~arity = function
  | S_lit s -> fun _ -> s
  | S_token_text s ->
    let s = slot ~arity s in
    fun arr -> tok_sval arr.(s)
  | S_sem_str s ->
    let s = slot ~arity s in
    fun arr -> str_of arr.(s)

let c_ops ~arity = function
  | O_token_options s ->
    let s = slot ~arity s in
    fun arr -> tok_options arr.(s)
  | O_sem_ops s ->
    let s = slot ~arity s in
    fun arr -> ops_of arr.(s)
  | O_singleton s ->
    let s = slot ~arity s in
    fun arr -> [ str_of arr.(s) ]
  | O_append (a, b) ->
    let a = slot ~arity a and b = slot ~arity b in
    fun arr -> ops_of arr.(a) @ [ str_of arr.(b) ]
  | O_lit l -> fun _ -> l

let rec c_dom ~arity = function
  | D_text -> fun _ -> Condition.Text
  | D_datetime -> fun _ -> Condition.Datetime
  | D_enum e ->
    let f = c_ops ~arity e in
    fun arr -> Condition.Enumeration (f arr)
  | D_of_slot s ->
    let s = slot ~arity s in
    fun arr -> dom_of arr.(s)
  | D_range d ->
    let f = c_dom ~arity d in
    fun arr -> Condition.Range (f arr)

let lift_conditions (i : Instance.t) =
  match i.sem with
  | Instance.S_cond c -> Instance.S_conds [ c ]
  | Instance.S_conds cs -> Instance.S_conds cs
  | Instance.S_none | Instance.S_str _ | Instance.S_ops _
  | Instance.S_domain _ ->
    Instance.S_conds []

let conds_of (i : Instance.t) =
  match i.sem with Instance.S_conds cs -> cs | _ -> []

let c_build env ~arity = function
  | B_none -> fun _ -> Instance.S_none
  | B_str e ->
    let f = c_str ~arity e in
    fun arr -> Instance.S_str (f arr)
  | B_split_str (name, part, s) ->
    let split = lookup "splitter" env.splitters name in
    let s = slot ~arity s in
    fun arr ->
      (match split (tok_sval arr.(s)) with
       | Some (first, second) ->
         Instance.S_str (match part with `First -> first | `Second -> second)
       | None -> Instance.S_none)
  | B_ops e ->
    let f = c_ops ~arity e in
    fun arr -> Instance.S_ops (f arr)
  | B_domain d ->
    let f = c_dom ~arity d in
    fun arr -> Instance.S_domain (f arr)
  | B_cond (ops, attr, dom) ->
    let ops = Option.map (c_ops ~arity) ops in
    let attr = c_str ~arity attr in
    let dom = c_dom ~arity dom in
    fun arr ->
      let operators = Option.map (fun f -> f arr) ops in
      Instance.S_cond
        (Condition.make ?operators ~attribute:(attr arr) (dom arr))
  | B_lift s ->
    let s = slot ~arity s in
    fun arr -> lift_conditions arr.(s)
  | B_concat (a, b) ->
    let a = slot ~arity a and b = slot ~arity b in
    fun arr -> Instance.S_conds (conds_of arr.(a) @ conds_of arr.(b))

let compile_guard env ~arity p =
  match c_pred env ~arity p with
  | f -> Ok f
  | exception Err m -> Error m

let compile_build env ~arity b =
  match c_build env ~arity b with
  | f -> Ok f
  | exception Err m -> Error m

(* Hints are the guard's top-level positive relation conjuncts: each is
   implied by the guard by construction, which is exactly the soundness
   contract Production.make's hints carry. *)
let derived_hints p =
  let rec go acc = function
    | P_rel (rel, a, b) -> { Hint.a; b; rel } :: acc
    | P_and ps -> List.fold_left go acc ps
    | P_true | P_not _ | P_text_is _ | P_split_applies _ | P_ops_exists _
    | P_ops_forall _ | P_ops_count_ge _ | P_options_class _ | P_combo _ ->
      acc
  in
  List.rev (go [] p)

(* ------------------------------------------------------------------ *)
(* Preference kinds                                                    *)
(* ------------------------------------------------------------------ *)

let cover_size (i : Instance.t) = Bitset.cardinal i.Instance.cover

let unit_distance (i : Instance.t) =
  match i.children with
  | [ box_child; label ] -> Relation.h_gap box_child label
  | _ -> max_int

let attribute_of (i : Instance.t) =
  match i.sem with Instance.S_cond c -> c.Condition.attribute | _ -> ""

(* Association scoring: left-of is the strongest labelling convention, then
   above/below, then anything else; ties break toward the reading that
   explains more tokens, then the more compact one. *)
let assoc_score ~is_attr_sym (i : Instance.t) =
  match i.children with
  | a :: (first :: rest) when is_attr_sym a.Instance.sym ->
    let field_box =
      List.fold_left
        (fun acc (c : Instance.t) -> Geometry.union acc c.box)
        first.Instance.box rest
    in
    let gap = Geometry.h_gap a.box field_box in
    let vgap = Geometry.v_gap a.box field_box in
    if Geometry.left_of ~max_gap:10_000 a.box field_box then (0, gap)
    else (1000, vgap)
  | _ -> (3000, 0)

let assoc_wins ~is_attr_sym v1 v2 =
  let r1, g1 = assoc_score ~is_attr_sym v1
  and r2, g2 = assoc_score ~is_attr_sym v2 in
  if r1 <> r2 then r1 < r2
  else if g1 <> g2 then g1 < g2
  else
    let c1 = cover_size v1 and c2 = cover_size v2 in
    if c1 <> c2 then c1 > c2
    else
      Relation.width v1 * Relation.height v1
      < Relation.width v2 * Relation.height v2

let compile_pref_kind ~resolve_symbol ~splitters kind :
  (Instance.t -> Instance.t -> bool) option
  * (Instance.t -> Instance.t -> bool) option =
  match kind with
  | K_beats -> (None, None)
  | K_subsume ->
    ( Some (fun v1 v2 -> Instance.subsumes v1 v2),
      Some (fun v1 v2 -> cover_size v1 > cover_size v2) )
  | K_closest_unit ->
    (None, Some (fun v1 v2 -> unit_distance v1 < unit_distance v2))
  | K_clean_attr names ->
    let fs = List.map (lookup "splitter" splitters) names in
    let dirty label = List.exists (fun f -> Option.is_some (f label)) fs in
    ( None,
      Some
        (fun v1 v2 ->
           (not (dirty (attribute_of v1))) && dirty (attribute_of v2)) )
  | K_assoc names ->
    let syms = List.map resolve_symbol names in
    let is_attr_sym s = List.exists (Symbol.equal s) syms in
    (None, Some (assoc_wins ~is_attr_sym))

(* ------------------------------------------------------------------ *)
(* Whole-grammar instantiation                                         *)
(* ------------------------------------------------------------------ *)

let instantiate env (g : grammar) =
  let errors = ref [] in
  let fail fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  let heads =
    List.fold_left
      (fun acc p ->
         if List.mem p.p_head acc then acc else p.p_head :: acc)
      [] g.g_productions
    |> List.rev
  in
  let resolve ~ctx name =
    if List.mem name g.g_terminals then Symbol.terminal name
    else if List.mem name heads then Symbol.nonterminal name
    else err "%s: unknown symbol %S" ctx name
  in
  let productions =
    List.filter_map
      (fun p ->
         let ctx = Printf.sprintf "production %s" p.p_name in
         match
           let head =
             if List.mem p.p_head g.g_terminals then
               err "%s: head %S is a terminal" ctx p.p_head
             else Symbol.nonterminal p.p_head
           in
           let components =
             List.map (resolve ~ctx) p.p_components
           in
           let arity = List.length components in
           let guard = c_pred env ~arity p.p_guard in
           let build = c_build env ~arity p.p_build in
           let hints = derived_hints p.p_guard in
           Production.make ~name:p.p_name ~head ~components ~guard ~build
             ~hints ()
         with
         | prod -> Some prod
         | exception Err m ->
           fail "%s" m;
           None
         | exception Invalid_argument m ->
           fail "%s: %s" ctx m;
           None)
      g.g_productions
  in
  let resolve_symbol_total ~ctx name =
    (* For preference sides and K_assoc parameters. *)
    resolve ~ctx name
  in
  let preferences =
    List.filter_map
      (fun r ->
         let ctx = Printf.sprintf "preference %s" r.r_name in
         match
           let winner = resolve_symbol_total ~ctx r.r_winner in
           let loser = resolve_symbol_total ~ctx r.r_loser in
           let conflict, wins =
             compile_pref_kind
               ~resolve_symbol:(resolve_symbol_total ~ctx)
               ~splitters:env.splitters r.r_kind
           in
           Preference.make ~name:r.r_name ~winner ~loser ?conflict ?wins ()
         with
         | pref -> Some pref
         | exception Err m ->
           fail "%s" m;
           None)
      g.g_preferences
  in
  let start =
    if List.mem g.g_start heads then Some (Symbol.nonterminal g.g_start)
    else begin
      fail "start symbol %S is not the head of any production" g.g_start;
      None
    end
  in
  match (!errors, start) with
  | [], Some start ->
    let grammar =
      Grammar.make
        ~terminals:(List.map Symbol.terminal g.g_terminals)
        ~start ~productions ~preferences ()
    in
    (match Grammar.validate grammar with
     | Ok () -> Ok grammar
     | Error msgs -> Error msgs)
  | errs, _ -> Error (List.rev errs)

(* ------------------------------------------------------------------ *)
(* Printing (diagnostics)                                              *)
(* ------------------------------------------------------------------ *)

let rec pp_pred ppf = function
  | P_true -> Fmt.string ppf "true"
  | P_and ps -> Fmt.pf ppf "(and %a)" (Fmt.list ~sep:Fmt.sp pp_pred) ps
  | P_not p -> Fmt.pf ppf "(not %a)" pp_pred p
  | P_rel (rel, a, b) -> Fmt.pf ppf "(%a %d %d)" Hint.pp_rel rel a b
  | P_text_is (n, src, s) ->
    Fmt.pf ppf "(text-class %s %s %d)" n
      (match src with Token_text -> "token" | Sem_str -> "sem")
      s
  | P_split_applies (n, s) -> Fmt.pf ppf "(splits %s %d)" n s
  | P_ops_exists (n, s) -> Fmt.pf ppf "(ops-exist %s %d)" n s
  | P_ops_forall (n, s) -> Fmt.pf ppf "(ops-all %s %d)" n s
  | P_ops_count_ge (n, s) -> Fmt.pf ppf "(ops-count>= %d %d)" n s
  | P_options_class (n, s) -> Fmt.pf ppf "(options-class %s %d)" n s
  | P_combo (n, slots) ->
    Fmt.pf ppf "(combo %s %a)" n Fmt.(list ~sep:sp int) slots
