module A = Algebra

type error = { file : string; pos : Sexp.pos; message : string }

let error_to_string e =
  Printf.sprintf "%s:%d:%d: %s" e.file e.pos.Sexp.line e.pos.Sexp.col
    e.message

exception E of Sexp.pos * string

let fail pos fmt = Format.kasprintf (fun m -> raise (E (pos, m))) fmt

(* ------------------------------------------------------------------ *)
(* Sexp accessors                                                      *)
(* ------------------------------------------------------------------ *)

let as_atom = function
  | Sexp.Atom (p, s) -> (p, s)
  | Sexp.List (p, _) -> fail p "expected an atom, got a list"

let as_int sexp =
  let p, s = as_atom sexp in
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail p "expected an integer, got %S" s

let nargs pos kw want args =
  if List.length args <> want then
    fail pos "%s expects %d argument%s, got %d" kw want
      (if want = 1 then "" else "s")
      (List.length args)

(* Find the [(name ...)] clause among a form's items. *)
let clause name items =
  let hits =
    List.filter_map
      (fun s ->
         match s with
         | Sexp.List (p, Sexp.Atom (_, kw) :: args) when kw = name ->
           Some (p, args)
         | _ -> None)
      items
  in
  match hits with
  | [] -> None
  | [ hit ] -> Some hit
  | _ :: (p, _) :: _ -> fail p "duplicate (%s ...) clause" name

let required_clause pos name items =
  match clause name items with
  | Some hit -> hit
  | None -> fail pos "missing (%s ...) clause" name

(* ------------------------------------------------------------------ *)
(* Name and slot resolution                                            *)
(* ------------------------------------------------------------------ *)

let check_name kind table sexp =
  let p, s = as_atom sexp in
  if List.exists (fun (k, _) -> String.equal k s) table then s
  else fail p "unknown %s %S" kind s

let parse_slot ~arity sexp =
  let n = as_int sexp in
  if n < 0 || n >= arity then
    fail (Sexp.pos sexp) "slot %d out of range (production has %d component%s)"
      n arity
      (if arity = 1 then "" else "s")
  else n

let parse_slot_pair ~arity pos kw a b =
  let a = parse_slot ~arity a and b = parse_slot ~arity b in
  if a = b then fail pos "%s relates slot %d to itself" kw a;
  (a, b)

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)
(* ------------------------------------------------------------------ *)

let parse_text_src sexp =
  match as_atom sexp with
  | _, "token" -> A.Token_text
  | _, "sem" -> A.Sem_str
  | p, s -> fail p "expected 'token' or 'sem', got %S" s

(* Relation keywords: those taking a gap or tolerance before their
   slots, and those taking none. *)
let param_relation = function
  | "left-of" -> Some ("gap", fun g -> Hint.Left_of g)
  | "above" -> Some ("gap", fun g -> Hint.Above g)
  | "below" -> Some ("gap", fun g -> Hint.Below g)
  | "left-aligned" -> Some ("tolerance", fun t -> Hint.Left_aligned t)
  | "top-aligned" -> Some ("tolerance", fun t -> Hint.Top_aligned t)
  | "bottom-aligned" -> Some ("tolerance", fun t -> Hint.Bottom_aligned t)
  | _ -> None

let bare_relation = function
  | "same-row" -> Some Hint.Same_row
  | "same-column" -> Some Hint.Same_column
  | "adjacent-left" -> Some Hint.Adjacent_left
  | "adjacent-above" -> Some Hint.Adjacent_above
  | _ -> None

let rec parse_pred (env : A.env) ~head ~components sexp =
  let arity = List.length components in
  match sexp with
  | Sexp.Atom (_, "true") -> A.P_true
  | Sexp.Atom (p, s) -> fail p "malformed predicate: unexpected atom %S" s
  | Sexp.List (p, Sexp.Atom (_, kw) :: args) ->
    (match kw, param_relation kw, bare_relation kw with
     | "and", _, _ -> A.P_and (List.map (parse_pred env ~head ~components) args)
     | "not", _, _ ->
       nargs p kw 1 args;
       A.P_not (parse_pred env ~head ~components (List.hd args))
     | _, Some (what, mk), _ ->
       (match args with
        | [ n; a; b ] ->
          let n = as_int n in
          let a, b = parse_slot_pair ~arity p kw a b in
          A.P_rel (mk n, a, b)
        | _ -> fail p "%s expects a %s and two slots" kw what)
     | _, None, Some rel ->
       (match args with
        | [ a; b ] ->
          let a, b = parse_slot_pair ~arity p kw a b in
          A.P_rel (rel, a, b)
        | _ -> fail p "%s expects two slots" kw)
     | "none", _, _ ->
       let usage () = fail p "none expects a relation, a symbol and a slot" in
       let rel, rest =
         match args with
         | [] -> usage ()
         | r :: rest ->
           let rp, rkw = as_atom r in
           (match (param_relation rkw, bare_relation rkw, rest) with
            | Some (_, mk), _, n :: rest -> (mk (as_int n), rest)
            | None, Some rel, rest -> (rel, rest)
            | Some _, _, [] -> usage ()
            | None, None, _ -> fail rp "unknown relation %S" rkw)
       in
       (match rest with
        | [ sym; s ] ->
          let sp, name = as_atom sym in
          if not (List.exists (String.equal name) components) then
            fail sp "none: %S is not a component of the production" name;
          if name = head then
            fail sp "none: %S is the production's own head" name;
          A.P_none (rel, name, parse_slot ~arity s)
        | _ -> usage ())
     | "text-class", _, _ ->
       nargs p kw 3 args;
       (match args with
        | [ name; src; s ] ->
          A.P_text_is
            ( check_name "text class" env.A.text_classes name,
              parse_text_src src,
              parse_slot ~arity s )
        | _ -> assert false)
     | "splits", _, _ ->
       nargs p kw 2 args;
       (match args with
        | [ name; s ] ->
          A.P_split_applies
            ( check_name "splitter" env.A.splitters name,
              parse_slot ~arity s )
        | _ -> assert false)
     | ("ops-exist" | "ops-all"), _, _ ->
       nargs p kw 2 args;
       (match args with
        | [ name; s ] ->
          let name = check_name "text class" env.A.text_classes name in
          let s = parse_slot ~arity s in
          if kw = "ops-exist" then A.P_ops_exists (name, s)
          else A.P_ops_forall (name, s)
        | _ -> assert false)
     | "ops-count>=", _, _ ->
       nargs p kw 2 args;
       (match args with
        | [ n; s ] -> A.P_ops_count_ge (as_int n, parse_slot ~arity s)
        | _ -> assert false)
     | "options-class", _, _ ->
       nargs p kw 2 args;
       (match args with
        | [ name; s ] ->
          A.P_options_class
            ( check_name "options class" env.A.options_classes name,
              parse_slot ~arity s )
        | _ -> assert false)
     | "combo", _, _ ->
       (match args with
        | name :: (_ :: _ as slots) ->
          A.P_combo
            ( check_name "combo" env.A.combos name,
              List.map (parse_slot ~arity) slots )
        | _ -> fail p "combo expects a name and at least one slot")
     | _, None, None -> fail p "unknown predicate %S" kw)
  | Sexp.List (p, _) -> fail p "malformed predicate: expected (keyword ...)"

(* ------------------------------------------------------------------ *)
(* Builds                                                              *)
(* ------------------------------------------------------------------ *)

let parse_str ~arity sexp =
  match sexp with
  | Sexp.List (p, Sexp.Atom (_, kw) :: args) ->
    (match kw with
     | "lit" ->
       nargs p kw 1 args;
       A.S_lit (snd (as_atom (List.hd args)))
     | "token" ->
       nargs p kw 1 args;
       A.S_token_text (parse_slot ~arity (List.hd args))
     | "sem" ->
       nargs p kw 1 args;
       A.S_sem_str (parse_slot ~arity (List.hd args))
     | _ -> fail p "unknown string expression %S" kw)
  | s -> fail (Sexp.pos s) "expected (lit ...), (token N) or (sem N)"

let parse_ops ~arity sexp =
  match sexp with
  | Sexp.List (p, Sexp.Atom (_, kw) :: args) ->
    (match kw with
     | "options" ->
       nargs p kw 1 args;
       A.O_token_options (parse_slot ~arity (List.hd args))
     | "of" ->
       nargs p kw 1 args;
       A.O_sem_ops (parse_slot ~arity (List.hd args))
     | "singleton" ->
       nargs p kw 1 args;
       A.O_singleton (parse_slot ~arity (List.hd args))
     | "append" ->
       nargs p kw 2 args;
       (match args with
        | [ a; b ] -> A.O_append (parse_slot ~arity a, parse_slot ~arity b)
        | _ -> assert false)
     | "lit" -> A.O_lit (List.map (fun s -> snd (as_atom s)) args)
     | _ -> fail p "unknown operator expression %S" kw)
  | s ->
    fail (Sexp.pos s)
      "expected (options N), (of N), (singleton N), (append A B) or (lit ...)"

let rec parse_dom ~arity sexp =
  match sexp with
  | Sexp.Atom (_, "text") -> A.D_text
  | Sexp.Atom (_, "datetime") -> A.D_datetime
  | Sexp.Atom (p, s) -> fail p "unknown domain %S" s
  | Sexp.List (p, Sexp.Atom (_, kw) :: args) ->
    (match kw with
     | "enum" ->
       nargs p kw 1 args;
       A.D_enum (parse_ops ~arity (List.hd args))
     | "of" ->
       nargs p kw 1 args;
       A.D_of_slot (parse_slot ~arity (List.hd args))
     | "range" ->
       nargs p kw 1 args;
       A.D_range (parse_dom ~arity (List.hd args))
     | _ -> fail p "unknown domain %S" kw)
  | Sexp.List (p, _) -> fail p "malformed domain"

let parse_build (env : A.env) ~arity sexp =
  match sexp with
  | Sexp.Atom (_, "none") -> A.B_none
  | Sexp.List (p, Sexp.Atom (_, kw) :: args) ->
    (match kw with
     | "str" ->
       nargs p kw 1 args;
       A.B_str (parse_str ~arity (List.hd args))
     | "split-str" ->
       nargs p kw 3 args;
       (match args with
        | [ name; part; s ] ->
          let name = check_name "splitter" env.A.splitters name in
          let part =
            match as_atom part with
            | _, "first" -> `First
            | _, "second" -> `Second
            | pp, x -> fail pp "expected 'first' or 'second', got %S" x
          in
          A.B_split_str (name, part, parse_slot ~arity s)
        | _ -> assert false)
     | "ops" ->
       nargs p kw 1 args;
       A.B_ops (parse_ops ~arity (List.hd args))
     | "domain" ->
       nargs p kw 1 args;
       A.B_domain (parse_dom ~arity (List.hd args))
     | "cond" ->
       let operators =
         match clause "operators" args with
         | None -> None
         | Some (op, cargs) ->
           nargs op "operators" 1 cargs;
           Some (parse_ops ~arity (List.hd cargs))
       in
       let ap, aargs = required_clause p "attribute" args in
       nargs ap "attribute" 1 aargs;
       let dp, dargs = required_clause p "domain" args in
       nargs dp "domain" 1 dargs;
       A.B_cond
         ( operators,
           parse_str ~arity (List.hd aargs),
           parse_dom ~arity (List.hd dargs) )
     | "lift" ->
       nargs p kw 1 args;
       A.B_lift (parse_slot ~arity (List.hd args))
     | "concat" ->
       nargs p kw 2 args;
       (match args with
        | [ a; b ] -> A.B_concat (parse_slot ~arity a, parse_slot ~arity b)
        | _ -> assert false)
     | _ -> fail p "unknown build %S" kw)
  | s -> fail (Sexp.pos s) "malformed build"

(* ------------------------------------------------------------------ *)
(* Productions and preferences                                         *)
(* ------------------------------------------------------------------ *)

module Names = Symtab.Names

(* The symbol table: every declared terminal and every production head,
   by name.  Heads are numbered densely in the order their productions
   appear, for the cycle check. *)
type entry = { mutable terminal : bool; mutable head : int (* -1: none *) }

type symtab = { names : entry Names.t; mutable heads : int }

let entry tab name =
  match Names.find_opt tab.names name with
  | Some e -> e
  | None ->
    let e = { terminal = false; head = -1 } in
    Names.add tab.names name e;
    e

let head_id tab name =
  match Names.find_opt tab.names name with Some e -> e.head | None -> -1

let check_symbol tab sexp =
  let p, s = as_atom sexp in
  if Names.mem tab.names s then s else fail p "unknown symbol %S" s

let parse_production env tab form =
  match form with
  | Sexp.List (p, Sexp.Atom (_, "production") :: name :: items) ->
    let _, p_name = as_atom name in
    let hp, hargs = required_clause p "head" items in
    nargs hp "head" 1 hargs;
    let hpos, p_head = as_atom (List.hd hargs) in
    (match Names.find_opt tab.names p_head with
     | Some { terminal = true; _ } -> fail hpos "head %S is a terminal" p_head
     | Some _ | None -> ());
    let cp, cargs = required_clause p "components" items in
    if cargs = [] then fail cp "production needs at least one component";
    let p_components = List.map (check_symbol tab) cargs in
    let arity = List.length p_components in
    let p_guard =
      match clause "guard" items with
      | None -> A.P_true
      | Some (gp, gargs) ->
        nargs gp "guard" 1 gargs;
        parse_pred env ~head:p_head ~components:p_components
          (List.hd gargs)
    in
    let p_build =
      match clause "build" items with
      | None -> A.B_none
      | Some (bp, bargs) ->
        nargs bp "build" 1 bargs;
        parse_build env ~arity (List.hd bargs)
    in
    { A.p_name; p_head; p_components; p_guard; p_build }
  | Sexp.List (p, _) -> fail p "malformed (production NAME ...) form"
  | Sexp.Atom (p, _) -> fail p "expected a (production ...) form"

let pref_kinds = [ "beats"; "subsume"; "closest-unit"; "clean-attr"; "assoc" ]

let parse_preference (env : A.env) tab form =
  match form with
  | Sexp.List (p, Sexp.Atom (_, "preference") :: name :: items) ->
    let _, r_name = as_atom name in
    let wp, wargs = required_clause p "winner" items in
    nargs wp "winner" 1 wargs;
    let r_winner = check_symbol tab (List.hd wargs) in
    let lp, largs = required_clause p "loser" items in
    nargs lp "loser" 1 largs;
    let r_loser = check_symbol tab (List.hd largs) in
    let kinds =
      List.filter_map
        (fun s ->
           match s with
           | Sexp.List (kp, Sexp.Atom (_, kw) :: args)
             when List.exists (String.equal kw) pref_kinds ->
             Some (kp, kw, args)
           | _ -> None)
        items
    in
    let r_kind =
      match kinds with
      | [] ->
        fail p "missing winning-criterion form (one of %s)"
          (String.concat ", " pref_kinds)
      | _ :: (kp, _, _) :: _ -> fail kp "more than one winning-criterion form"
      | [ (kp, kw, args) ] ->
        (match kw with
         | "beats" ->
           nargs kp kw 0 args;
           A.K_beats
         | "subsume" ->
           nargs kp kw 0 args;
           A.K_subsume
         | "closest-unit" ->
           nargs kp kw 0 args;
           A.K_closest_unit
         | "clean-attr" ->
           if args = [] then fail kp "clean-attr needs at least one splitter";
           A.K_clean_attr
             (List.map (check_name "splitter" env.A.splitters) args)
         | "assoc" ->
           if args = [] then fail kp "assoc needs at least one symbol";
           A.K_assoc (List.map (check_symbol tab) args)
         | _ -> assert false)
    in
    { A.r_name; r_winner; r_loser; r_kind }
  | Sexp.List (p, _) -> fail p "malformed (preference NAME ...) form"
  | Sexp.Atom (p, _) -> fail p "expected a (preference ...) form"

(* ------------------------------------------------------------------ *)
(* Header and whole-file parsing                                       *)
(* ------------------------------------------------------------------ *)

let parse_header form =
  match form with
  | Sexp.List (p, Sexp.Atom (_, "wqi-grammar") :: items) ->
    let fp, fargs = required_clause p "format" items in
    nargs fp "format" 1 fargs;
    let fmt = as_int (List.hd fargs) in
    if fmt <> 1 then
      fail (Sexp.pos (List.hd fargs)) "unsupported grammar format %d" fmt;
    let np, nargs_ = required_clause p "name" items in
    nargs np "name" 1 nargs_;
    let name = snd (as_atom (List.hd nargs_)) in
    let vp, vargs = required_clause p "version" items in
    nargs vp "version" 1 vargs;
    let version = snd (as_atom (List.hd vargs)) in
    let tp, targs = required_clause p "terminals" items in
    if targs = [] then fail tp "at least one terminal is required";
    let terminals = List.map (fun s -> snd (as_atom s)) targs in
    let sp, sargs = required_clause p "start" items in
    nargs sp "start" 1 sargs;
    let start_pos, start = as_atom (List.hd sargs) in
    (name, version, terminals, (start_pos, start))
  | f -> fail (Sexp.pos f) "expected a (wqi-grammar ...) header form"

(* First pass: the symbol table (declared terminals plus every
   production head) so forward references check cleanly in one further
   pass. *)
let symtab terminals forms =
  let tab = { names = Names.create 64; heads = 0 } in
  List.iter (fun t -> (entry tab t).terminal <- true) terminals;
  List.iter
    (fun form ->
       match form with
       | Sexp.List (_, Sexp.Atom (_, "production") :: _ :: items) ->
         (match clause "head" items with
          | Some (_, [ Sexp.Atom (_, h) ]) ->
            let e = entry tab h in
            if e.head < 0 then begin
              e.head <- tab.heads;
              tab.heads <- tab.heads + 1
            end
          | _ -> ()
          | exception E _ -> ())
       | _ -> ())
    forms;
  tab

(* Cycle check over the d-edge graph (head -> distinct nonterminal
   component), attributed to the production that introduces the closing
   edge.  Self-recursion is the fix-point engine's normal diet and is
   allowed, matching Grammar.validate.  The search starts from each head
   in order of first appearance and follows a head's edges in
   production and component order. *)
let check_acyclic tab prods_with_pos =
  let n = tab.heads in
  let names = Array.make n "" in
  Names.iter (fun name e -> if e.head >= 0 then names.(e.head) <- name) tab.names;
  let edges = Array.make n [] in
  List.iter
    (fun ((p : A.production), pos) ->
       let src = head_id tab p.A.p_head in
       List.iter
         (fun c ->
            let dst = head_id tab c in
            if dst >= 0 && dst <> src then
              edges.(src) <- (dst, pos, p.A.p_name) :: edges.(src))
         p.A.p_components)
    prods_with_pos;
  let edges = Array.map List.rev edges in
  (* 0 unvisited, 1 on the search path, 2 done *)
  let color = Array.make n 0 in
  let rec dfs stack i =
    color.(i) <- 1;
    List.iter
      (fun (dst, pos, pname) ->
         match color.(dst) with
         | 1 ->
           let chain = List.rev (i :: stack) in
           let rec from_dst = function
             | [] -> []
             | x :: rest -> if x = dst then x :: rest else from_dst rest
           in
           fail pos "production %s: cyclic productions: %s" pname
             (String.concat " -> "
                (List.map (fun k -> names.(k)) (from_dst chain @ [ dst ])))
         | 2 -> ()
         | _ -> dfs (i :: stack) dst)
      edges.(i);
    color.(i) <- 2
  in
  for i = 0 to n - 1 do
    if color.(i) = 0 then dfs [] i
  done

let parse ~env ?(file = "<string>") text =
  try
    let forms = Sexp.parse_string text in
    match forms with
    | [] -> Error { file; pos = { Sexp.line = 1; col = 1 };
                    message = "empty grammar file" }
    | header :: rest ->
      let g_name, g_version, g_terminals, (start_pos, g_start) =
        parse_header header
      in
      let tab = symtab g_terminals rest in
      let seen = Names.create 64 in
      let productions = ref [] and preferences = ref [] in
      List.iter
        (fun form ->
           match form with
           | Sexp.List (_, Sexp.Atom (np, "production") :: _) ->
             let p = parse_production env tab form in
             if Names.mem seen p.A.p_name then
               fail np "duplicate production name %S" p.A.p_name;
             Names.add seen p.A.p_name ();
             productions := (p, np) :: !productions
           | Sexp.List (_, Sexp.Atom (_, "preference") :: _) ->
             preferences := parse_preference env tab form :: !preferences
           | f ->
             fail (Sexp.pos f)
               "expected a (production ...) or (preference ...) form")
        rest;
      let productions = List.rev !productions in
      if head_id tab g_start < 0 then
        fail start_pos "start symbol %S is not the head of any production"
          g_start;
      check_acyclic tab productions;
      Ok
        { A.g_name; g_version; g_terminals; g_start;
          g_productions = List.map fst productions;
          g_preferences = List.rev !preferences }
  with
  | E (pos, message) -> Error { file; pos; message }
  | Sexp.Parse_error (pos, message) -> Error { file; pos; message }

let load ~env path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> parse ~env ~file:path text
  | exception Sys_error m ->
    Error { file = path; pos = { Sexp.line = 0; col = 0 }; message = m }

(* ------------------------------------------------------------------ *)
(* Canonical printing                                                  *)
(* ------------------------------------------------------------------ *)

let atom = Sexp.atom
let slist = Sexp.list
let int n = atom (string_of_int n)

(* A relation's keyword and parameter: the head of its form, before
   the slots (or, under [none], the symbol and slot). *)
let rel_words rel =
  match rel with
  | Hint.Left_of g -> [ atom "left-of"; int g ]
  | Hint.Above g -> [ atom "above"; int g ]
  | Hint.Below g -> [ atom "below"; int g ]
  | Hint.Left_aligned t -> [ atom "left-aligned"; int t ]
  | Hint.Top_aligned t -> [ atom "top-aligned"; int t ]
  | Hint.Bottom_aligned t -> [ atom "bottom-aligned"; int t ]
  | Hint.Same_row -> [ atom "same-row" ]
  | Hint.Same_column -> [ atom "same-column" ]
  | Hint.Adjacent_left -> [ atom "adjacent-left" ]
  | Hint.Adjacent_above -> [ atom "adjacent-above" ]

let rel_form rel a b = slist (rel_words rel @ [ int a; int b ])

let rec pred_form = function
  | A.P_true -> atom "true"
  | A.P_and ps -> slist (atom "and" :: List.map pred_form ps)
  | A.P_not p -> slist [ atom "not"; pred_form p ]
  | A.P_rel (rel, a, b) -> rel_form rel a b
  | A.P_none (rel, n, s) ->
    slist ((atom "none" :: rel_words rel) @ [ atom n; int s ])
  | A.P_text_is (n, src, s) ->
    slist
      [ atom "text-class"; atom n;
        atom (match src with A.Token_text -> "token" | A.Sem_str -> "sem");
        int s ]
  | A.P_split_applies (n, s) -> slist [ atom "splits"; atom n; int s ]
  | A.P_ops_exists (n, s) -> slist [ atom "ops-exist"; atom n; int s ]
  | A.P_ops_forall (n, s) -> slist [ atom "ops-all"; atom n; int s ]
  | A.P_ops_count_ge (n, s) -> slist [ atom "ops-count>="; int n; int s ]
  | A.P_options_class (n, s) -> slist [ atom "options-class"; atom n; int s ]
  | A.P_combo (n, slots) ->
    slist (atom "combo" :: atom n :: List.map int slots)

let str_form = function
  | A.S_lit s -> slist [ atom "lit"; atom s ]
  | A.S_token_text s -> slist [ atom "token"; int s ]
  | A.S_sem_str s -> slist [ atom "sem"; int s ]

let ops_form = function
  | A.O_token_options s -> slist [ atom "options"; int s ]
  | A.O_sem_ops s -> slist [ atom "of"; int s ]
  | A.O_singleton s -> slist [ atom "singleton"; int s ]
  | A.O_append (a, b) -> slist [ atom "append"; int a; int b ]
  | A.O_lit l -> slist (atom "lit" :: List.map atom l)

let rec dom_form = function
  | A.D_text -> atom "text"
  | A.D_datetime -> atom "datetime"
  | A.D_enum e -> slist [ atom "enum"; ops_form e ]
  | A.D_of_slot s -> slist [ atom "of"; int s ]
  | A.D_range d -> slist [ atom "range"; dom_form d ]

let build_form = function
  | A.B_none -> atom "none"
  | A.B_str e -> slist [ atom "str"; str_form e ]
  | A.B_split_str (n, part, s) ->
    slist
      [ atom "split-str"; atom n;
        atom (match part with `First -> "first" | `Second -> "second");
        int s ]
  | A.B_ops e -> slist [ atom "ops"; ops_form e ]
  | A.B_domain d -> slist [ atom "domain"; dom_form d ]
  | A.B_cond (ops, attr, dom) ->
    slist
      (atom "cond"
       :: (match ops with
           | None -> []
           | Some e -> [ slist [ atom "operators"; ops_form e ] ])
       @ [ slist [ atom "attribute"; str_form attr ];
           slist [ atom "domain"; dom_form dom ] ])
  | A.B_lift s -> slist [ atom "lift"; int s ]
  | A.B_concat (a, b) -> slist [ atom "concat"; int a; int b ]

let kind_form = function
  | A.K_beats -> slist [ atom "beats" ]
  | A.K_subsume -> slist [ atom "subsume" ]
  | A.K_closest_unit -> slist [ atom "closest-unit" ]
  | A.K_clean_attr names ->
    slist (atom "clean-attr" :: List.map atom names)
  | A.K_assoc names -> slist (atom "assoc" :: List.map atom names)

let production_form (p : A.production) =
  slist
    (atom "production" :: atom p.p_name
     :: slist [ atom "head"; atom p.p_head ]
     :: slist (atom "components" :: List.map atom p.p_components)
     :: ((match p.p_guard with
          | A.P_true -> []
          | g -> [ slist [ atom "guard"; pred_form g ] ])
         @
         match p.p_build with
         | A.B_none -> []
         | b -> [ slist [ atom "build"; build_form b ] ]))

let preference_form (r : A.preference) =
  slist
    [ atom "preference"; atom r.r_name;
      slist [ atom "winner"; atom r.r_winner ];
      slist [ atom "loser"; atom r.r_loser ];
      kind_form r.r_kind ]

let header_form (g : A.grammar) =
  slist
    [ atom "wqi-grammar";
      slist [ atom "format"; int 1 ];
      slist [ atom "name"; atom g.g_name ];
      slist [ atom "version"; atom g.g_version ];
      slist (atom "terminals" :: List.map atom g.g_terminals);
      slist [ atom "start"; atom g.g_start ] ]

let dump (g : A.grammar) =
  let buf = Buffer.create 8192 in
  let form f =
    Sexp.to_buf buf f;
    Buffer.add_char buf '\n'
  in
  form (header_form g);
  List.iter (fun p -> form (production_form p)) g.g_productions;
  List.iter (fun r -> form (preference_form r)) g.g_preferences;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Convenience                                                         *)
(* ------------------------------------------------------------------ *)

let load_grammar ~env path =
  match load ~env path with
  | Error e -> Error (error_to_string e)
  | Ok decl ->
    (match Algebra.instantiate env decl with
     | Ok g -> Ok (decl, g)
     | Error msgs ->
       Error
         (Printf.sprintf "%s: %s" path (String.concat "; " msgs)))
