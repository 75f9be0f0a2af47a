type t = {
  terminals : Symbol.t list;
  start : Symbol.t;
  productions : Production.t list;
  preferences : Preference.t list;
  symtab : Symtab.t;
  errors : string list;
}

module Names = Symtab.Names

(* Validation on the interned table.  Errors come in a fixed order: the
   start symbol, then each production (name, head, components), then the
   first d-edge cycle found by a depth-first search from each head in
   production order, children in symbol order, ignoring self-loops. *)
let check (tab : Symtab.t) (productions : Production.t list) =
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  let sym i = tab.syms.(i) in
  let terminal = Symtab.is_terminal tab in
  if terminal tab.start then
    err "start symbol %a is a terminal" Symbol.pp (sym tab.start)
  else if not tab.is_head.(tab.start) then
    err "start symbol %a has no production" Symbol.pp (sym tab.start);
  let names = Names.create 64 in
  List.iteri
    (fun k (p : Production.t) ->
       if Names.mem names p.name then
         err "duplicate production name %s" p.name
       else Names.add names p.name ();
       if terminal tab.heads.(k) then
         err "%s: terminal head %a" p.name Symbol.pp p.head;
       Array.iter
         (fun c ->
            if terminal c then begin
              if not tab.declared.(c) then
                err "%s: undeclared terminal %a" p.name Symbol.pp (sym c)
            end
            else if not tab.is_head.(c) then
              err "%s: component %a has no production" p.name Symbol.pp
                (sym c))
         tab.components.(k))
    productions;
  (* 0 unvisited, 1 on the DFS stack, 2 done *)
  let color = Array.make (Array.length tab.syms) 0 in
  let exception Cycle of int in
  let rec visit i =
    match color.(i) with
    | 2 -> ()
    | 1 -> raise (Cycle i)
    | _ ->
      color.(i) <- 1;
      Array.iter visit tab.children.(i);
      color.(i) <- 2
  in
  (match Array.iter visit tab.heads with
   | () -> ()
   | exception Cycle i ->
     err "d-edge cycle through %a (mutual recursion between distinct \
          symbols is not schedulable)"
       Symbol.pp (sym i));
  List.rev !errors

let make ~terminals ~start ~productions ?(preferences = []) () =
  let symtab = Symtab.make ~terminals ~start ~productions ~preferences in
  { terminals; start; productions; preferences; symtab;
    errors = check symtab productions }

let nonterminals g =
  let seen = ref Symbol.Set.empty in
  let out = ref [] in
  let note sym =
    if (not (Symbol.is_terminal sym)) && not (Symbol.Set.mem sym !seen)
    then begin
      seen := Symbol.Set.add sym !seen;
      out := sym :: !out
    end
  in
  List.iter
    (fun (p : Production.t) ->
       note p.head;
       List.iter note p.components)
    g.productions;
  List.rev !out

let productions_with_head g sym =
  List.filter (fun (p : Production.t) -> Symbol.equal p.head sym) g.productions

let parents_of g sym =
  match Symtab.id g.symtab sym with
  | i -> List.map (fun j -> g.symtab.syms.(j)) (Array.to_list g.symtab.parents.(i))
  | exception Not_found -> []

let extend g ?(productions = []) ?(preferences = []) () =
  make ~terminals:g.terminals ~start:g.start
    ~productions:(g.productions @ productions)
    ~preferences:(g.preferences @ preferences) ()

let validate g = match g.errors with [] -> Ok () | errs -> Error errs

let pp ppf g =
  Fmt.pf ppf "@[<v>terminals: %a@,start: %a@,@,productions:@,%a@,@,preferences:@,%a@]"
    Fmt.(list ~sep:(any " ") Symbol.pp)
    g.terminals Symbol.pp g.start
    Fmt.(list ~sep:cut (fun ppf p -> pf ppf "  %a" Production.pp p))
    g.productions
    Fmt.(list ~sep:cut (fun ppf r -> pf ppf "  %a" Preference.pp r))
    g.preferences

let stats g =
  ( List.length g.terminals,
    List.length (nonterminals g),
    List.length g.productions,
    List.length g.preferences )
