module Condition = Wqi_model.Condition
module Geometry = Wqi_layout.Geometry

type sem =
  | S_none
  | S_str of string
  | S_ops of string list
  | S_domain of Condition.domain
  | S_cond of Condition.t
  | S_conds of Condition.t list

type t = {
  id : int;
  sym : Symbol.t;
  prod : string option;
  children : t list;
  cover : Bitset.t;
  box : Geometry.box;
  sem : sem;
  token : Wqi_token.Token.t option;
  mutable alive : bool;
  mutable parents : t list;
}

let of_token ~id ~universe (tok : Wqi_token.Token.t) =
  { id;
    sym = Symbol.of_token_kind tok.kind;
    prod = None;
    children = [];
    cover = Bitset.singleton universe tok.id;
    box = tok.box;
    sem = S_none;
    token = Some tok;
    alive = true;
    parents = [] }

(* A direct walk instead of [List.iter] over a closure capturing [inst]:
   instance creation is the parser's hottest allocation site. *)
let rec register_parent inst = function
  | [] -> ()
  | c :: rest ->
    c.parents <- inst :: c.parents;
    register_parent inst rest

let make ~id ~sym ~prod ~children ~sem =
  let cover =
    match children with
    | [] -> invalid_arg "Instance.make: no children"
    | [ c ] -> c.cover
    | first :: rest ->
      (* Accumulate in place over a private copy: one allocation for the
         whole union instead of one per child. *)
      List.fold_left
        (fun acc c -> Bitset.union_into ~into:acc c.cover)
        (Bitset.copy first.cover) rest
  in
  let box = Geometry.union_all (List.map (fun c -> c.box) children) in
  let inst =
    { id; sym; prod = Some prod; children; cover; box; sem; token = None;
      alive = true; parents = [] }
  in
  register_parent inst children;
  inst

(* Arena fast path: the parser already tracked the cover as a raw word
   and the box as running min/max coordinates while binding components,
   so recomputing both from the children would be pure waste.  The
   caller guarantees [cover] and [box] equal the unions [make] would
   have computed — everything else (parent registration included) is
   identical to [make]. *)
let prebuilt ~id ~sym ~prod ~children ~sem ~cover ~box =
  let inst =
    { id; sym; prod = Some prod; children; cover; box; sem; token = None;
      alive = true; parents = [] }
  in
  register_parent inst children;
  inst

let kill inst = inst.alive <- false

let rollback ?(on_kill = fun _ -> ()) inst =
  let killed = ref 0 in
  let rec go inst =
    if inst.alive then begin
      inst.alive <- false;
      incr killed;
      on_kill inst;
      List.iter go inst.parents
    end
  in
  go inst;
  !killed

let conflicts a b = not (Bitset.disjoint a.cover b.cover)

(* [id] occurs in (or strictly below) [children]; a top-level walk, so
   the test allocates nothing.  Ids grow with creation and children exist
   before their parents, so a subtree whose root id is below [id] cannot
   hold it and is skipped. *)
let rec occurs_below id = function
  | [] -> false
  | c :: rest ->
    c.id = id
    || (c.id > id && occurs_below id c.children)
    || occurs_below id rest

let is_descendant d ~of_ =
  (* Quick rejection: a descendant's cover is contained in the ancestor's. *)
  Bitset.subset d.cover of_.cover && occurs_below d.id of_.children

let subsumes a b = Bitset.subset b.cover a.cover

let conditions inst =
  match inst.sem with
  | S_cond c -> [ c ]
  | S_conds cs -> cs
  | S_none | S_str _ | S_ops _ | S_domain _ -> []

let tokens inst = Bitset.elements inst.cover

let collect_conditions inst =
  let out = ref [] in
  let rec go inst =
    match inst.sem with
    | S_cond c -> out := (c, tokens inst) :: !out
    | S_none | S_str _ | S_ops _ | S_domain _ | S_conds _ ->
      List.iter go inst.children
  in
  go inst;
  List.rev !out

let rec count_conditions inst =
  match inst.sem with
  | S_cond _ -> 1
  | S_none | S_str _ | S_ops _ | S_domain _ | S_conds _ ->
    List.fold_left (fun n c -> n + count_conditions c) 0 inst.children

let rec size inst = 1 + List.fold_left (fun acc c -> acc + size c) 0 inst.children

let pp ppf inst =
  Fmt.pf ppf "%a@%d %a |%d|" Symbol.pp inst.sym inst.id Geometry.pp inst.box
    (Bitset.cardinal inst.cover)

let pp_tree ppf inst =
  let rec go ppf inst =
    match inst.token with
    | Some tok ->
      Fmt.pf ppf "%a %S" Symbol.pp inst.sym
        (if tok.Wqi_token.Token.sval <> "" then tok.Wqi_token.Token.sval
         else tok.Wqi_token.Token.name)
    | None ->
      Fmt.pf ppf "@[<v 2>%a%a%a@]" Symbol.pp inst.sym
        (fun ppf sem ->
           match sem with
           | S_cond c -> Fmt.pf ppf "  = %a" Condition.pp c
           | S_str s -> Fmt.pf ppf "  %S" s
           | S_ops ops ->
             Fmt.pf ppf "  ops{%a}" Fmt.(list ~sep:(any ", ") string) ops
           | S_none | S_domain _ | S_conds _ -> ())
        inst.sem
        Fmt.(list ~sep:nop (fun ppf c -> pf ppf "@,%a" go c))
        inst.children
  in
  go ppf inst
