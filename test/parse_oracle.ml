(* The reference parser: a direct transcription of 2PParser (paper
   Figure 11) over the public grammar API, kept as the oracle the
   equivalence suite holds [Wqi_parser.Engine] to.  Every fix-point
   round re-enumerates the full cross product of live instances and
   discards repeats against a dedup table; preferences are enforced by
   the plain creation-order pair scan.  It shares no code with the
   engine (no dispatch tables, no arena, no hints): only the engine's
   option and result types, so the two can be compared field by field
   (all but the guard and index counters, which measure the engine's
   own enumeration work).

   The observable contract it reproduces: instance ids in creation
   order; one gauge charge per created instance (token instances
   included) and one per fix-point round; [max_instances] checked
   before every derived instance; late pruning without scheduling; and
   the tripped-tops window in maximal-tree selection. *)

module G = Wqi_grammar
module Instance = G.Instance
module Symbol = G.Symbol
module Bitset = G.Bitset
module Budget = Wqi_budget.Budget
module Engine = Wqi_parser.Engine

exception Truncated

type state = {
  store : (Symbol.t, Instance.t list ref) Hashtbl.t;  (* newest first *)
  dedup : (string * int list, unit) Hashtbl.t;
  universe : int;
  options : Engine.options;
  gauge : Budget.gauge option;
  mutable all : Instance.t list;  (* every instance, newest first *)
  mutable created : int;
  mutable pruned : int;
  mutable rolled_back : int;
}

let charge st =
  match st.gauge with
  | Some g when not (Budget.instance g) -> raise Truncated
  | _ -> ()

let add st (inst : Instance.t) =
  let cell =
    match Hashtbl.find_opt st.store inst.sym with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.replace st.store inst.sym cell;
      cell
  in
  cell := inst :: !cell;
  st.all <- inst :: st.all;
  st.created <- st.created + 1

(* Live instances of a symbol, oldest first. *)
let live st sym =
  match Hashtbl.find_opt st.store sym with
  | None -> []
  | Some cell -> List.rev (List.filter (fun (i : Instance.t) -> i.alive) !cell)

(* One production over the live instances at the start of the
   application; true when it created something. *)
let apply st (p : G.Production.t) =
  let candidates =
    Array.of_list (List.map (fun s -> Array.of_list (live st s)) p.components)
  in
  let arity = Array.length candidates in
  let chosen = Array.make arity None in
  let added = ref false in
  let rec assign i cover =
    if i = arity then begin
      let row = Array.map Option.get chosen in
      if p.guard row then begin
        let children = Array.to_list row in
        let key = (p.name, List.map (fun (c : Instance.t) -> c.id) children) in
        if not (Hashtbl.mem st.dedup key) then begin
          Hashtbl.replace st.dedup key ();
          if st.created >= st.options.Engine.max_instances then raise Truncated;
          charge st;
          add st
            (Instance.make ~id:st.created ~sym:p.head ~prod:p.name ~children
               ~sem:(p.build row));
          added := true
        end
      end
    end
    else
      Array.iter
        (fun (c : Instance.t) ->
           if c.alive && Bitset.disjoint cover c.cover then begin
             chosen.(i) <- Some c;
             assign (i + 1) (Bitset.union cover c.cover)
           end)
        candidates.(i)
  in
  if not (Array.exists (fun c -> Array.length c = 0) candidates) then
    assign 0 (Bitset.empty st.universe);
  !added

(* Procedure [instantiate]: rounds over the symbol's productions until
   none fires. *)
let instantiate st (g : G.Grammar.t) sym =
  let prods = G.Grammar.productions_with_head g sym in
  let rec loop () =
    (match st.gauge with
     | Some gauge when not (Budget.round gauge) -> raise Truncated
     | _ -> ());
    if List.fold_left (fun acc p -> apply st p || acc) false prods then loop ()
  in
  loop ()

(* Procedure [enforce]: losers in creation order, each meeting the
   winners in creation order; a kill rolls back the loser's ancestors. *)
let enforce st (r : G.Preference.t) =
  let winners = live st r.winner in
  List.iter
    (fun (v2 : Instance.t) ->
       List.iter
         (fun (v1 : Instance.t) ->
            if v1.alive && v2.alive && v1.id <> v2.id
               && Instance.conflicts v1 v2 && r.conflict v1 v2 && r.wins v1 v2
               && not (Instance.is_descendant v2 ~of_:v1)
            then begin
              let killed = Instance.rollback v2 in
              st.pruned <- st.pruned + 1;
              st.rolled_back <- st.rolled_back + (killed - 1)
            end)
         winners)
    (live st r.loser)

let involving (g : G.Grammar.t) sym =
  List.filter
    (fun (r : G.Preference.t) ->
       Symbol.equal r.winner sym || Symbol.equal r.loser sym)
    g.preferences

(* Live nonterminal tops with no live parent, biggest cover first, then
   most conditions, then oldest; a top inside a kept cover is dropped.
   A tripped governed parse ranks only its best [window] tops. *)
let maximal ~tripped all_live =
  let window = 1024 in
  let tops =
    List.filter
      (fun (i : Instance.t) ->
         (not (Symbol.is_terminal i.sym))
         && not (List.exists (fun (p : Instance.t) -> p.alive) i.parents))
      all_live
  in
  let key (i : Instance.t) =
    (- Bitset.cardinal i.cover, - Instance.count_conditions i, i.id)
  in
  let sorted =
    List.map (fun i -> (key i, i)) tops
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
    |> List.filteri (fun k _ -> (not tripped) || k < window)
  in
  List.rev
    (List.fold_left
       (fun kept (t : Instance.t) ->
          if List.exists (fun (k : Instance.t) -> Bitset.subset t.cover k.cover)
               kept
          then kept
          else t :: kept)
       [] sorted)

let reachable roots =
  let seen = Hashtbl.create 256 in
  let rec go (i : Instance.t) =
    if not (Hashtbl.mem seen i.id) then begin
      Hashtbl.replace seen i.id ();
      List.iter go i.children
    end
  in
  List.iter go roots;
  Hashtbl.length seen

let parse ?gauge ?(options = Engine.default_options) (g : G.Grammar.t) tokens =
  let universe = List.length tokens in
  let st =
    { store = Hashtbl.create 64; dedup = Hashtbl.create 1024; universe;
      options; gauge; all = []; created = 0; pruned = 0; rolled_back = 0 }
  in
  let truncated = ref false in
  let token_instances =
    let rec go acc = function
      | [] -> List.rev acc
      | tok :: rest ->
        (match charge st with
         | () ->
           let inst = Instance.of_token ~id:st.created ~universe tok in
           add st inst;
           go (inst :: acc) rest
         | exception Truncated ->
           truncated := true;
           List.rev acc)
    in
    go [] tokens
  in
  (try
     if not !truncated then
       if options.use_scheduling then begin
         let schedule = G.Schedule.build g in
         List.iter
           (fun sym ->
              instantiate st g sym;
              if options.use_preferences then
                List.iter (enforce st) (involving g sym))
           schedule.order;
         if options.use_preferences then
           List.iter (enforce st) schedule.relaxed
       end
       else begin
         let bare =
           G.Grammar.make ~terminals:g.terminals ~start:g.start
             ~productions:g.productions ()
         in
         List.iter (instantiate st g) (G.Schedule.build bare).order;
         if options.use_preferences then List.iter (enforce st) g.preferences
       end
   with Truncated -> truncated := true);
  let all_live =
    List.rev (List.filter (fun (i : Instance.t) -> i.alive) st.all)
  in
  let maximal =
    maximal ~tripped:(!truncated && Option.is_some gauge) all_live
  in
  let complete =
    List.find_opt
      (fun (i : Instance.t) ->
         Symbol.equal i.sym g.start && Bitset.cardinal i.cover = universe)
      all_live
  in
  { Engine.tokens;
    token_instances;
    all_live;
    maximal;
    complete;
    stats =
      { created = st.created;
        live = List.length all_live;
        pruned = st.pruned;
        rolled_back = st.rolled_back;
        temporary = st.created - reachable maximal;
        truncated = !truncated;
        (* guard and index counters measure the engine's enumeration
           work; the oracle has none to report *)
        guards_tried = 0;
        guards_admitted = 0;
        index_probes = 0;
        index_pruned = 0 } }
