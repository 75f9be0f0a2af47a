(* The grammar load pipeline against its first definition.  Validation
   and the 2P schedule graph (Section 5.2) were first written over
   symbol sets, maps and polymorphic hash tables; those definitions are
   kept here verbatim as the reference.  Over random grammars, valid
   and not, the library must give the same validation errors, the same
   schedule (order, transformed and relaxed preferences), the same
   d-edge-only order and the same rejection of invalid grammars. *)

module G = Wqi_grammar
module Symbol = G.Symbol
module Grammar = G.Grammar
module Production = G.Production
module Preference = G.Preference
module Schedule = G.Schedule
module Engine = Wqi_parser.Engine
module Q = QCheck
module Gen = QCheck.Gen

(* ------------------------------------------------------------------ *)
(* Reference: validation                                              *)
(* ------------------------------------------------------------------ *)

let old_d_graph_cycle (g : Grammar.t) =
  let color : (Symbol.t, [ `Grey | `Black ]) Hashtbl.t = Hashtbl.create 64 in
  let children sym =
    List.concat_map
      (fun (p : Production.t) ->
         if Symbol.equal p.head sym then
           List.filter
             (fun c -> not (Symbol.equal c sym) && not (Symbol.is_terminal c))
             p.components
         else [])
      g.productions
    |> List.sort_uniq Symbol.compare
  in
  let exception Cycle of Symbol.t in
  let rec visit sym =
    match Hashtbl.find_opt color sym with
    | Some `Black -> ()
    | Some `Grey -> raise (Cycle sym)
    | None ->
      Hashtbl.replace color sym `Grey;
      List.iter visit (children sym);
      Hashtbl.replace color sym `Black
  in
  try
    List.iter (fun (p : Production.t) -> visit p.head) g.productions;
    None
  with Cycle sym -> Some sym

let old_validate (g : Grammar.t) =
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  let heads =
    List.fold_left
      (fun acc (p : Production.t) -> Symbol.Set.add p.head acc)
      Symbol.Set.empty g.productions
  in
  let terminal_set = Symbol.Set.of_list g.terminals in
  if Symbol.is_terminal g.start then
    err "start symbol %a is a terminal" Symbol.pp g.start
  else if not (Symbol.Set.mem g.start heads) then
    err "start symbol %a has no production" Symbol.pp g.start;
  let names = Hashtbl.create 64 in
  List.iter
    (fun (p : Production.t) ->
       if Hashtbl.mem names p.name then
         err "duplicate production name %s" p.name;
       Hashtbl.replace names p.name ();
       if Symbol.is_terminal p.head then
         err "%s: terminal head %a" p.name Symbol.pp p.head;
       List.iter
         (fun c ->
            if Symbol.is_terminal c then begin
              if not (Symbol.Set.mem c terminal_set) then
                err "%s: undeclared terminal %a" p.name Symbol.pp c
            end
            else if not (Symbol.Set.mem c heads) then
              err "%s: component %a has no production" p.name Symbol.pp c)
         p.components)
    g.productions;
  (match old_d_graph_cycle g with
   | Some sym ->
     err "d-edge cycle through %a (mutual recursion between distinct \
          symbols is not schedulable)"
       Symbol.pp sym
   | None -> ());
  match !errors with [] -> Ok () | errs -> Error (List.rev errs)

(* ------------------------------------------------------------------ *)
(* Reference: the schedule graph                                      *)
(* ------------------------------------------------------------------ *)

module Old_graph = struct
  type g = { mutable succ : Symbol.Set.t Symbol.Map.t }

  let create () = { succ = Symbol.Map.empty }

  let add_node g sym =
    if not (Symbol.Map.mem sym g.succ) then
      g.succ <- Symbol.Map.add sym Symbol.Set.empty g.succ

  let successors g sym =
    match Symbol.Map.find_opt sym g.succ with
    | Some s -> s
    | None -> Symbol.Set.empty

  let add_edge g a b =
    add_node g a;
    add_node g b;
    g.succ <- Symbol.Map.add a (Symbol.Set.add b (successors g a)) g.succ

  let reaches g source target =
    let visited = ref Symbol.Set.empty in
    let rec go sym =
      Symbol.equal sym target
      || (if Symbol.Set.mem sym !visited then false
          else begin
            visited := Symbol.Set.add sym !visited;
            Symbol.Set.exists go (successors g sym)
          end)
    in
    go source

  let would_cycle g a b = reaches g b a

  let topological_order g =
    let indegree = Hashtbl.create 64 in
    Symbol.Map.iter (fun sym _ ->
        if not (Hashtbl.mem indegree sym) then Hashtbl.replace indegree sym 0;
        Symbol.Set.iter
          (fun b ->
             let d = Option.value ~default:0 (Hashtbl.find_opt indegree b) in
             Hashtbl.replace indegree b (d + 1))
          (successors g sym))
      g.succ;
    let ready =
      Hashtbl.fold (fun sym d acc -> if d = 0 then sym :: acc else acc)
        indegree []
      |> List.sort Symbol.compare
      |> ref
    in
    let order = ref [] in
    let rec loop () =
      match !ready with
      | [] -> ()
      | sym :: rest ->
        ready := rest;
        order := sym :: !order;
        let newly_ready =
          Symbol.Set.fold
            (fun b acc ->
               let d = Hashtbl.find indegree b - 1 in
               Hashtbl.replace indegree b d;
               if d = 0 then b :: acc else acc)
            (successors g sym) []
        in
        ready := List.merge Symbol.compare (List.sort Symbol.compare newly_ready) !ready;
        loop ()
    in
    loop ();
    List.rev !order
end

let old_parents_of (g : Grammar.t) sym =
  List.filter_map
    (fun (p : Production.t) ->
       if (not (Symbol.equal p.head sym))
       && List.exists (Symbol.equal sym) p.components
       then Some p.head
       else None)
    g.productions
  |> List.sort_uniq Symbol.compare

let old_build (g : Grammar.t) =
  (match old_validate g with
   | Ok () -> ()
   | Error errs ->
     invalid_arg
       (Fmt.str "Schedule.build: invalid grammar: %a"
          Fmt.(list ~sep:(any "; ") string)
          errs));
  let graph = Old_graph.create () in
  List.iter (fun sym -> Old_graph.add_node graph sym) (Grammar.nonterminals g);
  List.iter
    (fun (p : Production.t) ->
       List.iter
         (fun c ->
            if (not (Symbol.is_terminal c)) && not (Symbol.equal c p.head)
            then Old_graph.add_edge graph c p.head)
         p.components)
    g.productions;
  let transformed = ref [] in
  let relaxed = ref [] in
  List.iter
    (fun (r : Preference.t) ->
       if not (Preference.same_symbol r) then begin
         if not (Old_graph.would_cycle graph r.winner r.loser) then
           Old_graph.add_edge graph r.winner r.loser
         else begin
           let parents =
             List.filter
               (fun p -> not (Symbol.equal p r.winner))
               (old_parents_of g r.loser)
           in
           let ok =
             parents <> []
             && List.for_all
                  (fun p -> not (Old_graph.would_cycle graph r.winner p))
                  parents
           in
           if ok then begin
             List.iter (fun p -> Old_graph.add_edge graph r.winner p) parents;
             transformed := (r, parents) :: !transformed
           end
           else relaxed := r :: !relaxed
         end
       end)
    g.preferences;
  ( Old_graph.topological_order graph,
    List.rev !transformed,
    List.rev !relaxed )

(* The d-edge-only order was the order of the same grammar without its
   preferences. *)
let old_schedule (g : Grammar.t) =
  let order, transformed, relaxed = old_build g in
  let d_order, _, _ =
    old_build
      (Grammar.make ~terminals:g.terminals ~start:g.start
         ~productions:g.productions ())
  in
  { Schedule.order; transformed; relaxed; d_order }

(* ------------------------------------------------------------------ *)
(* Random grammars                                                    *)
(* ------------------------------------------------------------------ *)

(* Names whose [Symbol.compare] order is unrelated to the order they
   are drawn in, so the tie-breaks of the topological sort and of the
   cycle search are exercised.  Edges go in any direction: most draws
   are cyclic or otherwise invalid unless [layered] keeps components
   above their head. *)
let nt_names = [| "Q"; "b"; "Attr"; "A"; "zz"; "Op"; "a1"; "Val"; "CP"; "M" |]
let t_names = [| "text"; "box"; "radio" |]

let grammar_gen ~layered =
  let open Gen in
  int_range 2 (Array.length nt_names) >>= fun n ->
  let nt i = Symbol.nonterminal nt_names.(i) in
  let declared = List.map Symbol.terminal [ t_names.(0); t_names.(1) ] in
  (* now and then a terminal the grammar does not declare *)
  let terminal =
    map (fun i -> Symbol.terminal t_names.(i))
      (frequency [ (12, int_bound 1); (1, return 2) ])
  in
  let component i =
    frequency
      [ (3, terminal);
        ( 4,
          if layered then
            (if i + 1 < n then map nt (int_range (i + 1) (n - 1)) else terminal)
          else map nt (int_bound (n - 1)) );
        (1, return (nt i)) ]
  in
  let production i k =
    list_size (int_range 1 3) (component i) >|= fun components ->
    Production.make
      ~name:(Printf.sprintf "p%d-%d" i k)
      ~head:(nt i) ~components ()
  in
  let rec productions i =
    if i >= n then return []
    else
      int_range 1 2 >>= fun count ->
      flatten_l (List.init count (production i)) >>= fun ps ->
      productions (i + 1) >|= fun rest -> ps @ rest
  in
  productions 0 >>= fun productions ->
  (* an occasional duplicated name or terminal head *)
  frequency
    [ (12, return productions);
      ( 1,
        return
          (productions
           @ [ Production.make ~name:"p0-0" ~head:(nt 0)
                 ~components:[ Symbol.terminal "text" ] () ]) );
      ( 1,
        return
          (productions
           @ [ Production.make ~name:"tail" ~head:(Symbol.terminal "box")
                 ~components:[ Symbol.terminal "text" ] () ]) ) ]
  >>= fun productions ->
  list_size (int_bound 10) (pair (int_bound (n - 1)) (int_bound (n - 1)))
  >>= fun pairs ->
  let preferences =
    List.mapi
      (fun k (w, l) ->
         Preference.make ~name:(Printf.sprintf "r%d" k) ~winner:(nt w)
           ~loser:(nt l) ())
      pairs
  in
  frequency
    [ (16, return (nt 0)); (1, return (Symbol.terminal "text"));
      (1, return (Symbol.nonterminal "Missing")) ]
  >|= fun start ->
  Grammar.make ~terminals:declared ~start ~productions ~preferences ()

let arbitrary ~layered =
  Q.make ~print:(fun g -> Fmt.str "%a" Grammar.pp g) (grammar_gen ~layered)

let show_result = function
  | Ok () -> "ok"
  | Error errs -> String.concat "\n" errs

let syms_text l = Fmt.str "%a" Fmt.(list ~sep:(any " ") Symbol.pp) l

let schedule_text build g =
  match build g with
  | s -> Fmt.str "%a@.d-order: %s" Schedule.pp s (syms_text s.Schedule.d_order)
  | exception Invalid_argument m -> "Invalid_argument: " ^ m

let prop_validate ~layered =
  Q.Test.make
    ~name:
      (Printf.sprintf "Grammar.validate = reference (%s grammars)"
         (if layered then "layered" else "arbitrary"))
    ~count:1000 (arbitrary ~layered)
    (fun g ->
       String.equal (show_result (Grammar.validate g))
         (show_result (old_validate g)))

let prop_schedule ~layered =
  Q.Test.make
    ~name:
      (Printf.sprintf "Schedule.build = reference (%s grammars)"
         (if layered then "layered" else "arbitrary"))
    ~count:1000 (arbitrary ~layered)
    (fun g ->
       String.equal
         (schedule_text Schedule.build g)
         (schedule_text old_schedule g))

(* The compiled pack's two orders, read back through its symbol table,
   are the reference schedule's order and d-edge-only order. *)
let prop_compiled_orders =
  Q.Test.make ~name:"Engine.compile orders = reference schedules" ~count:1000
    (arbitrary ~layered:true)
    (fun g ->
       match old_validate g with
       | Error _ -> Q.assume_fail ()
       | Ok () ->
         let pack = Engine.compile g in
         let syms ids =
           Array.to_list
             (Array.map (fun id -> pack.Engine.tables.Wqi_parser.Dispatch.syms.(id)) ids)
         in
         let s = old_schedule g in
         String.equal (syms_text (syms pack.Engine.order_ids)) (syms_text s.Schedule.order)
         && String.equal
              (syms_text (syms pack.Engine.d_order_ids))
              (syms_text s.Schedule.d_order)
         && List.equal String.equal
              (Array.to_list
                 (Array.map
                    (fun (fr : Wqi_parser.Dispatch.fpref) ->
                       fr.Wqi_parser.Dispatch.pref.Preference.name)
                    pack.Engine.relaxed))
              (List.map (fun (r : Preference.t) -> r.name) s.Schedule.relaxed))

(* The properties above see every branch of the r-edge loop: over the
   grammars they draw, the reference transforms some preferences and
   relaxes others. *)
let test_generator_reaches_every_branch () =
  let rand = Random.State.make [| 2004 |] in
  let transformed = ref 0 and relaxed = ref 0 and invalid = ref 0 in
  for _ = 1 to 500 do
    let g = grammar_gen ~layered:(Random.State.bool rand) rand in
    match old_schedule g with
    | s ->
      if s.Schedule.transformed <> [] then incr transformed;
      if s.Schedule.relaxed <> [] then incr relaxed
    | exception Invalid_argument _ -> incr invalid
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d transformed, %d relaxed, %d invalid of 500"
       !transformed !relaxed !invalid)
    true
    (!transformed > 0 && !relaxed > 0 && !invalid > 0)

(* ------------------------------------------------------------------ *)
(* Allocation ceiling                                                 *)
(* ------------------------------------------------------------------ *)

(* Minor words of one [Extractor.load_grammar] of the committed std.wqg
   (read, parse, instantiate, compile), after one warm-up load.  Loading
   on symbol sets, maps, polymorphic hash tables and list scans
   allocated 142 850 words here; on interned ids, with the reader
   building each list in order, it allocates 85 515.  The ceiling
   is that figure plus 3%, so a per-reference list scan, a polymorphic
   table or a second schedule graph put back on the load path shows up
   without a wall-clock gate. *)
let load_words_ceiling = 85_515. *. 1.03

let test_load_words () =
  let load () =
    match Wqi_core.Extractor.load_grammar "../examples/grammars/std.wqg" with
    | Ok pack -> pack
    | Error m -> Alcotest.fail m
  in
  ignore (load ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (load ()));
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words <= %.0f" words load_words_ceiling)
    true
    (words <= load_words_ceiling)

let suite =
  ("allocation ceiling: load_grammar std.wqg", `Quick, test_load_words)
  :: ("random grammars reach every schedule branch", `Quick,
      test_generator_reaches_every_branch)
  :: List.map QCheck_alcotest.to_alcotest
    [ prop_validate ~layered:false;
      prop_validate ~layered:true;
      prop_schedule ~layered:false;
      prop_schedule ~layered:true;
      prop_compiled_orders ]
