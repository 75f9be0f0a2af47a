type t = {
  order : Symbol.t list;
  transformed : (Preference.t * Symbol.t list) list;
  relaxed : Preference.t list;
  d_order : Symbol.t list;
}

module Graph = struct
  (* Directed graph over the ids of a {!Symtab}; an edge a -> b reads
     "a is scheduled before b".  Edges are a set: [edge] holds the
     adjacency matrix, [succ] the same edges as lists for traversal. *)
  type g = {
    n : int;
    node : bool array;
    edge : Bytes.t;
    succ : int list array;
    mark : int array;  (* [reaches]' visited set: marks equal to [stamp] *)
    mutable stamp : int;
  }

  let create n =
    { n;
      node = Array.make n false;
      edge = Bytes.make (n * n) '\000';
      succ = Array.make n [];
      mark = Array.make n 0;
      stamp = 0 }

  let add_node g i = g.node.(i) <- true

  let add_edge g a b =
    add_node g a;
    add_node g b;
    let k = (a * g.n) + b in
    if Bytes.get g.edge k = '\000' then begin
      Bytes.set g.edge k '\001';
      g.succ.(a) <- b :: g.succ.(a)
    end

  (* Is [target] reachable from [source]?  Each query takes a fresh
     stamp, so the visited set needs no clearing. *)
  let reaches g source target =
    g.stamp <- g.stamp + 1;
    let stamp = g.stamp in
    let rec go i =
      i = target
      || (g.mark.(i) <> stamp
          && begin
            g.mark.(i) <- stamp;
            List.exists go g.succ.(i)
          end)
    in
    go source

  (* Adding a -> b creates a cycle iff a is reachable from b. *)
  let would_cycle g a b = reaches g b a

  (* Kahn's algorithm, always taking the smallest ready id: ids follow
     [Symbol.compare], so ties break by symbol order. *)
  let topological_order g syms =
    let indegree = Array.make g.n 0 in
    Array.iter (List.iter (fun b -> indegree.(b) <- indegree.(b) + 1)) g.succ;
    let ready = Array.init g.n (fun i -> g.node.(i) && indegree.(i) = 0) in
    let order = ref [] in
    let rec loop from =
      let i = ref from in
      while !i < g.n && not ready.(!i) do incr i done;
      if !i < g.n then begin
        let a = !i in
        ready.(a) <- false;
        order := syms.(a) :: !order;
        let next = ref (a + 1) in
        List.iter
          (fun b ->
             indegree.(b) <- indegree.(b) - 1;
             if indegree.(b) = 0 then begin
               ready.(b) <- true;
               if b < !next then next := b
             end)
          g.succ.(a);
        loop !next
      end
    in
    loop 0;
    List.rev !order
end

let build (g : Grammar.t) =
  (match Grammar.validate g with
   | Ok () -> ()
   | Error errs ->
     invalid_arg
       (Fmt.str "Schedule.build: invalid grammar: %a"
          Fmt.(list ~sep:(any "; ") string)
          errs));
  let tab = g.symtab in
  let graph = Graph.create (Array.length tab.syms) in
  Array.iteri
    (fun i used ->
       if used && not (Symtab.is_terminal tab i) then Graph.add_node graph i)
    tab.in_productions;
  (* d-edges: every (non-self, nonterminal) component precedes its head. *)
  Array.iteri
    (fun head children -> Array.iter (fun c -> Graph.add_edge graph c head) children)
    tab.children;
  let d_order = Graph.topological_order graph tab.syms in
  (* r-edges, added greedily with transformation as the fallback. *)
  let transformed = ref [] in
  let relaxed = ref [] in
  List.iteri
    (fun k (r : Preference.t) ->
       let winner = tab.winners.(k) and loser = tab.losers.(k) in
       if winner <> loser then begin
         if not (Graph.would_cycle graph winner loser) then
           Graph.add_edge graph winner loser
         else begin
           (* Transformation (Figure 13): winner before each parent of the
              loser, so false parents are still never generated. *)
           let parents =
             List.filter (fun p -> p <> winner)
               (Array.to_list tab.parents.(loser))
           in
           let ok =
             parents <> []
             && List.for_all
                  (fun p -> not (Graph.would_cycle graph winner p))
                  parents
           in
           if ok then begin
             (* Edges are only added after the all-parents check, so a
                failed transformation leaves nothing to roll back. *)
             List.iter (fun p -> Graph.add_edge graph winner p) parents;
             transformed :=
               (r, List.map (fun p -> tab.syms.(p)) parents) :: !transformed
           end
           else relaxed := r :: !relaxed
         end
       end)
    g.preferences;
  { order = Graph.topological_order graph tab.syms;
    transformed = List.rev !transformed;
    relaxed = List.rev !relaxed;
    d_order }

let pp ppf t =
  Fmt.pf ppf "@[<v>order: %a%a%a@]"
    Fmt.(list ~sep:(any " -> ") Symbol.pp)
    t.order
    Fmt.(
      list ~sep:nop (fun ppf (r, parents) ->
          pf ppf "@,transformed %s -> {%a}" r.Preference.name
            (list ~sep:(any ", ") Symbol.pp)
            parents))
    t.transformed
    Fmt.(
      list ~sep:nop (fun ppf r ->
          pf ppf "@,relaxed %s" r.Preference.name))
    t.relaxed
