type t = {
  syms : Symbol.t array;
  ids : int Symbol.Tbl.t;
  terminals : int;
  start : int;
  declared : bool array;
  is_head : bool array;
  in_productions : bool array;
  heads : int array;
  components : int array array;
  winners : int array;
  losers : int array;
  children : int array array;
  parents : int array array;
}

module Names = Hashtbl.Make (String)

let is_terminal t i = i < t.terminals

let id t sym = Symbol.Tbl.find t.ids sym

(* Distinct ints, ascending. *)
let set_of_list l = Array.of_list (List.sort_uniq Int.compare l)

let make ~terminals ~start ~(productions : Production.t list)
    ~(preferences : Preference.t list) =
  (* Symbols are numbered as first met, then renumbered by rank. *)
  let ids = Symbol.Tbl.create 64 in
  let met = ref [] and count = ref 0 in
  let intern sym =
    match Symbol.Tbl.find_opt ids sym with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      Symbol.Tbl.add ids sym i;
      met := sym :: !met;
      i
  in
  let declared = List.map intern terminals in
  let start = intern start in
  let heads =
    Array.of_list (List.map (fun (p : Production.t) -> intern p.head) productions)
  in
  let components =
    Array.of_list
      (List.map
         (fun (p : Production.t) -> Array.of_list (List.map intern p.components))
         productions)
  in
  let winners =
    Array.of_list (List.map (fun (r : Preference.t) -> intern r.winner) preferences)
  in
  let losers =
    Array.of_list (List.map (fun (r : Preference.t) -> intern r.loser) preferences)
  in
  let n = !count in
  let first = Array.of_list (List.rev !met) in
  let by_rank = Array.init n Fun.id in
  Array.sort (fun a b -> Symbol.compare first.(a) first.(b)) by_rank;
  let rank = Array.make n 0 in
  Array.iteri (fun r i -> rank.(i) <- r) by_rank;
  Symbol.Tbl.filter_map_inplace (fun _ i -> Some rank.(i)) ids;
  let syms = Array.map (fun i -> first.(i)) by_rank in
  let renumber a = Array.map (fun i -> rank.(i)) a in
  let heads = renumber heads in
  let components = Array.map renumber components in
  let terminals =
    let k = ref 0 in
    while !k < n && Symbol.is_terminal syms.(!k) do incr k done;
    !k
  in
  let flags l =
    let a = Array.make n false in
    List.iter (fun i -> a.(i) <- true) l;
    a
  in
  let is_head = flags (Array.to_list heads) in
  let in_productions = Array.copy is_head in
  let children = Array.make n [] and parents = Array.make n [] in
  Array.iteri
    (fun p h ->
       Array.iter
         (fun c ->
            in_productions.(c) <- true;
            if c <> h then begin
              parents.(c) <- h :: parents.(c);
              if c >= terminals then children.(h) <- c :: children.(h)
            end)
         components.(p))
    heads;
  { syms;
    ids;
    terminals;
    start = rank.(start);
    declared = flags (List.map (fun i -> rank.(i)) declared);
    is_head;
    in_productions;
    heads;
    components;
    winners = renumber winners;
    losers = renumber losers;
    children = Array.map set_of_list children;
    parents = Array.map set_of_list parents }
