type t = {
  name : string;
  head : Symbol.t;
  components : Symbol.t list;
  guard : Scope.t -> Instance.t array -> bool;
  build : Instance.t array -> Instance.sem;
  hints : Hint.t list;
}

let make ~name ~head ~components ?(guard = fun _ _ -> true)
    ?(build = fun _ -> Instance.S_none) ?(hints = []) () =
  if components = [] then invalid_arg "Production.make: empty components";
  let arity = List.length components in
  List.iter
    (fun (h : Hint.t) ->
       if h.a < 0 || h.a >= arity || h.b < 0 || h.b >= arity || h.a = h.b
       then
         invalid_arg
           (Fmt.str "Production.make: %s: hint %a out of range for arity %d"
              name Hint.pp h arity))
    hints;
  { name; head; components; guard; build; hints }

let is_recursive p = List.exists (Symbol.equal p.head) p.components

let pp ppf p =
  Fmt.pf ppf "%s: %a -> %a%a" p.name Symbol.pp p.head
    Fmt.(list ~sep:(any " ") Symbol.pp)
    p.components
    Fmt.(
      list ~sep:nop (fun ppf h -> pf ppf " @[%a@]" Hint.pp h))
    p.hints
