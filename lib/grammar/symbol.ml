module Self = struct
  type t =
    | Terminal of string
    | Nonterminal of string

  let compare a b =
    match a, b with
    | Terminal x, Terminal y -> String.compare x y
    | Nonterminal x, Nonterminal y -> String.compare x y
    | Terminal _, Nonterminal _ -> -1
    | Nonterminal _, Terminal _ -> 1
end

include Self

let terminal name = Terminal name
let nonterminal name = Nonterminal name

let name = function Terminal n | Nonterminal n -> n

let is_terminal = function Terminal _ -> true | Nonterminal _ -> false

let of_token_kind kind = Terminal (Wqi_token.Token.kind_name kind)

let equal a b =
  match a, b with
  | Terminal x, Terminal y | Nonterminal x, Nonterminal y -> String.equal x y
  | Terminal _, Nonterminal _ | Nonterminal _, Terminal _ -> false

let pp ppf = function
  | Terminal n -> Fmt.pf ppf "'%s'" n
  | Nonterminal n -> Fmt.string ppf n

module Set = Set.Make (Self)
module Map = Map.Make (Self)
