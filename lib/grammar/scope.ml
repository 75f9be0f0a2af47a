type t = {
  exists : Symbol.t -> Hint.region -> (Instance.t -> bool) -> bool;
}
