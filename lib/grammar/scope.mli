(** What a guard may see of the parse beyond its own components.

    A production's constraint is usually a function of the chosen
    component instances alone.  Some constraints are about the
    neighbourhood instead — "no row sits directly above this one" — and
    need the live instances of another symbol.  The parser hands every
    guard a scope over its instance store; a guard that does not look
    around ignores it.

    A guard may only ask about symbols whose instances are final while
    its production's head is being instantiated — its own nonterminal
    components other than the head, or terminals.  The schedule
    instantiates those first, so every enumeration order sees the same
    answer, and the semi-naive engine (which evaluates each combination
    once) agrees with the naive fix-point (which re-evaluates it every
    round). *)

type t = {
  exists : Symbol.t -> Hint.region -> (Instance.t -> bool) -> bool;
      (** [exists sym region test]: does some live instance of [sym]
          satisfy [test]?  [region] is a pre-filter the implementation
          may use to skip instances (the parser probes its spatial
          index with it) or ignore (the reference fix-point does), so
          [test] must imply it: an instance whose spans miss [region]
          must fail [test]. *)
}
