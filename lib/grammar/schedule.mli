(** The 2P schedule graph (Section 5.2, Figures 12–13).

    Produces the symbol instantiation order that makes just-in-time
    pruning possible: components before heads (d-edges) and winners
    before losers (r-edges).  R-edges that would create a cycle are first
    *transformed* into indirect r-edges (winner before each parent of the
    loser); if a cycle persists they are *relaxed* (dropped) and the
    parser compensates with rollback.

    One graph per grammar, on the int ids of its {!Symtab}: the d-edges
    give the d-edge-only order, and the r-edges added to the same graph
    give the 2P order.  The cycle test before each r-edge is a
    depth-first search with a stamped visited set, and Kahn's sort breaks
    ties by {!Symbol.compare}, which the ids already follow. *)

type t = {
  order : Symbol.t list;
      (** Nonterminals in instantiation order.  Terminals are not listed:
          their instances are the input tokens. *)
  transformed : (Preference.t * Symbol.t list) list;
      (** Preferences whose direct r-edge was replaced by indirect edges
          to the listed parent symbols. *)
  relaxed : Preference.t list;
      (** Preferences contributing no scheduling constraint; their late
          pruning relies on rollback. *)
  d_order : Symbol.t list;
      (** Nonterminals in topological order over the d-edges alone: the
          order of the late-pruning ablation, which schedules no
          preference. *)
}

val build : Grammar.t -> t
(** [build g] requires [Grammar.validate g = Ok ()] (d-edges acyclic);
    raises [Invalid_argument] otherwise. *)

val pp : Format.formatter -> t -> unit
(** [order], [transformed] and [relaxed]. *)
