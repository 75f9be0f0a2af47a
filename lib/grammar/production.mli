(** Productions of a 2P grammar (Definition 2): ⟨Head, Components,
    Constraint, Constructor⟩.

    The constraint is an arbitrary boolean over the chosen component
    instances — this is where spatial relations are expressed: left-of
    and above within a pixel gap, edge alignment, and adjacency, whose
    gap is bounded by the instances' own size (so row and interface
    assembly join only neighbouring parts).  A constraint may also look
    past its components through a {!Scope.t}, e.g. to require that no
    other row sits directly above the chosen one.  The constructor
    computes the head instance's semantic value from the components;
    its position is always the bounding union (the paper's universal
    [pos] attribute). *)

type t = {
  name : string;
      (** Unique name, e.g. "P5-TextOp"; used in dedup keys and traces. *)
  head : Symbol.t;
  components : Symbol.t list;
      (** The multiset M, in the order the guard and builder receive the
          instances. *)
  guard : Scope.t -> Instance.t array -> bool;
      (** Constraint C.  Receives the parse's {!Scope.t} and the
          component instances in declaration order; covers are already
          known to be pairwise disjoint. *)
  build : Instance.t array -> Instance.sem;
      (** Constructor F: the head's semantic value. *)
  hints : Hint.t list;
      (** Declarative restatements of the guard's spatial conjuncts,
          used for indexed candidate enumeration.  Every hint must be
          implied by [guard] (see {!Hint}); the guard stays the final
          authority, so hints never change results — only the number of
          candidates the guard has to reject. *)
}

val make :
  name:string ->
  head:Symbol.t ->
  components:Symbol.t list ->
  ?guard:(Scope.t -> Instance.t array -> bool) ->
  ?build:(Instance.t array -> Instance.sem) ->
  ?hints:Hint.t list ->
  unit ->
  t
(** [guard] defaults to always true, [build] to [S_none], [hints] to
    none.  Raises [Invalid_argument] if a hint names a slot outside
    [components] or relates a slot to itself. *)

val is_recursive : t -> bool
(** The head also appears among the components. *)

val pp : Format.formatter -> t -> unit
