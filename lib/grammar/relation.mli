(** Spatial-relation combinators over instances.

    Thin wrappers over {!Wqi_layout.Geometry} used to write production
    guards in a declarative style close to the paper's notation, e.g.
    [P5: TextOp -> Left(Attr, Val) ∧ Below(Op, Val)] becomes
    [fun [| attr; op; v |] -> Relation.left attr v && Relation.below op v].
    The directional relations bound their gap by a default pixel count;
    the size-bounded adjacency the standard grammar assembles rows with
    is {!Wqi_layout.Geometry.adjacent_left} / [adjacent_above]. *)

val left : ?max_gap:int -> Instance.t -> Instance.t -> bool
(** [left a b]: [a] immediately left of [b], same visual row. *)

val above : ?max_gap:int -> Instance.t -> Instance.t -> bool
val below : ?max_gap:int -> Instance.t -> Instance.t -> bool

val same_row : Instance.t -> Instance.t -> bool
val same_column : Instance.t -> Instance.t -> bool

val left_aligned : ?tolerance:int -> Instance.t -> Instance.t -> bool
val top_aligned : ?tolerance:int -> Instance.t -> Instance.t -> bool
val bottom_aligned : ?tolerance:int -> Instance.t -> Instance.t -> bool

val h_gap : Instance.t -> Instance.t -> int
val v_gap : Instance.t -> Instance.t -> int
val distance : Instance.t -> Instance.t -> float

val width : Instance.t -> int
val height : Instance.t -> int
