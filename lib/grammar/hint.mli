(** Declarative spatial hints on productions.

    A hint restates one spatial conjunct of a production's guard — a
    binary relation between two component slots — in a form the parser
    can see through: instead of enumerating every instance of a slot's
    symbol and letting the opaque guard closure reject the cross
    product, the engine uses the hint to probe a spatial index and
    enumerate only the candidates that can possibly satisfy it.

    {b Hints are an optimization, never a semantic filter.}  The guard
    remains the final authority on every candidate combination; the
    engine evaluates it exactly as it would without hints, so parses
    with and without hints are byte-identical (instance ids included).
    The soundness contract the grammar author must uphold is
    one-directional: whenever the guard accepts a combination, every
    hint of the production must hold for it.  The easy way to satisfy
    the contract is to build each hint with the same relation and the
    same gap/tolerance arguments the guard itself uses — the constructor
    defaults below equal the {!Relation}/{!Wqi_layout.Geometry}
    defaults for exactly that reason.  A hint that is not implied by
    the guard can change results; a missing hint only costs speed. *)

(** A binary spatial relation, mirroring {!Wqi_layout.Geometry}.  The
    payload is the max-gap bound (for the directional relations) or the
    alignment tolerance, in pixels; the adjacency relations take none —
    their gap bound is the boxes' own size. *)
type rel =
  | Left_of of int
  | Above of int
  | Below of int
  | Same_row
  | Same_column
  | Left_aligned of int
  | Top_aligned of int
  | Bottom_aligned of int
  | Adjacent_left  (** {!Wqi_layout.Geometry.adjacent_left} *)
  | Adjacent_above  (** {!Wqi_layout.Geometry.adjacent_above} *)

type t = {
  a : int;  (** first endpoint: a component slot index *)
  b : int;  (** second endpoint: a component slot index, [<> a] *)
  rel : rel;  (** relation asserted of (instance in [a], instance in [b]) *)
}

val left_of : ?max_gap:int -> int -> int -> t
val above : ?max_gap:int -> int -> int -> t
val below : ?max_gap:int -> int -> int -> t
val same_row : int -> int -> t
val same_column : int -> int -> t
val left_aligned : ?tolerance:int -> int -> int -> t
val top_aligned : ?tolerance:int -> int -> int -> t
val bottom_aligned : ?tolerance:int -> int -> int -> t
val adjacent_left : int -> int -> t
val adjacent_above : int -> int -> t
(** [left_of ?max_gap a b] etc.: hint over slots [a] and [b].  Defaults
    equal the corresponding {!Relation} defaults. *)

val holds_rel : rel -> Wqi_layout.Geometry.box -> Wqi_layout.Geometry.box -> bool
(** [holds_rel rel ba bb]: does the relation hold between the boxes?
    Delegates to the exact {!Wqi_layout.Geometry} predicate the guard
    would call, with the hint's stored gap/tolerance. *)

(** A conservative search region for one relation endpoint given the
    box bound to the other endpoint.  [y]/[x] are closed intervals the
    candidate's y-span/x-span must {e intersect}; [None] leaves the
    axis unconstrained. *)
type region = { y : (int * int) option; x : (int * int) option }

val unconstrained : region

val region : rel -> anchor:Wqi_layout.Geometry.box -> anchor_is_first:bool -> region
(** [region rel ~anchor ~anchor_is_first] over-approximates where the
    free endpoint can be: if the relation holds (anchor in the hint's
    [a] slot when [anchor_is_first], in [b] otherwise), the candidate's
    spans intersect the returned intervals.  The converse is not
    guaranteed — callers must re-check {!holds_rel} (and the guard). *)

val pp_rel : Format.formatter -> rel -> unit

val pp : Format.formatter -> t -> unit
