(** Bounding boxes and the spatial relations used by the 2P grammar.

    Coordinates are integer pixels with the origin at the top-left of the
    page: [x] grows rightward, [y] grows downward.  A box records its left,
    top, right and bottom edges ([x2 >= x1], [y2 >= y1]).

    The relations mirror the visual conventions the paper's productions
    rely on (Section 4.1): left-of / above within a pixel gap,
    adjacency bounded by the boxes' own size, edge alignment with small
    tolerances, and gap distances used by preferences. *)

type box = { x1 : int; y1 : int; x2 : int; y2 : int }

val make : x1:int -> y1:int -> x2:int -> y2:int -> box
(** [make ~x1 ~y1 ~x2 ~y2] builds a box, normalizing flipped edges. *)

val origin : box
(** The degenerate box at (0, 0). *)

val width : box -> int
val height : box -> int

val center_x : box -> int
val center_y : box -> int

val union : box -> box -> box
(** Smallest box covering both arguments. *)

val union_all : box list -> box
(** [union_all boxes] folds {!union}; the empty list yields {!origin}. *)

val contains : box -> box -> bool
(** [contains outer inner] tests full inclusion (edges may touch). *)

val h_overlap : box -> box -> int
(** Length of the horizontal projection shared by the two boxes
    (0 when disjoint). *)

val v_overlap : box -> box -> int
(** Length of the vertical projection shared by the two boxes. *)

val h_gap : box -> box -> int
(** Horizontal distance between the closest vertical edges; 0 when the
    horizontal projections overlap. *)

val v_gap : box -> box -> int
(** Vertical distance between the closest horizontal edges; 0 when the
    vertical projections overlap. *)

val distance : box -> box -> float
(** Euclidean distance between box centers, used by proximity
    preferences and by the baseline heuristic extractor. *)

val left_of : ?max_gap:int -> box -> box -> bool
(** [left_of a b] holds when [a] sits to the left of [b] on roughly the
    same visual row: [a]'s right edge precedes [b]'s left edge, their
    vertical projections overlap, and the horizontal gap is at most
    [max_gap] (default 60). *)

val above : ?max_gap:int -> box -> box -> bool
(** [above a b] holds when [a] sits above [b] in roughly the same visual
    column (horizontal projections overlap, gap at most [max_gap],
    default 40). *)

val below : ?max_gap:int -> box -> box -> bool
(** [below a b] is [above b a]. *)

val adjacent_left : box -> box -> bool
(** [adjacent_left a b]: [a] directly left of [b] — as {!left_of}, but
    the gap is bounded by [b] itself: strictly less than [b]'s width, so
    nothing as wide as [b] fits between them. *)

val adjacent_above : box -> box -> bool
(** [adjacent_above a b]: [a] directly above [b] — as {!above}, with
    the gap strictly less than [b]'s height, so a stack of rows grown
    downward joins only its neighbour: it cannot skip a row as tall as
    the one it takes on. *)

val same_row : box -> box -> bool
(** Vertical projections overlap by at least half the smaller height. *)

val same_column : box -> box -> bool
(** Horizontal projections overlap by at least half the smaller width. *)

val left_aligned : ?tolerance:int -> box -> box -> bool
(** Left edges within [tolerance] pixels (default 6). *)

val top_aligned : ?tolerance:int -> box -> box -> bool
val bottom_aligned : ?tolerance:int -> box -> box -> bool

val pp : Format.formatter -> box -> unit
val equal : box -> box -> bool
val compare_reading_order : box -> box -> int
(** Orders boxes top-to-bottom then left-to-right, with a small tolerance
    so that boxes on the same visual line compare by [x]. *)
