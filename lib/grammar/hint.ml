module Geometry = Wqi_layout.Geometry

type rel =
  | Left_of of int
  | Above of int
  | Below of int
  | Same_row
  | Same_column
  | Left_aligned of int
  | Top_aligned of int
  | Bottom_aligned of int
  | Adjacent_left
  | Adjacent_above

type t = { a : int; b : int; rel : rel }

(* Constructor defaults mirror the corresponding {!Wqi_layout.Geometry}
   (and hence {!Relation}) defaults exactly: a hint built with the same
   optional arguments as the guard's relation call is sound by
   construction. *)
let left_of ?(max_gap = 60) a b = { a; b; rel = Left_of max_gap }
let above ?(max_gap = 40) a b = { a; b; rel = Above max_gap }
let below ?(max_gap = 40) a b = { a; b; rel = Below max_gap }
let same_row a b = { a; b; rel = Same_row }
let same_column a b = { a; b; rel = Same_column }
let left_aligned ?(tolerance = 6) a b = { a; b; rel = Left_aligned tolerance }
let top_aligned ?(tolerance = 6) a b = { a; b; rel = Top_aligned tolerance }
let bottom_aligned ?(tolerance = 6) a b =
  { a; b; rel = Bottom_aligned tolerance }
let adjacent_left a b = { a; b; rel = Adjacent_left }
let adjacent_above a b = { a; b; rel = Adjacent_above }

(* Matched once per relation: applied to [rel] alone, the result is the
   geometry predicate with its parameter bound, so compiled guards pay
   no dispatch per call. *)
let holds_rel = function
  | Left_of max_gap -> Geometry.left_of ~max_gap
  | Above max_gap -> Geometry.above ~max_gap
  | Below max_gap -> Geometry.below ~max_gap
  | Same_row -> Geometry.same_row
  | Same_column -> Geometry.same_column
  | Left_aligned tolerance -> Geometry.left_aligned ~tolerance
  | Top_aligned tolerance -> Geometry.top_aligned ~tolerance
  | Bottom_aligned tolerance -> Geometry.bottom_aligned ~tolerance
  | Adjacent_left -> Geometry.adjacent_left
  | Adjacent_above -> Geometry.adjacent_above

type region = { y : (int * int) option; x : (int * int) option }

let unconstrained = { y = None; x = None }

(* Conservative search regions, used to drive index probes.  The
   contract (see the .mli) is one-directional: if the relation holds
   between anchor and candidate, then the candidate's y-span intersects
   the [y] interval and its x-span intersects the [x] interval.  The
   converse need not hold — the engine re-checks the exact relation (and
   then the guard) on every candidate the probe admits. *)
let region rel ~anchor:(a : Geometry.box) ~anchor_is_first =
  match (rel, anchor_is_first) with
  | Left_of gap, true ->
    (* candidate.x1 ∈ [a.x2-2, a.x2+gap]; v_overlap > 0 *)
    { y = Some (a.y1, a.y2); x = Some (a.x2 - 2, a.x2 + gap) }
  | Left_of gap, false ->
    { y = Some (a.y1, a.y2); x = Some (a.x1 - gap, a.x1 + 2) }
  | Above gap, true ->
    { y = Some (a.y2 - 2, a.y2 + gap); x = Some (a.x1, a.x2) }
  | Above gap, false ->
    { y = Some (a.y1 - gap, a.y1 + 2); x = Some (a.x1, a.x2) }
  | Below gap, true ->
    { y = Some (a.y1 - gap, a.y1 + 2); x = Some (a.x1, a.x2) }
  | Below gap, false ->
    { y = Some (a.y2 - 2, a.y2 + gap); x = Some (a.x1, a.x2) }
  | Same_row, _ -> { y = Some (a.y1, a.y2); x = None }
  | Same_column, _ -> { y = None; x = Some (a.x1, a.x2) }
  | Left_aligned tol, _ -> { y = None; x = Some (a.x1 - tol, a.x1 + tol) }
  | Top_aligned tol, _ -> { y = Some (a.y1 - tol, a.y1 + tol); x = None }
  | Bottom_aligned tol, _ -> { y = Some (a.y2 - tol, a.y2 + tol); x = None }
  (* Adjacency bounds the gap by the second box's own extent, so only
     that box anchors a bounded probe; from the first, the axis of the
     gap is unconstrained. *)
  | Adjacent_left, true -> { y = Some (a.y1, a.y2); x = None }
  | Adjacent_left, false ->
    { y = Some (a.y1, a.y2); x = Some (a.x1 - Geometry.width a, a.x1 + 2) }
  | Adjacent_above, true -> { y = None; x = Some (a.x1, a.x2) }
  | Adjacent_above, false ->
    { y = Some (a.y1 - Geometry.height a, a.y1 + 2); x = Some (a.x1, a.x2) }

let pp_rel ppf = function
  | Left_of g -> Fmt.pf ppf "left_of<=%d" g
  | Above g -> Fmt.pf ppf "above<=%d" g
  | Below g -> Fmt.pf ppf "below<=%d" g
  | Same_row -> Fmt.string ppf "same_row"
  | Same_column -> Fmt.string ppf "same_column"
  | Left_aligned t -> Fmt.pf ppf "left_aligned~%d" t
  | Top_aligned t -> Fmt.pf ppf "top_aligned~%d" t
  | Bottom_aligned t -> Fmt.pf ppf "bottom_aligned~%d" t
  | Adjacent_left -> Fmt.string ppf "adjacent_left"
  | Adjacent_above -> Fmt.string ppf "adjacent_above"

let pp ppf h = Fmt.pf ppf "%a(#%d, #%d)" pp_rel h.rel h.a h.b
