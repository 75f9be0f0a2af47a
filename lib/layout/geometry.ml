type box = { x1 : int; y1 : int; x2 : int; y2 : int }

let make ~x1 ~y1 ~x2 ~y2 =
  { x1 = Int.min x1 x2;
    y1 = Int.min y1 y2;
    x2 = Int.max x1 x2;
    y2 = Int.max y1 y2 }

let origin = { x1 = 0; y1 = 0; x2 = 0; y2 = 0 }

let width b = b.x2 - b.x1
let height b = b.y2 - b.y1

let center_x b = (b.x1 + b.x2) / 2
let center_y b = (b.y1 + b.y2) / 2

let union a b =
  { x1 = Int.min a.x1 b.x1;
    y1 = Int.min a.y1 b.y1;
    x2 = Int.max a.x2 b.x2;
    y2 = Int.max a.y2 b.y2 }

let union_all = function
  | [] -> origin
  | b :: rest -> List.fold_left union b rest

let contains outer inner =
  outer.x1 <= inner.x1 && outer.y1 <= inner.y1
  && outer.x2 >= inner.x2 && outer.y2 >= inner.y2

let h_overlap a b = Int.max 0 (Int.min a.x2 b.x2 - Int.max a.x1 b.x1)
let v_overlap a b = Int.max 0 (Int.min a.y2 b.y2 - Int.max a.y1 b.y1)

let h_gap a b =
  if h_overlap a b > 0 then 0
  else Int.max (b.x1 - a.x2) (a.x1 - b.x2)

let v_gap a b =
  if v_overlap a b > 0 then 0
  else Int.max (b.y1 - a.y2) (a.y1 - b.y2)

let distance a b =
  let dx = float_of_int (center_x a - center_x b) in
  let dy = float_of_int (center_y a - center_y b) in
  sqrt ((dx *. dx) +. (dy *. dy))

let left_of ?(max_gap = 60) a b =
  a.x2 <= b.x1 + 2
  && b.x1 - a.x2 <= max_gap
  && v_overlap a b > 0

let above ?(max_gap = 40) a b =
  a.y2 <= b.y1 + 2
  && b.y1 - a.y2 <= max_gap
  && h_overlap a b > 0

let below ?max_gap a b = above ?max_gap b a

(* Adjacency bounds the gap by the second box's own extent along the
   axis: strictly less, so nothing as large as [b] fits between. *)
let adjacent_left a b =
  a.x2 <= b.x1 + 2
  && b.x1 - a.x2 < width b
  && v_overlap a b > 0

let adjacent_above a b =
  a.y2 <= b.y1 + 2
  && b.y1 - a.y2 < height b
  && h_overlap a b > 0

let same_row a b =
  let smaller = Int.max 1 (Int.min (height a) (height b)) in
  2 * v_overlap a b >= smaller

let same_column a b =
  let smaller = Int.max 1 (Int.min (width a) (width b)) in
  2 * h_overlap a b >= smaller

let left_aligned ?(tolerance = 6) a b = abs (a.x1 - b.x1) <= tolerance
let top_aligned ?(tolerance = 6) a b = abs (a.y1 - b.y1) <= tolerance
let bottom_aligned ?(tolerance = 6) a b = abs (a.y2 - b.y2) <= tolerance

let pp ppf b = Fmt.pf ppf "(%d,%d)-(%d,%d)" b.x1 b.y1 b.x2 b.y2

let equal a b = a.x1 = b.x1 && a.y1 = b.y1 && a.x2 = b.x2 && a.y2 = b.y2

(* Lexicographic on unboxed coordinates: same row by x then y,
   otherwise by y then x. *)
let compare_reading_order a b =
  if same_row a b then
    let c = Int.compare a.x1 b.x1 in
    if c <> 0 then c else Int.compare a.y1 b.y1
  else
    let c = Int.compare a.y1 b.y1 in
    if c <> 0 then c else Int.compare a.x1 b.x1
