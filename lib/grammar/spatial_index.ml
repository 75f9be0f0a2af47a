module Geometry = Wqi_layout.Geometry

(* Entries are packed five-wide into a flat int array per band —
   [idx, x1, y1, x2, y2] — so registering an instance allocates nothing
   once a band's array has grown, and a probe walks consecutive words
   instead of chasing entry records. *)
let stride = 5

type band = { mutable arr : int array; mutable len : int }
(* [len] counts entries, not words: the payload occupies
   [arr.(0 .. stride*len - 1)]. *)

let band_make () = { arr = [||]; len = 0 }

let band_push b idx x1 y1 x2 y2 =
  let base = stride * b.len in
  if base = Array.length b.arr then begin
    let arr = Array.make (Int.max (8 * stride) (2 * base)) 0 in
    Array.blit b.arr 0 arr 0 base;
    b.arr <- arr
  end;
  let arr = b.arr in
  Array.unsafe_set arr base idx;
  Array.unsafe_set arr (base + 1) x1;
  Array.unsafe_set arr (base + 2) y1;
  Array.unsafe_set arr (base + 3) x2;
  Array.unsafe_set arr (base + 4) y2;
  b.len <- b.len + 1

(* 32-pixel horizontal bands: about one visual form row per band.  A
   box is registered in every band its y-span touches; boxes spanning
   more than [max_span_bands] bands (assembled rows, whole-interface
   instances) go to a single overflow list every probe scans exactly
   once, which bounds the per-insert cost. *)
let band_bits = 5

let band_of y = y asr band_bits

let max_span_bands = 8

type t = {
  mutable bands : band array;  (* dense, indexed by clamped band number *)
  mutable nbands : int;  (* bands in use (array prefix); the rest are empty *)
  tall : band;
  alive : int -> bool;
  mutable added : int;  (* instances registered since the last sweep *)
  mutable dead : int;   (* kill notifications since the last sweep *)
}

let create ~alive =
  { bands = [||]; nbands = 0; tall = band_make (); alive; added = 0;
    dead = 0 }

(* Emptying for reuse keeps the band arrays (entries are plain ints, so
   a stale tail pins nothing) — a pooled per-symbol index costs zero
   allocation per parse in the steady state.  Every band at or past
   [nbands] is empty (only [band_at] hands out bands, and it raises
   [nbands] past them first), so a reset empties the bands in use and
   drops [nbands] to 0: the next parse pays for the bands it touches,
   not for the tallest page the index ever held. *)
let reset t =
  for bk = 0 to t.nbands - 1 do
    t.bands.(bk).len <- 0
  done;
  t.nbands <- 0;
  t.tall.len <- 0;
  t.added <- 0;
  t.dead <- 0

(* Page coordinates are non-negative in practice; a stray negative y
   (and probe regions extending above the page) clamps into band 0. *)
let clamp_band bk = if bk < 0 then 0 else bk

let band_at t bk =
  if bk >= t.nbands then begin
    let cap = Array.length t.bands in
    if bk >= cap then begin
      let bands = Array.init (Int.max 16 (2 * (bk + 1))) (fun _ -> band_make ()) in
      Array.blit t.bands 0 bands 0 t.nbands;
      (* Array.init ran band_make for the copied prefix too; those heads
         are garbage, the blit replaced them. *)
      t.bands <- bands
    end;
    t.nbands <- bk + 1
  end;
  Array.unsafe_get t.bands bk

let add_coords t ~idx x1 y1 x2 y2 =
  let lo = clamp_band (band_of y1) and hi = clamp_band (band_of y2) in
  if hi - lo + 1 > max_span_bands then band_push t.tall idx x1 y1 x2 y2
  else
    for bk = lo to hi do
      band_push (band_at t bk) idx x1 y1 x2 y2
    done;
  t.added <- t.added + 1

let add t ~idx (box : Geometry.box) =
  add_coords t ~idx box.x1 box.y1 box.x2 box.y2

let sweep_band t (b : band) =
  let w = ref 0 in
  for i = 0 to b.len - 1 do
    let base = stride * i in
    if t.alive (Array.unsafe_get b.arr base) then begin
      Array.blit b.arr base b.arr (stride * !w) stride;
      incr w
    end
  done;
  b.len <- !w

(* Rollback-safe incremental maintenance: kills only ever mark
   instances dead (they are never revived), so the index can tombstone
   lazily — probes re-check liveness through [alive] anyway — and
   compact whole bands once at least half of the registered instances
   have died. *)
let note_killed t =
  t.dead <- t.dead + 1;
  if t.added > 64 && 2 * t.dead > t.added then begin
    for bk = 0 to t.nbands - 1 do
      sweep_band t t.bands.(bk)
    done;
    sweep_band t t.tall;
    t.added <- t.added - t.dead;
    t.dead <- 0
  end

(* Append the entries of [b] inside the query window to [!buf] from
   position [n], growing [!buf] when full; returns the new count. *)
let scan_band_into (b : band) ~y_lo ~y_hi ~x_lo ~x_hi ~start ~stop buf n =
  let n = ref n in
  let arr = b.arr in
  for i = 0 to b.len - 1 do
    let base = stride * i in
    let idx = Array.unsafe_get arr base in
    if
      idx >= start && idx < stop
      && Array.unsafe_get arr (base + 4) >= y_lo
      && Array.unsafe_get arr (base + 2) <= y_hi
      && Array.unsafe_get arr (base + 3) >= x_lo
      && Array.unsafe_get arr (base + 1) <= x_hi
    then begin
      if !n = Array.length !buf then begin
        let grown = Array.make (Int.max 64 (2 * !n)) 0 in
        Array.blit !buf 0 grown 0 !n;
        buf := grown
      end;
      Array.unsafe_set !buf !n idx;
      incr n
    end
  done;
  !n

(* Heapsort of [a.(0 .. n-1)] in place: probe buffers are caller-owned
   scratch, and sorting a prefix with [Array.sort] would first copy it
   out. *)
let rec sift (a : int array) i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let v = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- v;
      sift a c len
    end
  end

let sort_prefix (a : int array) n =
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    let v = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- v;
    sift a 0 last
  done

(* Candidates from a single source band are already in creation order;
   multiple bands (or the overflow list) interleave, and an entry can
   appear in several probed bands.  Restore strict ascending order and
   drop duplicates — enumeration order is what keeps hinted parses
   byte-identical to unhinted ones. *)
let query_into t ~y_lo ~y_hi ~x_lo ~x_hi ~start ~stop buf =
  let n = ref 0 in
  let bk_hi = Int.min (clamp_band (band_of y_hi)) (t.nbands - 1) in
  for bk = clamp_band (band_of y_lo) to bk_hi do
    n :=
      scan_band_into (Array.unsafe_get t.bands bk) ~y_lo ~y_hi ~x_lo ~x_hi
        ~start ~stop buf !n
  done;
  let n = scan_band_into t.tall ~y_lo ~y_hi ~x_lo ~x_hi ~start ~stop buf !n in
  let out = !buf in
  let sorted = ref true in
  for i = 0 to n - 2 do
    if out.(i) >= out.(i + 1) then sorted := false
  done;
  if !sorted then n
  else begin
    sort_prefix out n;
    let w = ref 0 in
    for i = 0 to n - 1 do
      let idx = out.(i) in
      if !w = 0 || out.(!w - 1) <> idx then begin
        out.(!w) <- idx;
        incr w
      end
    done;
    !w
  end

let query t ~y_lo ~y_hi ~x ~start ~stop =
  let x_lo, x_hi = match x with Some r -> r | None -> (min_int, max_int) in
  let buf = ref [||] in
  let n = query_into t ~y_lo ~y_hi ~x_lo ~x_hi ~start ~stop buf in
  Array.sub !buf 0 n
