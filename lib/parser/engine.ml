module G = Wqi_grammar
module Instance = G.Instance
module Symbol = G.Symbol
module Bitset = G.Bitset
module Spatial_index = G.Spatial_index
module Token = Wqi_token.Token
module Budget = Wqi_budget.Budget
module Trace = Wqi_obs.Trace

let src = Logs.Src.create "wqi.parser" ~doc:"Best-effort 2P parser"

module Log = (val Logs.src_log src : Logs.LOG)

type options = {
  use_preferences : bool;
  use_scheduling : bool;
  max_instances : int;
  use_hints : bool;
}

let default_options =
  { use_preferences = true; use_scheduling = true; max_instances = 200_000;
    use_hints = true }

type stats = {
  created : int;
  live : int;
  pruned : int;
  rolled_back : int;
  temporary : int;
  truncated : bool;
  guards_tried : int;
  guards_admitted : int;
  index_probes : int;
  index_pruned : int;
}

type result = {
  tokens : Token.t list;
  token_instances : Instance.t list;
  all_live : Instance.t list;
  maximal : Instance.t list;
  complete : Instance.t option;
  stats : stats;
}

exception Truncated

(* The parse-time state is a thin record over the pooled {!Arena}: all
   per-symbol storage lives in the arena's columns, all per-production
   scratch in its flat arrays at the offsets {!Dispatch} assigned at
   compile time.  [small] selects the word-cover fast path (universes of
   at most [Bitset.bits_per_word] tokens — every interface in the
   paper's corpus); larger universes run the same algorithm on boxed
   covers. *)
type state = {
  tables : Dispatch.t;
  arena : Arena.t;
  universe : int;
  small : bool;
  hints_enabled : bool;
  on_kill : Instance.t -> unit;
  mutable next_id : int;
  mutable created : int;
  mutable pruned : int;
  mutable rolled_back : int;
  mutable guards_tried : int;
  mutable guards_admitted : int;
  mutable index_probes : int;
  mutable index_pruned : int;
  options : options;
  gauge : Budget.gauge option;
      (* resource gauge; [None] leaves every code path — and thus every
         instance id — exactly as in the ungoverned parser *)
  trace : Trace.t option;
      (* span/event sink; [None] costs one branch per fix-point round
         and per enforcement — tracing never influences parsing *)
  scope : G.Scope.t;  (* what guards see of the store: [scope_exists] *)
}

(* Deadline probe for hot loops: cheap when the gauge is absent, throttled
   when present.  Raising [Truncated] reuses the parser's existing
   best-effort abort path, so a budget trip still yields maximal partial
   trees. *)
let probe st =
  match st.gauge with
  | None -> ()
  | Some g -> if not (Budget.tick g Budget.Parse) then raise Truncated

(* Live instances of one symbol in creation order (oldest first):
   downstream derivations then inherit the priority that production
   order established (earlier productions yield smaller ids, and
   maximal-tree selection prefers smaller ids on ties).  List-building
   is off the fast path — only the big-universe preference scan uses
   it; the word-cover engine walks columns. *)
let live_instances st sid =
  let col = st.arena.Arena.cols.(sid) in
  let out = ref [] in
  for i = col.Arena.len - 1 downto 0 do
    let inst = Array.unsafe_get col.Arena.inst i in
    if inst.Instance.alive then out := inst :: !out
  done;
  !out

let add_instance st sid (inst : Instance.t) ~bits =
  let a = st.arena in
  let col = a.Arena.cols.(sid) in
  let idx = Arena.push a col inst ~bits in
  Arena.record_id a ~id:inst.Instance.id ~col:sid ~idx

let fresh_id st =
  let id = st.next_id in
  st.next_id <- id + 1;
  id

let charge_instance st =
  if st.created >= st.options.max_instances then raise Truncated;
  match st.gauge with
  | None -> ()
  | Some g -> if not (Budget.instance g) then raise Truncated

(* The children list of a binding row, in component order.  The row
   itself is the arena's reusable scratch: builds read it eagerly and
   keep nothing of it, so no instance needs a private copy. *)
let rec row_children (row : Instance.t array) i acc =
  if i < 0 then acc
  else row_children row (i - 1) (Array.unsafe_get row i :: acc)

(* Boxed creation path (big universes): cover and box recomputed from
   the children by [Instance.make], exactly as the reference semantics
   specify. *)
let create_instance st (fp : Dispatch.fprod) row =
  charge_instance st;
  let p = fp.Dispatch.prod in
  let children = row_children row (fp.Dispatch.arity - 1) [] in
  let sem = p.G.Production.build row in
  let inst =
    Instance.make ~id:(fresh_id st) ~sym:p.head ~prod:p.name ~children ~sem
  in
  st.created <- st.created + 1;
  let bits = if st.small then Bitset.to_word inst.Instance.cover else 0 in
  add_instance st fp.Dispatch.head inst ~bits

(* Word-cover creation path: the enumeration already carried the cover
   as a raw word and the bound slots' coordinates in the arena scratch,
   so the instance is assembled without re-unioning anything.  Field
   values are identical to what [Instance.make] computes. *)
let create_instance_small st (fp : Dispatch.fprod) chosen cover_bits =
  charge_instance st;
  let p = fp.Dispatch.prod in
  let children = row_children chosen (fp.Dispatch.arity - 1) [] in
  let sem = p.G.Production.build chosen in
  let a = st.arena in
  let mb = fp.Dispatch.mark_base in
  let x1 = ref a.Arena.sx1.(mb) and y1 = ref a.Arena.sy1.(mb) in
  let x2 = ref a.Arena.sx2.(mb) and y2 = ref a.Arena.sy2.(mb) in
  for i = 1 to fp.Dispatch.arity - 1 do
    let o = mb + i in
    if a.Arena.sx1.(o) < !x1 then x1 := a.Arena.sx1.(o);
    if a.Arena.sy1.(o) < !y1 then y1 := a.Arena.sy1.(o);
    if a.Arena.sx2.(o) > !x2 then x2 := a.Arena.sx2.(o);
    if a.Arena.sy2.(o) > !y2 then y2 := a.Arena.sy2.(o)
  done;
  let box =
    { Wqi_layout.Geometry.x1 = !x1; y1 = !y1; x2 = !x2; y2 = !y2 }
  in
  let inst =
    Instance.prebuilt ~id:(fresh_id st) ~sym:p.G.Production.head ~prod:p.name
      ~children ~sem
      ~cover:(Bitset.of_word st.universe cover_bits)
      ~box
  in
  st.created <- st.created + 1;
  add_instance st fp.Dispatch.head inst ~bits:cover_bits

let guard_admits st (fp : Dispatch.fprod) chosen =
  st.guards_tried <- st.guards_tried + 1;
  let ok = fp.Dispatch.prod.G.Production.guard st.scope chosen in
  if ok then st.guards_admitted <- st.guards_admitted + 1;
  ok

(* ------------------------------------------------------------------ *)
(* Packed spatial checks                                               *)
(* ------------------------------------------------------------------ *)

(* Exact hint evaluation against the already-bound slots, on raw
   coordinates.  Each tag reproduces the corresponding
   [Wqi_layout.Geometry] predicate verbatim (candidate first), so the
   admitted set is identical to [Hint.holds_rel] on boxes.  Sound
   pre-filtering only: every hint is implied by the guard (the Hint
   contract), so a candidate rejected here could never have produced an
   instance. *)
let checks_hold (a : Arena.t) mb (checks : int array) cx1 cy1 cx2 cy2 =
  let n = Array.length checks in
  let rec go k =
    k >= n
    ||
    let meta = Array.unsafe_get checks k in
    let param = Array.unsafe_get checks (k + 1) in
    let o = mb + (meta lsr 4) in
    let ox1 = Array.unsafe_get a.Arena.sx1 o in
    let oy1 = Array.unsafe_get a.Arena.sy1 o in
    let ox2 = Array.unsafe_get a.Arena.sx2 o in
    let oy2 = Array.unsafe_get a.Arena.sy2 o in
    let ok =
      match meta land 15 with
      | 0 ->
        (* candidate left_of other *)
        cx2 <= ox1 + 2
        && ox1 - cx2 <= param
        && Int.min cy2 oy2 - Int.max cy1 oy1 > 0
      | 1 ->
        (* other left_of candidate *)
        ox2 <= cx1 + 2
        && cx1 - ox2 <= param
        && Int.min cy2 oy2 - Int.max cy1 oy1 > 0
      | 2 ->
        (* candidate above other *)
        cy2 <= oy1 + 2
        && oy1 - cy2 <= param
        && Int.min cx2 ox2 - Int.max cx1 ox1 > 0
      | 3 ->
        (* other above candidate *)
        oy2 <= cy1 + 2
        && cy1 - oy2 <= param
        && Int.min cx2 ox2 - Int.max cx1 ox1 > 0
      | 4 ->
        (* same_row *)
        let ov = Int.min cy2 oy2 - Int.max cy1 oy1 in
        2 * Int.max 0 ov >= Int.max 1 (Int.min (cy2 - cy1) (oy2 - oy1))
      | 5 ->
        (* same_column *)
        let ov = Int.min cx2 ox2 - Int.max cx1 ox1 in
        2 * Int.max 0 ov >= Int.max 1 (Int.min (cx2 - cx1) (ox2 - ox1))
      | 6 -> abs (cx1 - ox1) <= param
      | 7 -> abs (cy1 - oy1) <= param
      | 8 -> abs (cy2 - oy2) <= param
      | 9 ->
        (* candidate adjacent_left other *)
        cx2 <= ox1 + 2
        && ox1 - cx2 < ox2 - ox1
        && Int.min cy2 oy2 - Int.max cy1 oy1 > 0
      | 10 ->
        (* other adjacent_left candidate *)
        ox2 <= cx1 + 2
        && cx1 - ox2 < cx2 - cx1
        && Int.min cy2 oy2 - Int.max cy1 oy1 > 0
      | 11 ->
        (* candidate adjacent_above other *)
        cy2 <= oy1 + 2
        && oy1 - cy2 < oy2 - oy1
        && Int.min cx2 ox2 - Int.max cx1 ox1 > 0
      | _ ->
        (* other adjacent_above candidate *)
        oy2 <= cy1 + 2
        && cy1 - oy2 < cy2 - cy1
        && Int.min cx2 ox2 - Int.max cx1 ox1 > 0
    in
    ok && go (k + 2)
  in
  go 0

(* Narrow the arena's probe interval on one axis to [lo, hi] when that
   is tighter than what an earlier hint set. *)
let set_y (a : Arena.t) lo hi =
  if (not a.Arena.pr_have_y) || hi - lo < a.Arena.pr_y_hi - a.Arena.pr_y_lo
  then begin
    a.Arena.pr_have_y <- true;
    a.Arena.pr_y_lo <- lo;
    a.Arena.pr_y_hi <- hi
  end

let set_x (a : Arena.t) lo hi =
  if (not a.Arena.pr_have_x) || hi - lo < a.Arena.pr_x_hi - a.Arena.pr_x_lo
  then begin
    a.Arena.pr_have_x <- true;
    a.Arena.pr_x_lo <- lo;
    a.Arena.pr_x_hi <- hi
  end

(* Pick the tightest conservative probe region the bound anchors allow:
   the narrowest y-interval drives the band probe, the narrowest
   x-interval pre-filters entries.  Intervals from different hints can
   be combined axis-by-axis because each is independently implied by
   the guard.  The per-tag regions are [Hint.region] evaluated on the
   anchor's coordinates, except that an adjacency anchored on its first
   box — whose gap only the candidate's own extent bounds, so
   [Hint.region] leaves that axis open — is bounded by the widest or
   tallest box in the candidate's column ([cmax_w], [cmax_h]); results
   land in the arena's [pr_*] scratch.
   Returns false when no hint constrains y — the band index cannot help
   then, and the caller falls back to a scan. *)
let probe_region (a : Arena.t) mb (checks : int array) ~cmax_w ~cmax_h =
  a.Arena.pr_have_y <- false;
  a.Arena.pr_have_x <- false;
  let n = Array.length checks in
  let k = ref 0 in
  while !k < n do
    let meta = Array.unsafe_get checks !k in
    let param = Array.unsafe_get checks (!k + 1) in
    let o = mb + (meta lsr 4) in
    let ox1 = Array.unsafe_get a.Arena.sx1 o in
    let oy1 = Array.unsafe_get a.Arena.sy1 o in
    let ox2 = Array.unsafe_get a.Arena.sx2 o in
    let oy2 = Array.unsafe_get a.Arena.sy2 o in
    (match meta land 15 with
     | 0 ->
       set_y a oy1 oy2;
       set_x a (ox1 - param) (ox1 + 2)
     | 1 ->
       set_y a oy1 oy2;
       set_x a (ox2 - 2) (ox2 + param)
     | 2 ->
       set_y a (oy1 - param) (oy1 + 2);
       set_x a ox1 ox2
     | 3 ->
       set_y a (oy2 - 2) (oy2 + param);
       set_x a ox1 ox2
     | 4 -> set_y a oy1 oy2
     | 5 -> set_x a ox1 ox2
     | 6 -> set_x a (ox1 - param) (ox1 + param)
     | 7 -> set_y a (oy1 - param) (oy1 + param)
     | 8 -> set_y a (oy2 - param) (oy2 + param)
     | 9 ->
       set_y a oy1 oy2;
       set_x a (ox1 - (ox2 - ox1)) (ox1 + 2)
     | 10 ->
       set_y a oy1 oy2;
       set_x a (ox2 - 2) (ox2 + cmax_w)
     | 11 ->
       set_y a (oy1 - (oy2 - oy1)) (oy1 + 2);
       set_x a ox1 ox2
     | _ ->
       set_y a (oy2 - 2) (oy2 + cmax_h);
       set_x a ox1 ox2);
    k := !k + 2
  done;
  a.Arena.pr_have_y

(* Scans shorter than this are cheaper than a banded probe.  Arena
   probing is cheap enough that only very short scans should bypass it
   (the old threshold of 16 left 10-20-token parses entirely unhinted —
   the BENCH_parse parse/20 anomaly). *)
let probe_min_scan = 4

(* Decide how slot [i] enumerates its candidates in [start, stop): when
   the slot carries hints, the scan is long enough and a hint bounds y,
   query the row-band index into the slot's probe buffer and return the
   candidate count (the indices, ascending, are the buffer's prefix);
   otherwise return -1 and the caller scans the range itself.  Either
   way one candidate body serves both walks, with no closure — a
   closure would capture the per-recursion cover and be allocated on
   every slot visit of every partial binding. *)
let probe_candidates st (col : Arena.col) i mb checks ~start ~stop =
  let a = st.arena in
  if
    Array.length checks = 0
    || stop - start < probe_min_scan
    || not
         (probe_region a mb checks ~cmax_w:col.Arena.max_w
            ~cmax_h:col.Arena.max_h)
  then -1
  else begin
    let x_lo = if a.Arena.pr_have_x then a.Arena.pr_x_lo else min_int in
    let x_hi = if a.Arena.pr_have_x then a.Arena.pr_x_hi else max_int in
    Arena.sync_index col;
    let n =
      Spatial_index.query_into col.Arena.index ~y_lo:a.Arena.pr_y_lo
        ~y_hi:a.Arena.pr_y_hi ~x_lo ~x_hi ~start ~stop a.Arena.qbufs.(i)
    in
    st.index_probes <- st.index_probes + 1;
    st.index_pruned <- st.index_pruned + (stop - start) - n;
    n
  end

(* A guard's view of the store ({!G.Scope}): is some live instance of
   [sym] accepted by [test]?  With hints on and a y-bounded region the
   symbol's row-band index narrows the walk, otherwise the whole column
   is scanned; [test] implies the region, so both walks give the same
   answer. *)
let scope_exists st sym (r : G.Hint.region) test =
  match Hashtbl.find_opt st.tables.Dispatch.ids sym with
  | None -> false
  | Some sid ->
    let a = st.arena in
    let col = a.Arena.cols.(sid) in
    let len = col.Arena.len in
    let hit idx =
      Bytes.unsafe_get col.Arena.alive idx <> '\000'
      && test (Array.unsafe_get col.Arena.inst idx)
    in
    (match r.G.Hint.y with
     | Some (y_lo, y_hi) when st.hints_enabled && len >= probe_min_scan ->
       let x_lo, x_hi =
         match r.G.Hint.x with
         | Some (lo, hi) -> (lo, hi)
         | None -> (min_int, max_int)
       in
       Arena.sync_index col;
       let n =
         Spatial_index.query_into col.Arena.index ~y_lo ~y_hi ~x_lo ~x_hi
           ~start:0 ~stop:len a.Arena.sbuf
       in
       st.index_probes <- st.index_probes + 1;
       st.index_pruned <- st.index_pruned + len - n;
       let buf = !(a.Arena.sbuf) in
       let rec go k = k < n && (hit (Array.unsafe_get buf k) || go (k + 1)) in
       go 0
     | _ ->
       let rec go idx = idx < len && (hit idx || go (idx + 1)) in
       go 0)

(* ------------------------------------------------------------------ *)
(* Semi-naive production application                                   *)
(* ------------------------------------------------------------------ *)

(* Semi-naive application of one production (the Datalog delta trick).
   Each component slot records the store length seen at the previous
   application; a candidate at an index past that watermark is "delta".
   Only combinations binding at least one delta child are enumerated —
   every older combination was enumerated by an earlier round, so no
   dedup table is needed.  The enumeration order is the same
   lexicographic nested-loop order as the naive reference (the delta
   requirement only skips subtrees the reference would have discarded
   against its dedup table), so instance ids — and therefore every
   downstream tie-break — come out identical.

   When the production carries hints and the engine has them enabled,
   slots whose hints anchor to an already-bound component enumerate the
   spatially compatible candidate subset instead of the whole store:
   either through the row-band index (candidates come back in ascending
   creation order, so the enumeration order is untouched) or, for short
   scans, by checking the packed relations inline before recursing.
   The guard is still evaluated on every surviving combination.

   Common prologue for both cover representations: snapshot the slot
   lengths (instances created by this very application only become
   candidates in the next round, as in the reference), compute the
   delta-from flags, and report whether anything can fire at all.
   Returns true when the enumeration should run. *)
let application_ready (a : Arena.t) (fp : Dispatch.fprod) =
  let arity = fp.Dispatch.arity in
  let mb = fp.Dispatch.mark_base and db = fp.Dispatch.delta_base in
  let marks = a.Arena.marks and lens = a.Arena.lens in
  let pcols = a.Arena.pcols.(fp.Dispatch.ord) in
  let nothing_new = ref true and any_empty = ref false in
  for i = 0 to arity - 1 do
    let l = (Array.unsafe_get pcols i).Arena.len in
    Array.unsafe_set lens (mb + i) l;
    if l = 0 then any_empty := true;
    if l > Array.unsafe_get marks (mb + i) then nothing_new := false
  done;
  if !nothing_new then false
  else if !any_empty then begin
    (* A component has no instances at all: the production cannot fire,
       but the watermarks still advance past whatever the other slots
       gained. *)
    Array.blit lens mb marks mb arity;
    false
  end
  else begin
    let deltas = a.Arena.deltas in
    (* delta flag at [db + i]: some slot >= i has delta candidates. *)
    Bytes.unsafe_set deltas (db + arity) '\000';
    for i = arity - 1 downto 0 do
      Bytes.unsafe_set deltas (db + i)
        (if
           Bytes.unsafe_get deltas (db + i + 1) <> '\000'
           || Array.unsafe_get lens (mb + i) > Array.unsafe_get marks (mb + i)
         then '\001'
         else '\000')
    done;
    true
  end

(* Word-cover enumeration: covers are raw ints carried through the
   recursion (zero allocation per step), candidate filtering runs on the
   arena columns, and the instance is assembled from tracked state.
   Cheapest rejections first: liveness, then cover disjointness (word
   operations), then the packed hint relations — geometry runs only on
   candidates that would otherwise recurse.  Filter order cannot change
   the admitted set, only who pays for the rejection. *)
let apply_production_small st (fp : Dispatch.fprod) =
  let a = st.arena in
  if not (application_ready a fp) then false
  else begin
    let arity = fp.Dispatch.arity in
    let mb = fp.Dispatch.mark_base and db = fp.Dispatch.delta_base in
    let marks = a.Arena.marks and lens = a.Arena.lens in
    let deltas = a.Arena.deltas in
    let pcols = a.Arena.pcols.(fp.Dispatch.ord) in
    let chosen = a.Arena.chosen.(fp.Dispatch.ord) in
    let all_checks = fp.Dispatch.checks in
    let added = ref false in
    let rec assign i cover have_delta =
      probe st;
      if i = arity then begin
        if guard_admits st fp chosen then begin
          create_instance_small st fp chosen cover;
          added := true
        end
      end
      else begin
        let col = Array.unsafe_get pcols i in
        let checks =
          if st.hints_enabled then Array.unsafe_get all_checks i
          else Dispatch.no_checks
        in
        let mark0 = Array.unsafe_get marks (mb + i) in
        (* If no delta child is bound yet and no later slot can supply
           one, this slot must: start at its watermark. *)
        let start =
          if have_delta || Bytes.unsafe_get deltas (db + i + 1) <> '\000'
          then 0
          else mark0
        in
        let stop = Array.unsafe_get lens (mb + i) in
        let insts = col.Arena.inst and cbits = col.Arena.bits in
        let ax1 = col.Arena.x1 and ay1 = col.Arena.y1 in
        let ax2 = col.Arena.x2 and ay2 = col.Arena.y2 in
        let alive = col.Arena.alive in
        let nchecks = Array.length checks in
        let probed = probe_candidates st col i mb checks ~start ~stop in
        let cands = !(Array.unsafe_get a.Arena.qbufs i) in
        let lo = if probed < 0 then start else 0 in
        let hi = if probed < 0 then stop else probed in
        for k = lo to hi - 1 do
          let idx = if probed < 0 then k else Array.unsafe_get cands k in
          if Bytes.unsafe_get alive idx <> '\000' then begin
            let cb = Array.unsafe_get cbits idx in
            if cb land cover = 0 then begin
              let x1 = Array.unsafe_get ax1 idx in
              let y1 = Array.unsafe_get ay1 idx in
              let x2 = Array.unsafe_get ax2 idx in
              let y2 = Array.unsafe_get ay2 idx in
              if nchecks = 0 || checks_hold a mb checks x1 y1 x2 y2 then begin
                Array.unsafe_set chosen i (Array.unsafe_get insts idx);
                let o = mb + i in
                Array.unsafe_set a.Arena.sx1 o x1;
                Array.unsafe_set a.Arena.sy1 o y1;
                Array.unsafe_set a.Arena.sx2 o x2;
                Array.unsafe_set a.Arena.sy2 o y2;
                assign (i + 1) (cover lor cb) (have_delta || idx >= mark0)
              end
            end
          end
        done
      end
    in
    (try assign 0 0 false
     with Truncated ->
       Array.blit lens mb marks mb arity;
       raise Truncated);
    Array.blit lens mb marks mb arity;
    !added
  end

(* Boxed-cover enumeration for universes past one word: same delta
   discipline and candidate filtering (the coordinate columns and
   packed checks still apply), with covers as [Bitset.t]. *)
let apply_production_big st (fp : Dispatch.fprod) =
  let a = st.arena in
  if not (application_ready a fp) then false
  else begin
    let arity = fp.Dispatch.arity in
    let mb = fp.Dispatch.mark_base and db = fp.Dispatch.delta_base in
    let marks = a.Arena.marks and lens = a.Arena.lens in
    let deltas = a.Arena.deltas in
    let pcols = a.Arena.pcols.(fp.Dispatch.ord) in
    let chosen = a.Arena.chosen.(fp.Dispatch.ord) in
    let all_checks = fp.Dispatch.checks in
    let added = ref false in
    let rec assign i cover have_delta =
      probe st;
      if i = arity then begin
        if guard_admits st fp chosen then begin
          create_instance st fp chosen;
          added := true
        end
      end
      else begin
        let col = Array.unsafe_get pcols i in
        let checks =
          if st.hints_enabled then Array.unsafe_get all_checks i
          else Dispatch.no_checks
        in
        let mark0 = Array.unsafe_get marks (mb + i) in
        let start =
          if have_delta || Bytes.unsafe_get deltas (db + i + 1) <> '\000'
          then 0
          else mark0
        in
        let stop = Array.unsafe_get lens (mb + i) in
        let insts = col.Arena.inst in
        let ax1 = col.Arena.x1 and ay1 = col.Arena.y1 in
        let ax2 = col.Arena.x2 and ay2 = col.Arena.y2 in
        let alive = col.Arena.alive in
        let nchecks = Array.length checks in
        let probed = probe_candidates st col i mb checks ~start ~stop in
        let cands = !(Array.unsafe_get a.Arena.qbufs i) in
        let lo = if probed < 0 then start else 0 in
        let hi = if probed < 0 then stop else probed in
        for k = lo to hi - 1 do
          let idx = if probed < 0 then k else Array.unsafe_get cands k in
          if Bytes.unsafe_get alive idx <> '\000' then begin
            let cand = Array.unsafe_get insts idx in
            if Bitset.disjoint cover cand.Instance.cover then begin
              let x1 = Array.unsafe_get ax1 idx in
              let y1 = Array.unsafe_get ay1 idx in
              let x2 = Array.unsafe_get ax2 idx in
              let y2 = Array.unsafe_get ay2 idx in
              if nchecks = 0 || checks_hold a mb checks x1 y1 x2 y2 then begin
                Array.unsafe_set chosen i cand;
                let o = mb + i in
                Array.unsafe_set a.Arena.sx1 o x1;
                Array.unsafe_set a.Arena.sy1 o y1;
                Array.unsafe_set a.Arena.sx2 o x2;
                Array.unsafe_set a.Arena.sy2 o y2;
                assign (i + 1)
                  (Bitset.union cover cand.Instance.cover)
                  (have_delta || idx >= mark0)
              end
            end
          end
        done
      end
    in
    (try assign 0 (Bitset.empty st.universe) false
     with Truncated ->
       Array.blit lens mb marks mb arity;
       raise Truncated);
    Array.blit lens mb marks mb arity;
    !added
  end

(* Fix-point instantiation of one symbol (procedure [instantiate] of
   Figure 11).  Under a trace, every fix-point round becomes one span
   carrying the [stats] deltas it produced — which round of which symbol
   created, pruned and rolled back how much, and what the guards and the
   spatial index did for it.  The untraced path is the code that existed
   before tracing: one [None] branch per round. *)
let instantiate st sid =
  let prods = st.tables.Dispatch.prods in
  let ords = st.tables.Dispatch.by_head.(sid) in
  let apply =
    if st.small then apply_production_small else apply_production_big
  in
  let run_round () =
    let progressed = ref false in
    for k = 0 to Array.length ords - 1 do
      if apply st prods.(Array.unsafe_get ords k) then progressed := true
    done;
    !progressed
  in
  let sym_name =
    match st.trace with
    | None -> ""
    | Some _ -> Fmt.str "%a" Symbol.pp st.tables.Dispatch.syms.(sid)
  in
  let rec loop round =
    (match st.gauge with
     | None -> ()
     | Some g -> if not (Budget.round g) then raise Truncated);
    let progressed =
      match st.trace with
      | None -> run_round ()
      | Some _ ->
        let t0 = Budget.now_s () in
        let created0 = st.created and pruned0 = st.pruned in
        let rolled0 = st.rolled_back in
        let tried0 = st.guards_tried and admitted0 = st.guards_admitted in
        let probes0 = st.index_probes and ipruned0 = st.index_pruned in
        let progressed = run_round () in
        Trace.span st.trace ~cat:"parser.round" sym_name ~t0
          ~t1:(Budget.now_s ())
          ~args:
            [ ("round", Trace.Int round);
              ("created", Trace.Int (st.created - created0));
              ("pruned", Trace.Int (st.pruned - pruned0));
              ("rolled_back", Trace.Int (st.rolled_back - rolled0));
              ("guards_tried", Trace.Int (st.guards_tried - tried0));
              ("guards_admitted",
               Trace.Int (st.guards_admitted - admitted0));
              ("index_probes", Trace.Int (st.index_probes - probes0));
              ("index_pruned", Trace.Int (st.index_pruned - ipruned0)) ];
        progressed
    in
    if progressed then loop (round + 1)
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Preference enforcement                                              *)
(* ------------------------------------------------------------------ *)

(* The reference pair test and kill of procedure [enforce].  A kill
   rolls the loser back with every live ancestor built on it; what it
   kills, and so what it adds to [pruned] and [rolled_back], depends
   only on the loser and the live set, never on the winner. *)
let kill_loser st (v2 : Instance.t) =
  let killed = Instance.rollback ~on_kill:st.on_kill v2 in
  st.pruned <- st.pruned + 1;
  st.rolled_back <- st.rolled_back + (killed - 1)

(* Mark in [marks] every instance built on [v] — its transitive parents,
   live or dead — and return their ids.  Children lists are fixed at
   creation and every parent registers itself with its children, so
   this is exactly the set of instances [Instance.is_descendant v ~of_]
   accepts, computed once per loser instead of walked per winner. *)
let mark_ancestors marks (v : Instance.t) =
  let ids = ref [] in
  let rec go (i : Instance.t) =
    List.iter
      (fun (p : Instance.t) ->
         if Bytes.unsafe_get marks p.id = '\000' then begin
           Bytes.unsafe_set marks p.id '\001';
           ids := p.id :: !ids;
           go p
         end)
      i.parents
  in
  go v;
  !ids

(* Boxed enforcement (universes past one word): each loser, in creation
   order, meets its candidate winners until one kills it — the
   reference pair test of procedure [enforce] with its conjuncts
   reordered, which cannot change a pure conjunction.  As in
   [enforce_columns], winner order is free while the loser lives, and
   enforcement only ever kills, so snapshotting both sides and
   re-checking [alive] per pair equals re-filtering the store after
   every rollback.

   A winner must share a token with the loser, so the candidates are
   either every winner or the merged buckets of the loser's tokens,
   whichever is shorter: row-local preferences on many-row interfaces
   meet a few winners each, while a nested chain (QI over rows 1..k
   for every k) would gather each winner once per shared token.  The
   descent test runs right after the conflict test and costs one byte:
   a winner created after the loser is looked up in the loser's
   ancestor marks, drawn on first need — a chain's winners are all its
   losers' ancestors, and walking down to each loser per winner would
   cost the chain's length per pair. *)
let enforce_boxed st (fr : Dispatch.fpref) =
  let r = fr.Dispatch.pref in
  let warr = Array.of_list (live_instances st fr.Dispatch.wsid) in
  let losers = live_instances st fr.Dispatch.lsid in
  let nw = Array.length warr in
  if nw > 0 then begin
    let sizes = Array.make st.universe 0 in
    Array.iter
      (fun (w : Instance.t) ->
         Bitset.iter (fun t -> sizes.(t) <- sizes.(t) + 1) w.cover)
      warr;
    let buckets =
      lazy
        (let b = Array.make st.universe [] in
         for ord = nw - 1 downto 0 do
           Bitset.iter
             (fun t -> b.(t) <- ord :: b.(t))
             warr.(ord).Instance.cover
         done;
         b)
    in
    let marks = Bytes.make st.next_id '\000' in
    let seen = Bytes.make nw '\000' in
    List.iter
      (fun (v2 : Instance.t) ->
         probe st;
         if v2.alive then begin
           let marked = ref None in
           let spared (v1 : Instance.t) =
             v1.id > v2.id
             &&
             (if Option.is_none !marked then
                marked := Some (mark_ancestors marks v2);
              Bytes.unsafe_get marks v1.id <> '\000')
           in
           let try_winner ord =
             let v1 = Array.unsafe_get warr ord in
             if v1.alive && v2.alive && v1.id <> v2.id
                && Instance.conflicts v1 v2
                && (not (spared v1))
                && r.conflict v1 v2 && r.wins v1 v2
             then kill_loser st v2
           in
           let gathered = ref 0 in
           Bitset.iter (fun t -> gathered := !gathered + sizes.(t)) v2.cover;
           if !gathered >= nw then begin
             let ord = ref 0 in
             while v2.alive && !ord < nw do
               try_winner !ord;
               incr ord
             done
           end
           else begin
             (* Dedup by marking winner ordinals: each bucket entry is
                visited once, and only the marked ordinals are sorted
                back into creation order. *)
             let buckets = Lazy.force buckets in
             let touched = ref [] in
             Bitset.iter
               (fun t ->
                  List.iter
                    (fun ord ->
                       if Bytes.unsafe_get seen ord = '\000' then begin
                         Bytes.unsafe_set seen ord '\001';
                         touched := ord :: !touched
                       end)
                    buckets.(t))
               v2.cover;
             List.iter
               (fun ord ->
                  Bytes.unsafe_set seen ord '\000';
                  try_winner ord)
               (List.sort Int.compare !touched)
           end;
           match !marked with
           | None -> ()
           | Some ids ->
             List.iter (fun id -> Bytes.unsafe_set marks id '\000') ids
         end)
      losers
  end

(* Column enforcement for word-cover universes: [try_kill] on the arena
   columns.  Liveness is the [alive] bytes, identity is (column, index),
   conflict is a cover-word intersection, and descent — which needs the
   loser's cover inside the winner's and, since children are created
   before their parents, the loser's id below the winner's — is walked
   only when both word tests pass.

   Each loser meets the winners newest first and its scan stops at its
   first kill.  Winner order is free: until the loser dies nothing is
   killed, so every pair of its scan sees the same live set; the pair
   tests are pure functions of the two instances; and a kill's effect
   depends on the loser alone (see [kill_loser]).  So whichever winner
   strikes first, the loser dies exactly when some winner would kill it
   in the creation-order scan, with the same rollback — the kills, their
   order and every counter match [enforce_boxed].  Newest first finds
   the killer early: a subsumption winner is usually the latest, widest
   instance of its symbol. *)
let enforce_columns st (fr : Dispatch.fpref) =
  let r = fr.Dispatch.pref in
  let a = st.arena in
  let wcol = a.Arena.cols.(fr.Dispatch.wsid) in
  let lcol = a.Arena.cols.(fr.Dispatch.lsid) in
  let same = fr.Dispatch.wsid = fr.Dispatch.lsid in
  let wlen = wcol.Arena.len and llen = lcol.Arena.len in
  if wlen > 0 then begin
    let winsts = wcol.Arena.inst and wbits = wcol.Arena.bits in
    let walive = wcol.Arena.alive in
    let linsts = lcol.Arena.inst and lbits = lcol.Arena.bits in
    let lalive = lcol.Arena.alive in
    for li = 0 to llen - 1 do
      if Bytes.unsafe_get lalive li <> '\000' then begin
        probe st;
        let lb = Array.unsafe_get lbits li in
        let v2 = Array.unsafe_get linsts li in
        let wi = ref (wlen - 1) in
        while !wi >= 0 do
          let w = !wi in
          let wb = Array.unsafe_get wbits w in
          if
            wb land lb <> 0
            && Bytes.unsafe_get walive w <> '\000'
            && not (same && w = li)
            &&
            let v1 = Array.unsafe_get winsts w in
            r.conflict v1 v2 && r.wins v1 v2
            && not
                 (lb land lnot wb = 0
                  && v2.Instance.id < v1.Instance.id
                  && Instance.is_descendant v2 ~of_:v1)
          then begin
            kill_loser st v2;
            wi := -1
          end
          else wi := w - 1
        done
      end
    done
  end

(* Enforce one preference over the current instances (procedure
   [enforce]).  Under a trace, an enforcement that killed something
   becomes one span naming the preference and its kill counts; silent
   enforcements (no conflict on the current front) are not recorded — a
   trace shows where trees died, not every scan. *)
let enforce st (fr : Dispatch.fpref) =
  let scan = if st.small then enforce_columns else enforce_boxed in
  match st.trace with
  | None -> scan st fr
  | Some _ ->
    let t0 = Budget.now_s () in
    let pruned0 = st.pruned and rolled0 = st.rolled_back in
    scan st fr;
    if st.pruned > pruned0 || st.rolled_back > rolled0 then
      Trace.span st.trace ~cat:"parser.enforce"
        fr.Dispatch.pref.G.Preference.name ~t0
        ~t1:(Budget.now_s ())
        ~args:
          [ ("pruned", Trace.Int (st.pruned - pruned0));
            ("rolled_back", Trace.Int (st.rolled_back - rolled0)) ]

(* d-edge-only topological order, used when scheduling is disabled. *)
let d_only_order (g : G.Grammar.t) =
  let bare =
    G.Grammar.make ~terminals:g.terminals ~start:g.start
      ~productions:g.productions ()
  in
  (G.Schedule.build bare).G.Schedule.order

(* ------------------------------------------------------------------ *)
(* Result assembly                                                     *)
(* ------------------------------------------------------------------ *)

(* Every instance id below [next_id] was recorded with its column slot,
   so walking ids downward conses the live list already in id order. *)
let all_live_list st =
  let a = st.arena in
  let out = ref [] in
  for id = st.next_id - 1 downto 0 do
    let col = Array.unsafe_get a.Arena.cols (Array.unsafe_get a.Arena.id2col id) in
    let inst = Array.unsafe_get col.Arena.inst (Array.unsafe_get a.Arena.id2idx id) in
    if inst.Instance.alive then out := inst :: !out
  done;
  !out

(* Distinct instances reachable from [roots]; ids are dense below
   [ids]. *)
let count_reachable ~ids roots =
  let seen = Bytes.make ids '\000' in
  let count = ref 0 in
  let rec go (i : Instance.t) =
    if Bytes.unsafe_get seen i.id = '\000' then begin
      Bytes.unsafe_set seen i.id '\001';
      incr count;
      List.iter go i.children
    end
  in
  List.iter go roots;
  !count

(* When a parse is truncated — by a budget trip or by
   [options.max_instances], which are one cut — the instance store can
   hold far more tops than any intact interface produces (an
   exhaustive-mode blow-up creates tens of thousands), and the
   quadratic subsumption pass below would dwarf the limit that stopped
   the parse.  Maximization is then best-effort too: only this many of
   the best-ranked tops enter subsumption.  Complete runs are never
   windowed. *)
let tripped_tops_window = 1024

let maximal_trees ~tripped all_live =
  let tops =
    List.filter
      (fun (i : Instance.t) ->
         (not (Symbol.is_terminal i.sym))
         && not (List.exists (fun (p : Instance.t) -> p.alive) i.parents))
      all_live
  in
  (* Maximum subsumption: drop any top whose cover is contained in the
     cover of an already-kept top.  Sorting big-to-small makes one pass
     sufficient and keeps the result deterministic. *)
  (* Between equal covers, prefer the interpretation that yields query
     conditions (e.g. an EnumRB top over a bare Op top), then the earliest
     instance for determinism.  The keys are computed once up front:
     [collect_conditions] walks the tree, far too costly inside a sort
     comparator when tops number in the thousands. *)
  let decorated =
    List.map
      (fun (i : Instance.t) ->
         (Bitset.cardinal i.cover, Instance.count_conditions i, i))
      tops
  in
  let sorted =
    List.sort
      (fun (na, ca, (a : Instance.t)) (nb, cb, (b : Instance.t)) ->
         match Int.compare nb na with
         | 0 ->
           (match Int.compare cb ca with
            | 0 -> Int.compare a.id b.id
            | c -> c)
         | c -> c)
      decorated
    |> List.map (fun (_, _, i) -> i)
  in
  let sorted =
    if tripped then List.filteri (fun i _ -> i < tripped_tops_window) sorted
    else sorted
  in
  List.rev
    (List.fold_left
       (fun kept (t : Instance.t) ->
          if List.exists (fun (k : Instance.t) -> Bitset.subset t.cover k.Instance.cover) kept
          then kept
          else t :: kept)
       [] sorted)

(* ------------------------------------------------------------------ *)
(* Compiled packs and the parse driver                                 *)
(* ------------------------------------------------------------------ *)

type compiled = {
  grammar : G.Grammar.t;
  name : string;
  version : string;
  order_ids : int array;
  d_order_ids : int array;
  relaxed : Dispatch.fpref array;
  tables : Dispatch.t;
  pool : Arena.pool;
}

(* Everything is computed eagerly: compiled packs are shared across
   serving domains, and a lazy thunk forced concurrently from several
   domains would race.  (The arena pool is the one mutable member, and
   it is a lock-free Atomic stack.) *)
let compile ?(name = "anonymous") ?(version = "0") grammar =
  let schedule = G.Schedule.build grammar in
  let d_order = d_only_order grammar in
  let tables = Dispatch.build grammar in
  let ids order = Array.of_list (List.map (Dispatch.sym_id tables) order) in
  { grammar;
    name;
    version;
    order_ids = ids schedule.G.Schedule.order;
    d_order_ids = ids d_order;
    relaxed =
      Array.of_list
        (List.map
           (fun r ->
              match
                Array.find_opt
                  (fun (fr : Dispatch.fpref) -> fr.Dispatch.pref == r)
                  tables.Dispatch.prefs
              with
              | Some fr -> fr
              | None -> invalid_arg "Engine.compile: unknown relaxed preference")
           schedule.G.Schedule.relaxed);
    tables;
    pool = Arena.make_pool () }

let parse ?gauge ?trace ?(options = default_options) compiled tokens =
  let grammar = compiled.grammar in
  let tables = compiled.tables in
  let universe = List.length tokens in
  let hints_enabled = options.use_hints in
  let arena = Arena.acquire compiled.pool tables in
  Fun.protect ~finally:(fun () -> Arena.release compiled.pool arena)
  @@ fun () ->
  let on_kill =
    (* Mirror rollback kills into the liveness column (and the spatial
       index's dead-entry accounting) — rollback walks boxed parent
       links across symbols, so the column cannot learn about kills any
       other way. *)
    fun (i : Instance.t) ->
      let id = i.Instance.id in
      let col = arena.Arena.cols.(arena.Arena.id2col.(id)) in
      let idx = arena.Arena.id2idx.(id) in
      Bytes.unsafe_set col.Arena.alive idx '\000';
      (* Compaction accounting only concerns registered entries. *)
      if hints_enabled && idx < col.Arena.indexed then
        Spatial_index.note_killed col.Arena.index
  in
  let rec st =
    { tables;
      arena;
      universe;
      small = universe <= Bitset.bits_per_word;
      hints_enabled;
      on_kill;
      next_id = 0;
      created = 0;
      pruned = 0;
      rolled_back = 0;
      guards_tried = 0;
      guards_admitted = 0;
      index_probes = 0;
      index_pruned = 0;
      options;
      gauge;
      trace;
      scope =
        { G.Scope.exists = (fun sym r test -> scope_exists st sym r test) } }
  in
  let truncated = ref false in
  (* Token instances are charged against the budget too: on a trip the
     instances built so far are kept (a prefix in reading order) and the
     derivation phase is skipped — the merger still sees the full token
     list and reports the remainder as unparsed. *)
  let token_instances =
    let rec go acc = function
      | [] -> List.rev acc
      | tok :: rest ->
        let within =
          match gauge with None -> true | Some g -> Budget.instance g
        in
        if not within then begin
          truncated := true;
          List.rev acc
        end
        else begin
          let inst = Instance.of_token ~id:(fresh_id st) ~universe tok in
          st.created <- st.created + 1;
          let sid = Dispatch.token_sid tok.Token.kind in
          let bits = if st.small then 1 lsl tok.Token.id else 0 in
          add_instance st sid inst ~bits;
          go (inst :: acc) rest
        end
    in
    go [] tokens
  in
  let order =
    if options.use_scheduling then compiled.order_ids
    else compiled.d_order_ids
  in
  (try
     if not !truncated then begin
       Array.iter
         (fun sid ->
            Log.debug (fun m ->
                m "instantiating %a" Symbol.pp tables.Dispatch.syms.(sid));
            instantiate st sid;
            if options.use_preferences && options.use_scheduling then
              Array.iter (enforce st) tables.Dispatch.prefs_by_sym.(sid))
         order;
       (* Late pruning when scheduling is off; also a final sweep in the
          scheduled mode for relaxed preferences whose loser precedes its
          winner. *)
       if options.use_preferences then
         if not options.use_scheduling then
           Array.iter (enforce st) tables.Dispatch.prefs
         else Array.iter (enforce st) compiled.relaxed
     end
   with Truncated -> truncated := true);
  if !truncated then
    Trace.instant trace ~cat:"parser"
      ~args:[ ("created", Trace.Int st.created) ]
      "budget_trip";
  let all_live = all_live_list st in
  let maximal =
    Trace.with_span trace ~cat:"parser" "maximize" (fun () ->
        maximal_trees ~tripped:!truncated all_live)
  in
  let complete =
    List.find_opt
      (fun (i : Instance.t) ->
         Symbol.equal i.sym grammar.start
         && Bitset.cardinal i.cover = universe)
      all_live
  in
  let temporary = st.created - count_reachable ~ids:st.next_id maximal in
  { tokens;
    token_instances;
    all_live;
    maximal;
    complete;
    stats =
      { created = st.created;
        live = List.length all_live;
        pruned = st.pruned;
        rolled_back = st.rolled_back;
        temporary;
        truncated = !truncated;
        guards_tried = st.guards_tried;
        guards_admitted = st.guards_admitted;
        index_probes = st.index_probes;
        index_pruned = st.index_pruned } }

let count_trees result =
  let universe = List.length result.tokens in
  let complete_trees =
    List.filter
      (fun (i : Instance.t) ->
         (not (Symbol.is_terminal i.sym))
         && Bitset.cardinal i.cover = universe)
      result.all_live
  in
  let start_trees =
    List.filter
      (fun (i : Instance.t) -> Option.is_some i.prod)
      complete_trees
  in
  match start_trees with
  | [] -> List.length result.maximal
  | _ :: _ -> List.length start_trees
