(* The unboxed instance arena: per-symbol columns of parallel arrays
   indexed by creation order within the symbol's store.  The parser's
   inner loops (delta enumeration, hint checks, preference kill scans)
   run entirely on the int columns — each cover as [nw] raw words, boxes
   as four coordinate arrays, liveness as bytes — and only touch the
   boxed {!Wqi_grammar.Instance.t} (kept alongside, since results must
   still be instance trees) when a candidate survives every filter.
   [nw] is the universe's word count ([max 1], so an empty universe
   still has a slot), fixed per parse by {!set_universe}: one layout
   for every universe size.

   Arenas are pooled on the compiled grammar pack and bulk-reset between
   parses, so a steady-state parse allocates instances, result lists and
   little else.  The pool is a lock-free Atomic stack: compiled packs
   are shared across serving domains, and within a domain systhread
   handlers can interleave parses, so acquire/release must be safe from
   anywhere. *)

module G = Wqi_grammar
module Instance = G.Instance
module Spatial_index = G.Spatial_index
module Token = Wqi_token.Token

type col = {
  mutable inst : Instance.t array;
  mutable covers : int array;
      (* [nw] cover words per entry, entry [i] at [i * nw]; word [k]
         holds tokens [k * bits_per_word ..], as in {!Bitset} *)
  mutable x1 : int array;
  mutable y1 : int array;
  mutable x2 : int array;
  mutable y2 : int array;
  mutable alive : Bytes.t;  (* mirror of [Instance.alive], kill-only *)
  mutable len : int;
  mutable index : Spatial_index.t;
  mutable indexed : int;
      (* entries registered in [index] so far: the index is built
         lazily, on the first probe that wants a column's entries, so
         parses (and symbols) that never probe pay nothing for it *)
  mutable max_w : int;
  mutable max_h : int;
      (* the widest and tallest box pushed so far: they bound an
         adjacency probe anchored on the relation's first box, whose
         gap the candidate's own extent bounds *)
}

type t = {
  cols : col array;  (* one per interned symbol *)
  pcols : col array array;  (* per production, its slots' columns *)
  chosen : Instance.t array array;  (* per production, binding row *)
  marks : int array;  (* flat watermarks, offset by fprod.mark_base *)
  lens : int array;  (* per-application length snapshots, same layout *)
  sx1 : int array;  (* bound-slot coordinates, same layout: written *)
  sy1 : int array;  (* when a slot binds, read by later slots' checks *)
  sx2 : int array;  (* and by the head instance's box union *)
  sy2 : int array;
  deltas : Bytes.t;  (* delta-from flags, offset by fprod.delta_base *)
  qbufs : int array ref array;  (* per-slot-depth index probe buffers *)
  sbuf : int array ref;  (* index probe buffer of guards' scope queries *)
  mutable id2col : int array;  (* instance id -> owning symbol id *)
  mutable id2idx : int array;  (* instance id -> index in its column *)
  filler : Instance.t;
  mutable nw : int;  (* cover words per entry, this parse *)
  mutable cov : int array;
      (* running covers of the enumeration: slot [d] (at [d * nw])
         holds the union of the components bound above depth [d] —
         past its first word, which the enumeration keeps in a register
         and writes only into the head's slot; slot 0 stays empty, and
         slot [max_arity] doubles as a token's cover while the tokens
         are pushed, before any enumeration *)
  (* Enforcement scratch, sized on demand and never cleared: an entry
     belongs to the current loser only while it holds [stamp], which
     grows by one per loser and never repeats within an arena. *)
  mutable stamp : int;
  mutable drawn : int;  (* the stamp whose ancestors [anc] holds *)
  mutable anc : int array;  (* instance id -> stamp of a marked ancestor *)
  mutable seen : int array;  (* winner index -> stamp of its last visit *)
  mutable tok : int array;
      (* the winner buckets' bounds: bucket [t] (the winners on token
         [t]) is [bucket.(tok.(t)) .. bucket.(tok.(t + 1) - 1)] *)
  mutable at : int array;  (* per token, its bucket's fill cursor *)
  mutable bucket : int array;  (* winner indices, ascending per bucket *)
  (* Probe-region scratch (the narrowest y/x intervals the bound
     anchors imply), valid between a region computation and the query
     it feeds. *)
  mutable pr_have_y : bool;
  mutable pr_y_lo : int;
  mutable pr_y_hi : int;
  mutable pr_have_x : bool;
  mutable pr_x_lo : int;
  mutable pr_x_hi : int;
}

(* The filler never participates in parsing: it exists only so array
   growth and bulk reset have something GC-neutral to put in unused
   slots. *)
let make_filler () =
  let tok =
    { Token.id = 0; kind = Token.Text; box = Wqi_layout.Geometry.origin;
      sval = ""; name = ""; options = []; value = ""; checked = false;
      multiple = false }
  in
  Instance.of_token ~id:(-1) ~universe:1 tok

let dummy_index = Spatial_index.create ~alive:(fun _ -> false)

let make_col filler =
  let col =
    { inst = Array.make 16 filler; covers = Array.make 16 0;
      x1 = Array.make 16 0; y1 = Array.make 16 0; x2 = Array.make 16 0;
      y2 = Array.make 16 0; alive = Bytes.make 16 '\000'; len = 0;
      index = dummy_index; indexed = 0; max_w = 0; max_h = 0 }
  in
  col.index <-
    Spatial_index.create ~alive:(fun idx ->
        Bytes.unsafe_get col.alive idx <> '\000');
  col

(* [a], or a copy at least [n] long with [a]'s prefix. *)
let reserve a n =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = Array.make (Int.max n (2 * len)) 0 in
    Array.blit a 0 b 0 len;
    b
  end

let grow t col =
  let ncap = 2 * Array.length col.inst in
  let inst = Array.make ncap t.filler in
  Array.blit col.inst 0 inst 0 col.len;
  col.inst <- inst;
  col.covers <- reserve col.covers (ncap * t.nw);
  col.x1 <- reserve col.x1 ncap;
  col.y1 <- reserve col.y1 ncap;
  col.x2 <- reserve col.x2 ncap;
  col.y2 <- reserve col.y2 ncap;
  let al = Bytes.make ncap '\000' in
  Bytes.blit col.alive 0 al 0 col.len;
  col.alive <- al

(* Append [inst], its cover copied from the [cov] slot at [off]. *)
let push t col (inst : Instance.t) ~off =
  if col.len = Array.length col.inst then grow t col;
  let idx = col.len in
  let box = inst.Instance.box in
  Array.unsafe_set col.inst idx inst;
  let nw = t.nw and base = idx * t.nw in
  for k = 0 to nw - 1 do
    Array.unsafe_set col.covers (base + k) (Array.unsafe_get t.cov (off + k))
  done;
  Array.unsafe_set col.x1 idx box.Wqi_layout.Geometry.x1;
  Array.unsafe_set col.y1 idx box.Wqi_layout.Geometry.y1;
  Array.unsafe_set col.x2 idx box.Wqi_layout.Geometry.x2;
  Array.unsafe_set col.y2 idx box.Wqi_layout.Geometry.y2;
  Bytes.unsafe_set col.alive idx '\001';
  let open Wqi_layout.Geometry in
  col.max_w <- Int.max col.max_w (box.x2 - box.x1);
  col.max_h <- Int.max col.max_h (box.y2 - box.y1);
  col.len <- idx + 1;
  idx

(* Catch the column's index up to its store: registration order is the
   ascending creation order {!Spatial_index.add} requires, and doing it
   here — at probe time — instead of at push time keeps un-probed
   columns index-free. *)
let sync_index col =
  for idx = col.indexed to col.len - 1 do
    Spatial_index.add_coords col.index ~idx
      (Array.unsafe_get col.x1 idx)
      (Array.unsafe_get col.y1 idx)
      (Array.unsafe_get col.x2 idx)
      (Array.unsafe_get col.y2 idx)
  done;
  col.indexed <- col.len

let record_id t ~id ~col ~idx =
  if id >= Array.length t.id2col then begin
    t.id2col <- reserve t.id2col (id + 1);
    t.id2idx <- reserve t.id2idx (id + 1)
  end;
  Array.unsafe_set t.id2col id col;
  Array.unsafe_set t.id2idx id idx

let create (tables : Dispatch.t) =
  let filler = make_filler () in
  let cols = Array.init tables.nsyms (fun _ -> make_col filler) in
  { cols;
    pcols =
      Array.map
        (fun (fp : Dispatch.fprod) ->
           Array.map (fun sid -> cols.(sid)) fp.comps)
        tables.prods;
    chosen =
      Array.map
        (fun (fp : Dispatch.fprod) -> Array.make fp.arity filler)
        tables.prods;
    marks = Array.make tables.marks_len 0;
    lens = Array.make tables.marks_len 0;
    sx1 = Array.make tables.marks_len 0;
    sy1 = Array.make tables.marks_len 0;
    sx2 = Array.make tables.marks_len 0;
    sy2 = Array.make tables.marks_len 0;
    deltas = Bytes.make tables.deltas_len '\000';
    qbufs = Array.init tables.max_arity (fun _ -> ref (Array.make 64 0));
    sbuf = ref (Array.make 64 0);
    id2col = Array.make 256 0;
    id2idx = Array.make 256 0;
    filler;
    nw = 1;
    cov = Array.make (tables.max_arity + 1) 0;
    stamp = 0;
    drawn = 0;
    anc = Array.make 256 0;
    seen = Array.make 64 0;
    tok = Array.make 65 0;
    at = Array.make 64 0;
    bucket = Array.make 256 0;
    pr_have_y = false;
    pr_y_lo = 0;
    pr_y_hi = 0;
    pr_have_x = false;
    pr_x_lo = 0;
    pr_x_hi = 0 }

(* Size the cover words for a universe of [n] tokens: each column's
   cover array holds [nw] words per slot of its capacity — reallocated
   when it is too short, or over four times too long, so a pooled arena
   neither keeps a wide parse's covers nor churns between nearby
   widths — and the running-cover row one [nw]-word slot per binding
   depth, slot 0 empty (a parse with another [nw] may have written
   there).  Pushes keep the columns sized while [nw] stays. *)
let set_universe t n =
  let bpw = Wqi_grammar.Bitset.bits_per_word in
  let nw = Int.max 1 ((n + bpw - 1) / bpw) in
  if nw <> t.nw then begin
    t.nw <- nw;
    let slots = Array.length t.qbufs + 1 in
    if Array.length t.cov < slots * nw then t.cov <- Array.make (slots * nw) 0
    else Array.fill t.cov 0 nw 0;
    Array.iter
      (fun col ->
         let need = Array.length col.inst * nw in
         let have = Array.length col.covers in
         if have < need || have > 4 * need then
           col.covers <- Array.make need 0)
      t.cols
  end

(* Write the one-token cover of token [id] into the [cov] slot of depth
   [max_arity] — tokens are pushed before any enumeration runs — and
   return its offset. *)
let token_cover t id =
  let bpw = Wqi_grammar.Bitset.bits_per_word in
  let off = Array.length t.qbufs * t.nw in
  for k = off to off + t.nw - 1 do
    Array.unsafe_set t.cov k 0
  done;
  t.cov.(off + (id / bpw)) <- 1 lsl (id mod bpw);
  off

(* Bulk reset: clear lengths, drop every boxed-instance reference (a
   reused slot must not pin last parse's trees), zero the watermarks and
   flags.  Only what the parse touched is cleared: a column nothing was
   pushed to has nothing registered, indexed or sized, and a binding
   row whose slot 0 still holds the filler was never bound (every
   production has a slot 0, and the enumeration binds it before any
   other).  Int scratch
   (coordinates, id maps, probe buffers) is left stale — nothing reads
   past the freshly-zeroed lengths. *)
let reset t =
  Array.iter
    (fun col ->
       if col.len > 0 then begin
         Array.fill col.inst 0 col.len t.filler;
         col.len <- 0;
         col.max_w <- 0;
         col.max_h <- 0;
         if col.indexed > 0 then begin
           col.indexed <- 0;
           Spatial_index.reset col.index
         end
       end)
    t.cols;
  Array.iter
    (fun row ->
       if row.(0) != t.filler then
         Array.fill row 0 (Array.length row) t.filler)
    t.chosen;
  Array.fill t.marks 0 (Array.length t.marks) 0;
  Bytes.fill t.deltas 0 (Bytes.length t.deltas) '\000'

type pool = t list Atomic.t

let make_pool () : pool = Atomic.make []

(* Enough for a serve domain's handler threads; beyond that a fresh
   arena is cheaper than contending on the stack. *)
let max_pooled = 8

let acquire (pool : pool) tables =
  let rec go () =
    match Atomic.get pool with
    | [] -> create tables
    | a :: rest as old ->
      if Atomic.compare_and_set pool old rest then a else go ()
  in
  go ()

let release (pool : pool) arena =
  reset arena;
  let rec go () =
    let old = Atomic.get pool in
    if List.length old >= max_pooled then ()
    else if not (Atomic.compare_and_set pool old (arena :: old)) then go ()
  in
  go ()
