(* The unboxed instance arena: per-symbol columns of parallel arrays
   indexed by creation order within the symbol's store.  The parser's
   inner loops (delta enumeration, hint checks, preference kill scans)
   run entirely on the int columns — covers as raw words, boxes as four
   coordinate arrays, liveness as bytes — and only touch the boxed
   {!Wqi_grammar.Instance.t} (kept alongside, since results must still
   be instance trees) when a candidate survives every filter.

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
  mutable bits : int array;  (* single-word covers; 0 on big universes *)
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
  mutable id2col : int array;  (* instance id -> owning symbol id *)
  mutable id2idx : int array;  (* instance id -> index in its column *)
  filler : Instance.t;
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
    { inst = Array.make 16 filler; bits = Array.make 16 0;
      x1 = Array.make 16 0; y1 = Array.make 16 0; x2 = Array.make 16 0;
      y2 = Array.make 16 0; alive = Bytes.make 16 '\000'; len = 0;
      index = dummy_index; indexed = 0 }
  in
  col.index <-
    Spatial_index.create ~alive:(fun idx ->
        Bytes.unsafe_get col.alive idx <> '\000');
  col

let grow col filler =
  let cap = Array.length col.inst in
  let ncap = 2 * cap in
  let grow_inst a =
    let b = Array.make ncap filler in
    Array.blit a 0 b 0 cap;
    b
  in
  let grow_int a =
    let b = Array.make ncap 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  col.inst <- grow_inst col.inst;
  col.bits <- grow_int col.bits;
  col.x1 <- grow_int col.x1;
  col.y1 <- grow_int col.y1;
  col.x2 <- grow_int col.x2;
  col.y2 <- grow_int col.y2;
  let al = Bytes.make ncap '\000' in
  Bytes.blit col.alive 0 al 0 cap;
  col.alive <- al

let push t col (inst : Instance.t) ~bits =
  if col.len = Array.length col.inst then grow col t.filler;
  let idx = col.len in
  let box = inst.Instance.box in
  Array.unsafe_set col.inst idx inst;
  Array.unsafe_set col.bits idx bits;
  Array.unsafe_set col.x1 idx box.Wqi_layout.Geometry.x1;
  Array.unsafe_set col.y1 idx box.Wqi_layout.Geometry.y1;
  Array.unsafe_set col.x2 idx box.Wqi_layout.Geometry.x2;
  Array.unsafe_set col.y2 idx box.Wqi_layout.Geometry.y2;
  Bytes.unsafe_set col.alive idx '\001';
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
  let cap = Array.length t.id2col in
  if id >= cap then begin
    let ncap = Int.max (2 * cap) (id + 1) in
    let g a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    t.id2col <- g t.id2col;
    t.id2idx <- g t.id2idx
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
    id2col = Array.make 256 0;
    id2idx = Array.make 256 0;
    filler;
    pr_have_y = false;
    pr_y_lo = 0;
    pr_y_hi = 0;
    pr_have_x = false;
    pr_x_lo = 0;
    pr_x_hi = 0 }

(* Bulk reset: clear lengths, drop every boxed-instance reference (a
   reused slot must not pin last parse's trees), zero the watermarks and
   flags.  Int scratch (coordinates, id maps, probe buffers) is left
   stale — nothing reads past the freshly-zeroed lengths. *)
let reset t =
  Array.iter
    (fun col ->
       if col.len > 0 then begin
         Array.fill col.inst 0 col.len t.filler;
         col.len <- 0
       end;
       col.indexed <- 0;
       Spatial_index.reset col.index)
    t.cols;
  Array.iter
    (fun row -> Array.fill row 0 (Array.length row) t.filler)
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
