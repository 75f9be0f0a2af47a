(* In-memory span recorder for the benchmark's traced run.

   Spans are recorded from the benchmark's own code around the calls it
   makes into each layer; nothing inside the libraries is instrumented.
   Each span has a name, a start, an end, the index of the span that
   caused it (-1 for a root) and the operation (document or request)
   it belongs to.  A layer's self time is its duration minus the part
   of it covered by its children. *)

type t = {
  mutable n : int;
  mutable name : string array;
  mutable parent : int array;
  mutable op : int array;
  mutable t0 : float array;
  mutable t1 : float array;
}

let now = Wqi_budget.Budget.now_s

let create () =
  let cap = 4096 in
  { n = 0;
    name = Array.make cap "";
    parent = Array.make cap (-1);
    op = Array.make cap 0;
    t0 = Array.make cap 0.;
    t1 = Array.make cap 0. }

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- extend t.name "";
  t.parent <- extend t.parent (-1);
  t.op <- extend t.op 0;
  t.t0 <- extend t.t0 0.;
  t.t1 <- extend t.t1 0.

let add t ~name ~parent ~op ~t0 ~t1 =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.name.(i) <- name;
  t.parent.(i) <- parent;
  t.op.(i) <- op;
  t.t0.(i) <- t0;
  t.t1.(i) <- t1;
  t.n <- i + 1;
  i

(* Open a span now; [stop] closes it.  Children opened in between name
   the returned index as their parent. *)
let start t ~name ~parent ~op = add t ~name ~parent ~op ~t0:(now ()) ~t1:nan
let stop t i = t.t1.(i) <- now ()

(* Total self time and span count per name, over every span recorded. *)
let self_times t =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (t.t1.(i) -. t.t0.(i))
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let self = t.t1.(i) -. t.t0.(i) -. child.(i) in
    let s, c =
      Option.value (Hashtbl.find_opt tbl t.name.(i)) ~default:(0., 0)
    in
    Hashtbl.replace tbl t.name.(i) (s +. self, c + 1)
  done;
  tbl

let self_seconds tbl name =
  match Hashtbl.find_opt tbl name with Some (s, _) -> s | None -> 0.

(* One JSON object per line: id, name, parent, op, start and end in
   seconds on the monotonic clock. *)
let write_jsonl t path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"t0\":%.9f,\"t1\":%.9f}\n"
      i t.name.(i) t.parent.(i) t.op.(i) t.t0.(i) t.t1.(i)
  done
