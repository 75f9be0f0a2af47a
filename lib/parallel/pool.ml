(* One call of [map_ordered] owns its domains: [jobs - 1] are spawned
   for the call and joined before it returns.  Workers (the caller
   among them) claim chunks of indices from one atomic cursor and
   publish each result in its index's slot; only the caller commits,
   walking a cursor of its own over the slots in input order between
   the items it computes, and once more after the join. *)

type 'b slot =
  | Empty  (* not computed yet, or already committed *)
  | Done of 'b
  | Raised of exn * Printexc.raw_backtrace

let map_ordered ~jobs f ~commit input =
  let n = Array.length input in
  let slots = Array.init n (fun _ -> Atomic.make Empty) in
  let cursor = Atomic.make 0 in
  let stop = Atomic.make false in
  let chunk = max 1 (n / (max 1 jobs * 8)) in
  (* [stop] is read before the claim, never between the claim and the
     chunk, so every chunk below a failing index runs to completion and
     the commit cursor meets the lowest failure before any gap. *)
  let rec work ~after_item =
    if not (Atomic.get stop) then begin
      let start = Atomic.fetch_and_add cursor chunk in
      if start < n then begin
        let rec run i =
          if i < min n (start + chunk) then
            match f input.(i) with
            | v ->
              Atomic.set slots.(i) (Done v);
              after_item ();
              run (i + 1)
            | exception e ->
              Atomic.set slots.(i) (Raised (e, Printexc.get_raw_backtrace ()));
              Atomic.set stop true
        in
        run start;
        work ~after_item
      end
    end
  in
  let next = ref 0 in
  let rec commit_ready () =
    if !next < n then
      match Atomic.get slots.(!next) with
      | Empty -> ()
      | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
      | Done v ->
        Atomic.set slots.(!next) Empty;
        incr next;
        commit (!next - 1) v;
        commit_ready ()
  in
  let helpers =
    List.init
      (max 0 (min (jobs - 1) (n - 1)))
      (fun _ -> Domain.spawn (fun () -> work ~after_item:ignore))
  in
  match work ~after_item:commit_ready with
  | () ->
    List.iter Domain.join helpers;
    commit_ready ();
    assert (!next = n)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Atomic.set stop true;
    List.iter Domain.join helpers;
    Printexc.raise_with_backtrace e bt

let map_array ~jobs f input =
  let out = ref [||] in
  map_ordered ~jobs f input ~commit:(fun i v ->
      if i = 0 then out := Array.make (Array.length input) v
      else !out.(i) <- v);
  !out

module Group = struct
  type t = unit Domain.t array

  let spawn ~jobs f =
    let jobs = max 1 jobs in
    Array.init jobs (fun i -> Domain.spawn (fun () -> f i))

  let size = Array.length

  let join g = Array.iter Domain.join g
end
