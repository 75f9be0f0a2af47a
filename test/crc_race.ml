(* Regression test: the first CRC-32 use of a process, from several
   domains at once.

   When the CRC table was a [lazy], two domains forcing it together
   raised [CamlinternalLazy.Undefined]: a resumed [wqi_batch --jobs 2]
   died on its first lookups, intermittently.  Each child process here
   opens a store written by the parent (replay computes no CRC), then
   releases [readers] domains at once, each verifying one stored value —
   so every child's first CRC use is a race.  A process gets only one
   first use, hence [runs] children.

   Usage: crc_race.exe [RUNS]  (exit 1 if any child failed) *)

module Store = Wqi_store.Store
module Key = Wqi_store.Key

let readers = 4

let key i = Key.make ~html:(Printf.sprintf "<form>%d</form>" i) ~spec:"race"

let value i = String.init (512 + i) (fun j -> Char.chr (97 + ((i + j) mod 26)))

let meta =
  { Store.source = "race.html"; grammar = "std@1"; outcome = "complete";
    domain = ""; quality = None }

let child dir =
  let st = Store.open_ dir in
  let ready = Atomic.make 0 in
  let reader i () =
    Atomic.incr ready;
    while Atomic.get ready < readers do Domain.cpu_relax () done;
    Store.find st (key i) = Some (value i)
  in
  let ds = List.init readers (fun i -> Domain.spawn (reader i)) in
  let ok = List.for_all Domain.join ds in
  exit (if ok && (Store.stats st).Store.corrupt = 0 then 0 else 1)

let parent runs =
  let dir = Filename.temp_file "wqi_crc_race" "" in
  Sys.remove dir;
  let st = Store.open_ dir in
  for i = 0 to readers - 1 do
    Store.put st (key i) ~meta (value i)
  done;
  Store.close st;
  let failed = ref 0 in
  for _ = 1 to runs do
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--child"; dir |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> incr failed
  done;
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  Printf.printf "crc race: %d/%d runs failed\n" !failed runs;
  exit (if !failed = 0 then 0 else 1)

let () =
  match Sys.argv with
  | [| _; "--child"; dir |] -> child dir
  | [| _; runs |] -> parent (int_of_string runs)
  | _ -> parent 100
