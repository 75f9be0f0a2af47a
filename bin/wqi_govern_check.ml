(* Governance smoke check, wired to `dune build @govern`.

   Runs the extractor under a deliberately aggressive budget over every
   .html fixture in the given directory and insists that each document
   comes back [Complete] or [Degraded] — never [Failed].  A [Failed]
   outcome here means an exception escaped a pipeline stage instead of
   being converted into graceful degradation, which is exactly the
   regression this alias exists to catch. *)

module Extractor = Wqi_core.Extractor
module Budget = Wqi_budget.Budget

let aggressive =
  Budget.make ~deadline_ms:200 ~max_html_nodes:20_000 ~max_boxes:20_000
    ~max_tokens:2_000 ~max_instances:2_000 ~max_rounds:10_000 ()

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".html")
    |> List.sort compare
  in
  if files = [] then begin
    Printf.eprintf "govern: no .html fixtures in %s\n" dir;
    exit 2
  end;
  let config = Extractor.Config.(default |> with_budget aggressive) in
  let failures = ref 0 in
  List.iter
    (fun file ->
       let html =
         let ic = open_in_bin (Filename.concat dir file) in
         Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () -> really_input_string ic (in_channel_length ic))
       in
       let e = Extractor.run config (Extractor.Html html) in
       let conditions = List.length (Extractor.conditions e) in
       match e.Extractor.outcome with
       | Budget.Complete ->
         Printf.printf "govern: %-18s complete  (%d conditions, %.1f ms)\n"
           file conditions (1000. *. e.Extractor.diagnostics.Extractor.total_seconds)
       | Budget.Degraded trips ->
         Printf.printf
           "govern: %-18s degraded  (%d conditions, %.1f ms, %d trips)\n"
           file conditions
           (1000. *. e.Extractor.diagnostics.Extractor.total_seconds)
           (List.length trips)
       | Budget.Failed err ->
         incr failures;
         Printf.printf "govern: %-18s FAILED    (%s)\n" file
           err.Budget.message)
    files;
  if !failures > 0 then begin
    Printf.eprintf "govern: %d document(s) failed under the aggressive budget\n"
      !failures;
    exit 1
  end
