(* Setup the command-line tools share: file reading, the broken-pipe
   test, and the --jobs / budget / --grammar options that wqi_batch,
   wqi_crawl and wqi_extract take alike. *)

module Extractor = Wqi_core.Extractor

let read_file path =
  In_channel.with_open_bin path (fun ic ->
      really_input_string ic (in_channel_length ic))

(* With SIGPIPE ignored, writing to a closed pipe surfaces as a
   [Sys_error] carrying the strerror text; a reader like `head` closing
   stdout early is normal pipeline behaviour, not a failure. *)
let is_broken_pipe msg =
  Wqi_stdgrammar.Lexicon.contains_substring ~needle:"broken pipe"
    (String.lowercase_ascii msg)

(* The --jobs value, the recommended domain count when absent; below 1
   is an argument error (exit 2). *)
let jobs = function
  | Some n when n >= 1 -> n
  | Some n ->
    Format.eprintf "--jobs %d: must be >= 1@." n;
    exit 2
  | None -> Domain.recommended_domain_count ()

(* The default configuration under the --deadline-ms / --max-instances
   budget (unlimited with neither), parsing with the --grammar file
   when given: loaded and compiled once, a load error exits 2. *)
let config ?grammar ?deadline_ms ?max_instances () =
  let config =
    Extractor.Config.(
      default
      |> with_budget (Wqi_budget.Budget.make ?deadline_ms ?max_instances ()))
  in
  match grammar with
  | None -> config
  | Some path ->
    (match Extractor.load_grammar path with
     | Ok pack -> Extractor.Config.with_compiled pack config
     | Error msg ->
       Format.eprintf "%s@." msg;
       exit 2)
