(* Command-line dataset generator: write the four experimental datasets
   (HTML sources plus ground-truth manifests) to a directory — or, with
   --gen N, emit N generated documents as individual .html files for
   crawl-scale testing, with a manifest of the known duplicates. *)

module Generator = Wqi_corpus.Generator
module Vocabulary = Wqi_corpus.Vocabulary
module Prng = Wqi_corpus.Prng

let run dir names =
  let all = Wqi_corpus.Dataset.all () in
  let selected =
    match names with
    | [] -> all
    | names ->
      List.filter
        (fun (d : Wqi_corpus.Dataset.t) ->
           List.mem (String.lowercase_ascii d.name) names)
        all
  in
  if selected = [] then begin
    Format.eprintf "no dataset matches; available: %s@."
      (String.concat ", "
         (List.map (fun (d : Wqi_corpus.Dataset.t) -> d.name) all));
    1
  end
  else begin
    List.iter
      (fun (d : Wqi_corpus.Dataset.t) ->
         Wqi_corpus.Dataset.save ~dir d;
         Format.printf "wrote %s (%d sources) under %s@." d.name
           (List.length d.sources)
           (Filename.concat dir d.name))
      selected;
    0
  end

(* ------------------------------------------------------------------ *)
(* --gen mode: individual files with a duplicate manifest             *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error _ -> ()
  end

(* A formatting-only perturbation: every newline doubled.  The bytes —
   and the content-addressed store key — change, but the structural
   signature (whitespace-collapsed) does not, so wqi_crawl must dedup
   the copy. *)
let ws_perturb html =
  String.concat "\n\n" (String.split_on_char '\n' html) ^ "\n"

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let run_gen n out_dir seed dup_prob =
  if n <= 0 then begin
    Format.eprintf "--gen %d: must be >= 1@." n;
    2
  end
  else begin
    mkdir_p out_dir;
    let g = Prng.create (Int64.of_int seed) in
    let domains = Array.of_list Vocabulary.all in
    (* Duplicate targets come from a bounded pool of recent originals so
       memory stays flat however large the corpus. *)
    let pool = Array.make 256 None in
    let pool_n = ref 0 in
    let dups = ref [] in
    let unique = ref 0 in
    for i = 0 to n - 1 do
      let file = Printf.sprintf "doc-%05d.html" i in
      let duplicate =
        !pool_n > 0 && Prng.bernoulli g dup_prob
      in
      if duplicate then begin
        let j = Prng.int g (min !pool_n (Array.length pool)) in
        match pool.(j) with
        | None -> assert false
        | Some (of_file, of_html) ->
          let kind = if Prng.bool g then "exact" else "ws" in
          let contents =
            if kind = "exact" then of_html else ws_perturb of_html
          in
          write_file (Filename.concat out_dir file) contents;
          dups := (file, of_file, kind) :: !dups
      end
      else begin
        let domain = domains.(i mod Array.length domains) in
        let complexity = if i land 1 = 0 then `Simple else `Rich in
        let src =
          Generator.generate g ~id:file ~domain ~complexity ~oog_prob:0.1 ()
        in
        write_file (Filename.concat out_dir file) src.Generator.html;
        pool.(!pool_n mod Array.length pool) <- Some (file, src.Generator.html);
        incr pool_n;
        incr unique
      end
    done;
    let str = Wqi_json.Json.string in
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"wqi_corpus_files_version\":1,\"count\":%d,\"unique\":%d,\
          \"duplicates\":["
         n !unique);
    List.iteri
      (fun i (file, of_file, kind) ->
         if i > 0 then Buffer.add_char b ',';
         Buffer.add_string b
           (Printf.sprintf "\n  {\"file\":%s,\"of\":%s,\"kind\":%s}"
              (str file) (str of_file) (str kind)))
      (List.rev !dups);
    Buffer.add_string b (if !dups = [] then "]}\n" else "\n]}\n");
    write_file (Filename.concat out_dir "ALIASES.json") (Buffer.contents b);
    Format.printf "wrote %d documents (%d unique, %d duplicates) under %s@." n
      !unique (n - !unique) out_dir;
    0
  end

let dispatch dir names gen out_dir seed dup_prob =
  match gen with
  | Some n -> run_gen n out_dir seed dup_prob
  | None -> run dir names

open Cmdliner

let dir =
  let doc = "Output directory." in
  Arg.(value & opt string "corpus" & info [ "o"; "output" ] ~docv:"DIR" ~doc)

let names =
  let doc =
    "Datasets to generate (basic, newsource, newdomain, random); all when \
     omitted."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"DATASET" ~doc)

let gen =
  let doc =
    "Generate $(docv) individual .html documents (round-robin over every \
     domain vocabulary, alternating complexity) into $(b,--out-dir) \
     instead of the named datasets.  A fraction of the documents \
     ($(b,--dup-prob)) are duplicates of earlier ones — byte-exact or \
     reformatted (whitespace-only) copies — recorded in an ALIASES.json \
     manifest, so crawl deduplication can be checked against ground \
     truth."
  in
  Arg.(value & opt (some int) None & info [ "gen" ] ~docv:"N" ~doc)

let out_dir =
  let doc = "Directory for $(b,--gen) documents (created if missing)." in
  Arg.(value & opt string "corpus-files" & info [ "out-dir" ] ~docv:"DIR" ~doc)

let seed =
  let doc = "PRNG seed for $(b,--gen); equal seeds give equal corpora." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let dup_prob =
  let doc =
    "Per-document probability (after the first) of emitting a duplicate \
     instead of a fresh form in $(b,--gen) mode."
  in
  Arg.(value & opt float 0.2 & info [ "dup-prob" ] ~docv:"P" ~doc)

let cmd =
  let doc = "generate the synthetic query-interface datasets" in
  let term =
    Term.(const dispatch $ dir $ names $ gen $ out_dir $ seed $ dup_prob)
  in
  Cmd.v (Cmd.info "wqi_corpus_gen" ~version:"1.0.0" ~doc) term

let () = exit (Cmd.eval' cmd)
