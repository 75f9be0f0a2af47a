(* See quality.mli.  The record is a pure function of an extraction's
   existing diagnostics — computing one is a few list walks over the
   model errors, far below the cost of the extraction itself (gated at
   1.03x in the bench validator). *)

module Extractor = Wqi_core.Extractor
module Semantic_model = Wqi_model.Semantic_model
module Budget = Wqi_budget.Budget
module Engine = Wqi_parser.Engine
module Store = Wqi_store.Store

let version = 1

type t = {
  source : string;
  grammar : string;
  domain : string;
  outcome : string;
  tokens : int;
  covered : int;
  conflicts : int;
  missing : int;
  trees : int;
  ambiguity : int;
  trips : int;
  coverage : float;
  score : float;
}

let clamp01 f = Float.max 0. (Float.min 1. f)

let score ~outcome ~coverage ~conflicts ~tokens ~ambiguity =
  if outcome = "failed" then 0.
  else
    let conflict_share = float_of_int conflicts /. float_of_int (Int.max 1 tokens) in
    let ambiguity_share = 0.02 *. float_of_int (Int.min ambiguity 10) in
    clamp01 (coverage -. conflict_share -. ambiguity_share)

let outcome_name = function
  | Budget.Complete -> "complete"
  | Budget.Degraded _ -> "degraded"
  | Budget.Failed _ -> "failed"

let make ~source ~grammar ~domain ~outcome ~tokens ~covered ~conflicts
    ~missing ~trees ~ambiguity ~trips =
  let coverage =
    if tokens <= 0 then (if outcome = "failed" then 0. else 1.)
    else float_of_int covered /. float_of_int tokens
  in
  { source; grammar; domain; outcome; tokens; covered; conflicts; missing;
    trees; ambiguity; trips;
    coverage;
    score = score ~outcome ~coverage ~conflicts ~tokens ~ambiguity }

let of_extraction ~source ~grammar ?(domain = "") (e : Extractor.extraction) =
  let outcome = outcome_name e.outcome in
  let tokens = e.diagnostics.token_count in
  let missing = List.length (Semantic_model.missing_token_ids e.model) in
  let covered = Int.max 0 (tokens - missing) in
  let trips =
    match e.outcome with Budget.Degraded trips -> List.length trips | _ -> 0
  in
  make ~source ~grammar ~domain ~outcome ~tokens ~covered
    ~conflicts:(Semantic_model.conflict_count e.model)
    ~missing ~trees:e.diagnostics.tree_count
    ~ambiguity:(Int.max 0 (e.diagnostics.tree_count - 1))
    ~trips

let failed ~source ~grammar ?(domain = "") () =
  make ~source ~grammar ~domain ~outcome:"failed" ~tokens:0 ~covered:0
    ~conflicts:0 ~missing:0 ~trees:0 ~ambiguity:0 ~trips:0

let grammar_id (pack : Engine.compiled) = pack.name ^ "@" ^ pack.version

let to_meta r =
  { Store.source = r.source;
    grammar = r.grammar;
    outcome = r.outcome;
    domain = r.domain;
    quality =
      Some
        { Store.q_score = r.score;
          q_coverage = r.coverage;
          q_conflicts = r.conflicts } }

let of_meta (m : Store.meta) =
  Option.map
    (fun (q : Store.quality) ->
       { source = m.source; grammar = m.grammar; domain = m.domain;
         outcome = m.outcome; tokens = 0; covered = 0;
         conflicts = q.q_conflicts; missing = 0; trees = 0; ambiguity = 0;
         trips = 0; coverage = q.q_coverage; score = q.q_score })
    m.quality

(* ------------------------------------------------------------------ *)
(* Canonical JSON                                                     *)
(* ------------------------------------------------------------------ *)

module Json = Wqi_json.Json

(* Floats in [Json]'s manifest form: %.12g round-trips through of_json
   → to_json byte-stably for the small-integer ratios scores are made
   of, while keeping the line readable; integers render without a
   decimal point. *)
let to_json r =
  let str = Json.string and num = Json.float in
  Printf.sprintf
    "{\"wqi_quality_version\":%d,\"source\":%s,\"grammar\":%s,\
     \"domain\":%s,\"outcome\":%s,\"score\":%s,\"coverage\":%s,\
     \"tokens\":%d,\"covered\":%d,\"conflicts\":%d,\"missing\":%d,\
     \"trees\":%d,\"ambiguity\":%d,\"trips\":%d}"
    version (str r.source) (str r.grammar) (str r.domain) (str r.outcome)
    (num r.score) (num r.coverage) r.tokens r.covered r.conflicts r.missing
    r.trees r.ambiguity r.trips

(* The record's schema on [Json]'s reader, as the store manifest's is:
   each member's value lands in its field's slot, so a duplicated key's
   last value counts, and unknown keys are skipped.  Field ids are the
   indices of [names]: the strings, then the integers, then the
   floats. *)
let names =
  [| "source"; "grammar"; "domain"; "outcome"; "wqi_quality_version";
     "tokens"; "covered"; "conflicts"; "missing"; "trees"; "ambiguity";
     "trips"; "coverage"; "score" |]

let f_version = 4
let f_coverage = 12
let all_fields = 0x3fff

type slots = {
  mutable ok : int;  (* bit f: field f's last value was of its kind *)
  strs : string array;   (* by field id *)
  ints : int array;      (* by field id - [f_version] *)
  nums : Float.Array.t;  (* by field id - [f_coverage] *)
}

(* From 2^53 on a float no longer holds every integer (2^53 + 1 reads
   as 2^53), and past [max_int] [int_of_float] answers garbage: a count
   of 2^53 or more, however written, is an error, not a wrong number. *)
let member s (r : Json.reader) f =
  if f >= 0 then begin
    let good =
      match r.kind with
      | Json.Str ->
        if f < f_version then s.strs.(f) <- Json.string_value r;
        f < f_version
      | Json.Int | Json.Num ->
        let x = Json.float_value r in
        if f >= f_coverage then begin
          Float.Array.set s.nums (f - f_coverage) x;
          true
        end
        else begin
          let ok = f >= f_version && Float.is_integer x && Float.abs x < 0x1p53 in
          if ok then s.ints.(f - f_version) <- int_of_float x;
          ok
        end
    in
    s.ok <- (if good then s.ok lor (1 lsl f) else s.ok land lnot (1 lsl f))
  end

let rec first_bit m f = if m land (1 lsl f) <> 0 then f else first_bit m (f + 1)

let bad fmt = Printf.ksprintf (fun msg -> Error ("bad quality record: " ^ msg)) fmt

let of_json line =
  let line = String.trim line in
  let s =
    { ok = 0; strs = Array.make f_version "";
      ints = Array.make (f_coverage - f_version) 0;
      nums = Float.Array.make 2 0. }
  in
  match Json.read_object names member s line 0 (String.length line) with
  | exception Json.Malformed -> bad "malformed JSON"
  | () ->
    let int f = s.ints.(f - f_version) in
    let missing = lnot s.ok land all_fields in
    let has_version = missing land (1 lsl f_version) = 0 in
    if has_version && int f_version <> version then
      bad "unsupported version %d" (int f_version)
    else if missing <> 0 then
      let f = if has_version then first_bit missing 0 else f_version in
      bad "%s: expected %s" names.(f)
        (if f < f_version then "string"
         else if f < f_coverage then "integer"
         else "number")
    else
      Ok
        { source = s.strs.(0); grammar = s.strs.(1); domain = s.strs.(2);
          outcome = s.strs.(3); tokens = int 5; covered = int 6;
          conflicts = int 7; missing = int 8; trees = int 9;
          ambiguity = int 10; trips = int 11;
          coverage = Float.Array.get s.nums 0;
          score = Float.Array.get s.nums 1 }

(* ------------------------------------------------------------------ *)
(* Streaming aggregation                                              *)
(* ------------------------------------------------------------------ *)

module Agg = struct
  type record = t

  type cell = {
    count : int;
    complete : int;
    degraded : int;
    failed : int;
    score_sum : float;
    coverage_sum : float;
    conflicts : int;
    missing : int;
    score_buckets : int array;
  }

  let score_bucket_uppers =
    [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 |]

  let bucket_index s =
    let rec go i =
      if i >= Array.length score_bucket_uppers - 1 then i
      else if s <= score_bucket_uppers.(i) then i
      else go (i + 1)
    in
    go 0

  let empty_cell =
    { count = 0; complete = 0; degraded = 0; failed = 0; score_sum = 0.;
      coverage_sum = 0.; conflicts = 0; missing = 0;
      score_buckets = Array.make (Array.length score_bucket_uppers) 0 }

  let add_record c (r : record) =
    let buckets = Array.copy c.score_buckets in
    let bi = bucket_index r.score in
    buckets.(bi) <- buckets.(bi) + 1;
    { count = c.count + 1;
      complete = c.complete + (if r.outcome = "complete" then 1 else 0);
      degraded = c.degraded + (if r.outcome = "degraded" then 1 else 0);
      failed = c.failed + (if r.outcome = "failed" then 1 else 0);
      score_sum = c.score_sum +. r.score;
      coverage_sum = c.coverage_sum +. r.coverage;
      conflicts = c.conflicts + r.conflicts;
      missing = c.missing + r.missing;
      score_buckets = buckets }

  let merge_cell a b =
    { count = a.count + b.count;
      complete = a.complete + b.complete;
      degraded = a.degraded + b.degraded;
      failed = a.failed + b.failed;
      score_sum = a.score_sum +. b.score_sum;
      coverage_sum = a.coverage_sum +. b.coverage_sum;
      conflicts = a.conflicts + b.conflicts;
      missing = a.missing + b.missing;
      score_buckets =
        Array.mapi (fun i v -> v + b.score_buckets.(i)) a.score_buckets }

  type t = {
    mutable agg_total : cell;
    by_domain : (string, cell) Hashtbl.t;
    by_grammar : (string, cell) Hashtbl.t;
  }

  let create () =
    { agg_total = empty_cell;
      by_domain = Hashtbl.create 8;
      by_grammar = Hashtbl.create 8 }

  let bump tbl key r =
    let cur = Option.value ~default:empty_cell (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (add_record cur r)

  let add t (r : record) =
    t.agg_total <- add_record t.agg_total r;
    bump t.by_domain r.domain r;
    bump t.by_grammar r.grammar r

  let merge_tbl a b =
    let out = Hashtbl.copy a in
    Hashtbl.iter
      (fun key cell ->
         match Hashtbl.find_opt out key with
         | Some cur -> Hashtbl.replace out key (merge_cell cur cell)
         | None -> Hashtbl.replace out key cell)
      b;
    out

  let merge a b =
    { agg_total = merge_cell a.agg_total b.agg_total;
      by_domain = merge_tbl a.by_domain b.by_domain;
      by_grammar = merge_tbl a.by_grammar b.by_grammar }

  let total t = t.agg_total

  let sorted tbl =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let domains t = sorted t.by_domain
  let grammars t = sorted t.by_grammar

  let mean_score c =
    if c.count = 0 then 0. else c.score_sum /. float_of_int c.count

  let mean_coverage c =
    if c.count = 0 then 0. else c.coverage_sum /. float_of_int c.count
end
