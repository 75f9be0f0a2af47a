(** Per-document extraction-quality records and corpus rollups.

    The parser is {i best-effort} by design (paper Section 3.4): output
    is routinely partial, and the two error classes the merger reports —
    conflicts and missing tokens — measure exactly how partial.  This
    module turns those diagnostics into a small, versioned quality
    record computed once per extraction, cheap enough for every
    front-end to emit unconditionally:

    - [wqi_extract --quality] prints it;
    - [wqi_batch]/[wqi_crawl] append one per document to a
      [quality.jsonl] and persist the headline fields in the store
      manifest, so a reopened store rolls up without re-extraction;
    - [wqi_serve] feeds it into the [/metrics] histograms and uses the
      score to pick low-quality exemplar traces;
    - [wqi_report] aggregates records into per-domain distributions and
      drift comparisons between crawl runs.

    Records render as canonical one-line JSON tagged
    [wqi_quality_version] (like Export v2), and {!Agg} folds streams of
    them into mergeable per-dimension aggregates (like
    [Telemetry.snapshot]: merging over any partition of a record stream
    equals single-pass aggregation — property-tested). *)

val version : int
(** Wire version of the record JSON, [1].  Bump on any field change. *)

type t = {
  source : string;   (** path or URL the document came from *)
  grammar : string;  (** grammar identity, [name@version] *)
  domain : string;   (** crawl-classified domain; [""] when unknown *)
  outcome : string;  (** ["complete"], ["degraded"] or ["failed"] *)
  tokens : int;      (** visible tokens the front-end produced *)
  covered : int;     (** tokens claimed by the semantic model *)
  conflicts : int;   (** conflict errors (token claimed twice) *)
  missing : int;     (** distinct tokens no selected tree covered *)
  trees : int;       (** maximal partial trees merged *)
  ambiguity : int;   (** surviving ambiguity: trees beyond the first *)
  trips : int;       (** budget trips of a degraded outcome *)
  coverage : float;  (** covered / tokens, 1.0 for empty interfaces *)
  score : float;     (** scalar quality in [0, 1], see {!score} *)
}

val score :
  outcome:string -> coverage:float -> conflicts:int -> tokens:int ->
  ambiguity:int -> float
(** The scalar quality score, a pure function of the record fields (so
    re-deriving it from a persisted record is exact):

    - a failed extraction scores [0.];
    - otherwise [coverage - conflicts/tokens - 0.02·min(ambiguity, 10)],
      clamped to [[0, 1]].

    Coverage dominates — it is the paper's own headline metric — while
    each conflicted token cancels a covered one and every surviving
    ambiguous tree the merger had to arbitrate costs 2 points, capped so
    pathological ambiguity cannot mask coverage.  Degradation needs no
    extra penalty: a tripped budget surfaces as missing coverage. *)

val of_extraction :
  source:string -> grammar:string -> ?domain:string ->
  Wqi_core.Extractor.extraction -> t
(** Compute the record from an extraction's existing diagnostics: token
    count from [diagnostics], coverage from the model's distinct
    missing-token ids, conflicts from the model errors, ambiguity from
    the maximal-tree count, trips from the outcome.  [domain] defaults
    to [""]. *)

val failed : source:string -> grammar:string -> ?domain:string ->
  unit -> t
(** The record of an extraction that failed before producing
    diagnostics (e.g. a batch worker whose file read failed): zero
    tokens, zero coverage, score [0.]. *)

val grammar_id : Wqi_parser.Engine.compiled -> string
(** A pack's identity as records and store entries carry it:
    [name@version]. *)

val to_meta : t -> Wqi_store.Store.meta
(** The store manifest entry of an extraction: the record's provenance
    (source, grammar, outcome label, domain) and its headline quality
    fields (score, coverage, conflicts).  Every writer of a store entry
    goes through here, so the entry and the record never disagree. *)

val of_meta : Wqi_store.Store.meta -> t option
(** Rebuild a record from the headline fields a store manifest persists,
    for rolling up a reopened store — or a crawl answered from it —
    without re-extraction; [None] for entries written before quality
    records existed.  The detail counters the manifest does not carry
    (tokens, covered, missing, trees, ambiguity, trips) are zero; {!Agg}
    still aggregates the count, outcome, score, coverage and conflict
    dimensions of such records exactly. *)

val to_json : t -> string
(** Canonical one-line JSON (no trailing newline), fields in fixed
    order, tagged [{"wqi_quality_version": 1, ...}].  Deterministic:
    a pure function of the record. *)

val of_json : string -> (t, string) result
(** Parse one record line, surrounding whitespace ignored, on
    {!Wqi_json.Json}'s reader (the store manifest's).  Requires the
    version tag to match {!version}; unknown fields are ignored so minor
    forward revisions stay readable.  Never raises: a malformed line, a
    number that overflows to infinity anywhere in it, or a count of
    2{^53} or more is an [Error]. *)

(** {1 Streaming aggregation}

    [Agg] folds records into per-dimension cells — overall, per domain,
    per grammar — each carrying count, outcome counts, score/coverage
    sums and a fixed-bucket score histogram.  Aggregates merge exactly:
    [merge a b] equals aggregating [a]'s and [b]'s record streams in one
    pass, for any split. *)
module Agg : sig
  type record := t

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
        (** counts per bucket of {!score_bucket_uppers}, non-cumulative *)
  }

  val score_bucket_uppers : float array
  (** Upper bounds of the score histogram buckets:
      [0.1, 0.2, ..., 1.0].  Scores never exceed 1, so no overflow
      bucket is needed. *)

  type t

  val create : unit -> t
  val add : t -> record -> unit
  val merge : t -> t -> t
  (** Pure: neither argument is mutated. *)

  val total : t -> cell

  val domains : t -> (string * cell) list
  (** Per-domain cells, sorted by domain. *)

  val grammars : t -> (string * cell) list
  (** Per-grammar cells, sorted by grammar. *)

  val mean_score : cell -> float
  (** [0.] on an empty cell. *)

  val mean_coverage : cell -> float
  (** [0.] on an empty cell. *)
end
