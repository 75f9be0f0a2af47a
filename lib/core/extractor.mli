(** The form extractor (paper Figure 2): the public entry point.

    Pipeline: HTML → DOM → layout → tokens → best-effort parse with the
    2P grammar → merge partial parses → semantic model (query
    capabilities) plus error reports and diagnostics.

    The extractor is resource-governed: a {!Config.t} carries a
    {!Wqi_budget.Budget.t} (wall-clock deadline plus per-stage caps),
    and every extraction reports an {!Wqi_budget.Budget.outcome} saying
    whether it ran to completion, was degraded by the budget (which
    stage tripped, why, and how much was consumed), or failed outright.
    Degradation is graceful: a tripped stage stops growing its output
    and the pipeline continues, so the merger still produces a semantic
    model from whatever maximal partial trees exist. *)

(** Extraction configuration: grammar, parser options, page width and
    resource budget, with functional [with_*] updates:

    {[
      let config =
        Extractor.Config.(
          default |> with_budget (Budget.make ~deadline_ms:200 ()))
      in
      Extractor.run config (Extractor.Html markup)
    ]} *)
module Config : sig
  type t = {
    grammar : Wqi_parser.Engine.compiled;
        (** the grammar pack the parse stage runs — [run] consults only
            this field, never a global *)
    options : Wqi_parser.Engine.options;
    width : int;
    budget : Wqi_budget.Budget.t;
  }

  val std : Wqi_parser.Engine.compiled
  (** The derived global grammar [Wqi_stdgrammar.Std.grammar] compiled
      once, under identity [std]/[1] — the default pack, and the only
      place lib/core depends on the standard grammar. *)

  val default : t
  (** {!std}, default parser options, default page width, unlimited
      budget. *)

  val with_compiled : Wqi_parser.Engine.compiled -> t -> t
  (** Install a prebuilt pack — e.g. one from a grammar-file registry —
      without recompiling. *)

  val with_options : Wqi_parser.Engine.options -> t -> t
  val with_width : int -> t -> t
  val with_budget : Wqi_budget.Budget.t -> t -> t
end

(** What to extract from. *)
type input =
  | Html of string  (** raw markup; runs the full pipeline *)
  | Document of Wqi_html.Dom.t  (** an already-parsed DOM *)
  | Tokens of Wqi_token.Token.t list
      (** an already-tokenized interface; skips the front-end *)

type consumption = {
  html_nodes : int;
  boxes : int;
  charged_tokens : int;
  charged_instances : int;
  rounds : int;
}
(** Gauge counter read-back.  Counters are charged only on governed runs
    (a limited budget); with an unlimited budget the stages skip the
    gauge entirely and all counters read 0. *)

type diagnostics = {
  token_count : int;
  parse_stats : Wqi_parser.Engine.stats;
  tree_count : int;      (** maximal partial trees selected by the parser *)
  complete : bool;       (** a single parse covered every token *)
  parse_seconds : float;
  html_seconds : float;     (** HTML tree construction *)
  layout_seconds : float;   (** box layout *)
  classify_seconds : float; (** atom classification into tokens *)
  merge_seconds : float;    (** partial-parse merging *)
  total_seconds : float;    (** whole run, monotonic clock *)
  budget : Wqi_budget.Budget.t;  (** the budget the run was governed by *)
  consumption : consumption;
}

type extraction = {
  model : Wqi_model.Semantic_model.t;
  tokens : Wqi_token.Token.t list;
  trees : Wqi_grammar.Instance.t list;
      (** the maximal partial parse trees the model was merged from *)
  outcome : Wqi_budget.Budget.outcome;
      (** [Complete], [Degraded trips], or [Failed error] *)
  diagnostics : diagnostics;
}

val run : ?trace:Wqi_obs.Trace.t -> Config.t -> input -> extraction
(** [run config input] extracts under [config]'s budget.  Never raises:
    budget trips degrade the extraction ([outcome = Degraded _], with
    the model merged from the partial pipeline output), and any
    unexpected exception is caught and reported as [outcome = Failed _]
    with an empty model.

    [trace] records one span per pipeline stage ([html], [layout],
    [classify], [parse], [merge]) plus a [total] span, per-stage detail
    instants from the stages themselves, per-fix-point-round parser
    spans, and a [budget_trip] instant for every trip of a degraded
    outcome.  Tracing is observational only: the extraction — and the
    {!export} bytes — are byte-identical with [trace] absent.  A trace
    belongs to one extraction at a time; do not share one across
    concurrent runs. *)

val run_forms : ?trace:Wqi_obs.Trace.t -> Config.t -> string -> extraction list
(** [run_forms config html] extracts each [<form>] element of the page
    separately, each laid out in isolation and each governed by a fresh
    instance of [config.budget] (the budget is per form, not shared
    across the page).  The page-level HTML parse is governed too; if it
    trips, the trip is prepended to every form's outcome.  Pages with no
    [<form>] element yield a single whole-page extraction. *)

val load_grammar :
  string -> (Wqi_parser.Engine.compiled, string) result
(** [load_grammar path] reads a [.wqg] grammar file, resolves it against
    the standard lexical environment ({!Wqi_stdgrammar.Std.env}),
    and compiles it into a pack carrying the file's declared
    name/version — ready for {!Config.with_compiled}.  Errors (I/O,
    malformed file, failed validation) come back as one printable
    [file:line:col]-prefixed string. *)

val merge_trees :
  Wqi_token.Token.t list -> Wqi_parser.Engine.result ->
  Wqi_model.Semantic_model.t * Wqi_grammar.Instance.t list
(** The merge stage of {!run} on its own: the semantic model of a
    parse's maximal trees over [tokens], and the trees that yield at
    least one condition.  Exposed for per-stage measurement. *)

val failed : ?stage:Wqi_budget.Budget.stage -> string -> extraction
(** [failed msg] is an empty extraction with [outcome = Failed _]; for
    drivers that must represent errors arising outside [run] (e.g. a
    batch worker whose file read failed). *)

val conditions : extraction -> Wqi_model.Condition.t list
(** Shorthand for [extraction.model.conditions]. *)

val export :
  ?timings:bool -> name:string -> ?url:string -> extraction -> string
(** The version-2 JSON source description
    ([{"wqi_extraction_version": 2, ...}]): outcome, capabilities, and a
    diagnostics object with counters, per-stage wall times, the budget
    in force and the gauge consumption.  See {!Wqi_model.Export}.

    [~timings:false] omits the wall-time [seconds] object, making the
    JSON a pure function of the input and budget spec — the form the
    extraction server caches and the golden-file tests pin (counters
    are deterministic; wall times are not). *)
