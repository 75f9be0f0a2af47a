(** The best-effort parser (Section 5, algorithm 2PParser of Figure 11).

    Fix-point, bottom-up instantiation of grammar symbols in 2P-schedule
    order, with just-in-time pruning by preferences, rollback of
    invalidated ancestors, and partial-tree maximization by maximum
    subsumption.

    The parser never rejects an input: when the grammar cannot explain
    the whole token set it returns the maximal partial parse trees
    (Section 5.3). *)

type options = {
  use_preferences : bool;
      (** [false] disables pruning entirely — the "brute-force"
          exhaustive parse of Section 4.2.1, used for the ambiguity
          ablation. *)
  use_scheduling : bool;
      (** [false] keeps preferences but enforces them only once, at the
          end of parsing ("late pruning"), relying on rollback; isolates
          the benefit of the 2P schedule graph. *)
  max_instances : int;
      (** Safety valve: parsing stops growing (and sets
          [stats.truncated]) once this many instances exist.  Visual
          language membership is NP-complete (Section 5.1), so the
          exhaustive mode needs a bound. *)
  use_hints : bool;
      (** [true] (the default) lets the engine use the
          productions' declarative spatial hints: hinted component slots
          anchored to an already-bound component enumerate only the
          spatially compatible candidates, found through a per-symbol
          row-band index.  Hints are an optimization, never a semantic
          filter — every hint is implied by its production's guard, the
          guard is still evaluated on every surviving combination, and
          index probes return candidates in creation order, so results
          are byte-identical with hints off (instance ids included). *)
}

val default_options : options
(** Preferences on, scheduling on, [max_instances = 200_000], hints
    on. *)

type stats = {
  created : int;       (** instances ever created, tokens included *)
  live : int;          (** instances alive at the end *)
  pruned : int;        (** losers killed by preference enforcement *)
  rolled_back : int;   (** ancestors killed by rollback *)
  temporary : int;     (** created instances that ended up in no maximal
                           tree — the paper's "temporary instances" *)
  truncated : bool;
  guards_tried : int;
      (** Production-guard invocations — the guard pressure.  The
          spatial candidate index exists to shrink this number. *)
  guards_admitted : int;
      (** Guard invocations that returned [true] (each admits one new
          instance). *)
  index_probes : int;
      (** Row-band index probes issued for hinted component slots. *)
  index_pruned : int;
      (** Candidates skipped by index probes: the difference between the
          scan lengths the unhinted engine would have walked and the
          candidate lists the index returned. *)
}

type result = {
  tokens : Wqi_token.Token.t list;
  token_instances : Wqi_grammar.Instance.t list;
  all_live : Wqi_grammar.Instance.t list;
      (** Every live instance, terminals included. *)
  maximal : Wqi_grammar.Instance.t list;
      (** Maximum partial parse trees: live nonterminal instances with no
          live parent whose cover is not subsumed by another such
          instance.  A complete parse is the special case of a single
          tree covering every token. *)
  complete : Wqi_grammar.Instance.t option;
      (** A live start-symbol instance covering all tokens, if any. *)
  stats : stats;
}

(** A grammar compiled for repeated parsing: the 2P schedule (d-edges +
    r-edges), the d-edge-only ablation order, and the per-symbol
    preference table are derived once instead of on every parse, and the
    pack carries the grammar's identity ([name]/[version]) so callers
    that cache or route by grammar (the extraction service) have a
    stable key.  A pack is immutable after {!compile} and safe to share
    across domains. *)
type compiled = private {
  grammar : Wqi_grammar.Grammar.t;
  name : string;
  version : string;
  order_ids : int array;
      (** the 2P schedule's instantiation order as interned symbol ids *)
  d_order_ids : int array;
      (** topological order over d-edges alone, for
          [use_scheduling = false], as interned symbol ids *)
  relaxed : Dispatch.fpref array;
      (** the schedule's relaxed preferences, with winner and loser ids
          resolved *)
  tables : Dispatch.t;
      (** flat dispatch tables: interned symbol ids, per-production
          component/watermark layout, packed spatial checks *)
  pool : Arena.pool;
      (** reusable parse arenas (lock-free stack); the only mutable
          member, safe to share across domains *)
}

val compile :
  ?name:string -> ?version:string -> Wqi_grammar.Grammar.t -> compiled
(** [compile g] validates [g] (raising [Invalid_argument] if
    [Grammar.validate] fails) and precomputes everything {!parse}
    needs.  [name] defaults to ["anonymous"], [version] to ["0"];
    loaders pass the grammar file's declared identity. *)

val parse :
  ?gauge:Wqi_budget.Budget.gauge ->
  ?trace:Wqi_obs.Trace.t ->
  ?options:options ->
  compiled ->
  Wqi_token.Token.t list ->
  result
(** [parse pack tokens] runs the 2P parser with [pack]'s grammar.

    Each fix-point round is driven from the per-symbol delta sets (the
    semi-naive discipline): only production applications binding at
    least one instance created since the production's previous
    application are enumerated, in the lexicographic nested-loop order
    of the naive re-enumeration, so instance ids match that reference
    exactly.

    [gauge] charges one budget unit per instance created (token
    instances included) and one per fix-point round; hot enumeration
    loops additionally probe the deadline.  When any of these trips, the
    parse stops growing exactly as with [max_instances] — the partial
    instance store is still maximized, so maximal partial trees are
    returned and [stats.truncated] is set.  With [gauge] absent the
    engine is byte-for-byte identical to the ungoverned parser
    (instance ids included).

    [trace] records one span per fix-point round (named after the
    symbol, carrying the {!stats} deltas that round produced), one span
    per preference enforcement that killed instances (the rollback
    annotation), a [budget_trip] instant when the parse was truncated,
    and a span around maximal-tree selection.  Tracing is observational
    only: results — instance ids included — are byte-identical with
    [trace] absent. *)

val count_trees : result -> int
(** Number of distinct complete parse trees (live start-symbol instances
    covering all tokens) — the quantity the paper reports as "25 parse
    trees" for the exhaustive parse of the Figure-5 fragment.  Falls back
    to the number of maximal partial trees when no complete parse
    exists. *)
