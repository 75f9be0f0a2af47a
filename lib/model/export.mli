(** Machine-readable export of semantic models.

    The paper's motivation is large-scale integration: mediators need
    *source descriptions* that characterize each deep-Web source's query
    capabilities (Section 1 cites hand-written descriptions as a major
    scaling obstacle).  This module renders an extracted model as JSON
    so downstream tools (interface matching, clustering, unified-
    interface building) can consume it without linking OCaml code. *)

val condition : Condition.t -> string
(** One condition as a JSON object:
    [{"attribute": ..., "operators": [...], "domain": {...}}].
    Domains encode as [{"kind":"text"}], [{"kind":"enumeration",
    "values":[...]}], [{"kind":"range","of":{...}}] or
    [{"kind":"datetime"}]. *)

val model : Semantic_model.t -> string
(** The whole model: conditions plus error reports, pretty-printed. *)

val source_description :
  name:string -> ?url:string -> Semantic_model.t -> string
(** A named source description wrapping {!model} — the integration
    artifact the paper's mediator scenario consumes.  This is the
    version-1 format; governed extractions are exported with
    {!extraction}. *)

(** {1 Versioned extraction export (version 2)}

    Renders the resource-governance side of an extraction: its
    {!Wqi_budget.Budget.outcome} and budget spec, wrapped in a versioned
    envelope [{"wqi_extraction_version": 2, ...}] so downstream
    consumers can dispatch on format. *)

val extraction_version : int
(** The current envelope version, [2].  (Version 1 is the bare
    {!source_description} with neither version field nor outcome.) *)

val trip : Wqi_budget.Budget.trip -> string
(** [{"stage": ..., "reason": ..., "limit": ..., "consumed": ...}]. *)

val outcome : Wqi_budget.Budget.outcome -> string
(** [{"status": "complete"}], [{"status": "degraded", "trips": [...]}]
    or [{"status": "failed", "stage": ..., "message": ...}]. *)

val budget : Wqi_budget.Budget.t -> string
(** The caps that are actually set; [{}] for an unlimited budget. *)

val extraction :
  name:string ->
  ?url:string ->
  outcome:Wqi_budget.Budget.outcome ->
  Semantic_model.t ->
  string
(** The version-2 source description: version, source name, outcome and
    capabilities.  A [diagnostics] object is added through
    {!add_extraction} (see [Wqi_core.Extractor.export]). *)

val failed_source :
  name:string -> ?url:string -> Wqi_budget.Budget.error -> string
(** A version-2 envelope for a source that could not be extracted at
    all (e.g. its file could not be read): failed outcome, empty
    capabilities. *)

(** {1 Writing into a buffer}

    The bytes of the functions above, appended to a caller's buffer, so
    a whole document is written through one [Buffer.t] with no
    intermediate strings.  The JSON primitives (strings, numbers,
    members) are {!Wqi_json.Json}'s. *)

val add_budget : Buffer.t -> Wqi_budget.Budget.t -> unit
(** {!budget}. *)

val size_hint : name:string -> ?url:string -> Semantic_model.t -> int
(** A buffer size that holds the {!extraction} of [m] with a
    diagnostics object, so the buffer is not regrown on the way (over
    3000 generated forms it is never short, and about 10% long). *)

val add_extraction :
  Buffer.t ->
  name:string ->
  ?url:string ->
  ?diagnostics:(Buffer.t -> unit) ->
  outcome:Wqi_budget.Budget.outcome ->
  Semantic_model.t ->
  unit
(** {!extraction}, with the [diagnostics] object's members written by
    the callback (between the braces, starting with a [~first:true]
    field).  Without [diagnostics] the member is omitted. *)
