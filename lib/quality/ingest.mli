(** The ingestion step [wqi_batch], [wqi_crawl] and [wqi_serve] share:
    resolve one document against an optional persistent store.

    It keys the document ({!key}), probes the store through
    {!Store.find_entry} — so every hit is CRC-verified — and on a miss
    extracts it, computes its {!Quality} record and builds the put
    payload, which a failed extraction never gets: a crash or a grammar
    fix retries it.  It never writes the store; each front puts the
    payload under its own policy (the CLIs in input order from their
    ordered map's commit, the server before it responds). *)

module Extractor = Wqi_core.Extractor
module Store = Wqi_store.Store
module Key = Wqi_store.Key

val key : Extractor.Config.t -> name:string -> string -> Key.t
(** [key config ~name html]: normalized [html] ⊕ the {!Key.spec} of
    [config]'s grammar pack and budget and [name] — the key of the
    serve cache, the store and [wqi_batch]'s trace file names. *)

type fresh = {
  extraction : Extractor.extraction;
  quality : Quality.t;
  bytes : string option;
      (** [Extractor.export ~timings:false ~name], rendered when asked
          for ([~export:true]) or put *)
  put : (Key.t * Store.meta * string) option;
      (** the {!Store.put} arguments: given a store, present unless the
          extraction failed *)
}

type resolved =
  | Hit of Store.meta * string  (** a verified entry and its bytes *)
  | Fresh of fresh

type t = {
  resolved : resolved;
  probe : (float * float) option;
      (** {!Wqi_obs.Trace.now} stamps around the store probe, if any *)
}

val resolve :
  ?store:Store.t -> ?key:Key.t -> ?trace:Wqi_obs.Trace.t ->
  ?classify:(string -> string) -> ?export:bool ->
  Extractor.Config.t -> name:string -> source:string -> string -> t
(** [resolve ?store config ~name ~source html] answers [html] from
    [store] under [key] (default {!key}); a miss, or a closed store,
    extracts it.  On a miss, [trace] records the extraction, the
    record and entry carry [source] and the domain [classify html]
    ([""] without it), and [export] (default [false]) renders the bytes
    even with no store.  Extraction errors come back as a [Failed]
    outcome, never as an exception. *)
