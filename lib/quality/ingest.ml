module Extractor = Wqi_core.Extractor
module Store = Wqi_store.Store
module Key = Wqi_store.Key
module Budget = Wqi_budget.Budget
module Trace = Wqi_obs.Trace

let key config ~name html =
  let pack = config.Extractor.Config.grammar in
  Key.make ~html
    ~spec:
      (Key.spec ~grammar_name:pack.Wqi_parser.Engine.name
         ~grammar_version:pack.Wqi_parser.Engine.version ~name
         config.Extractor.Config.budget)

type fresh = {
  extraction : Extractor.extraction;
  quality : Quality.t;
  bytes : string option;
  put : (Key.t * Store.meta * string) option;
}

type resolved = Hit of Store.meta * string | Fresh of fresh

type t = { resolved : resolved; probe : (float * float) option }

let resolve ?store ?key:k ?trace ?classify ?(export = false) config ~name
    ~source html =
  let k =
    match (store, k) with
    | Some _, None -> Some (key config ~name html)
    | _ -> k
  in
  let hit, probe =
    match (store, k) with
    | Some st, Some k ->
      let p0 = Trace.now () in
      let r = try Store.find_entry st k with Invalid_argument _ -> None in
      (r, Some (p0, Trace.now ()))
    | _ -> (None, None)
  in
  let resolved =
    match hit with
    | Some (meta, bytes) -> Hit (meta, bytes)
    | None ->
      let domain = match classify with Some f -> f html | None -> "" in
      let e = Extractor.run ?trace config (Extractor.Html html) in
      let quality =
        Quality.of_extraction ~source
          ~grammar:(Quality.grammar_id config.Extractor.Config.grammar)
          ~domain e
      in
      let stored =
        match e.Extractor.outcome with
        | Budget.Failed _ -> false
        | Budget.Complete | Budget.Degraded _ -> Option.is_some store
      in
      let bytes =
        if export || stored then Some (Extractor.export ~timings:false ~name e)
        else None
      in
      let put =
        match (k, bytes) with
        | Some k, Some b when stored -> Some (k, Quality.to_meta quality, b)
        | _ -> None
      in
      Fresh { extraction = e; quality; bytes; put }
  in
  { resolved; probe }
