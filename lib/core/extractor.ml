module Engine = Wqi_parser.Engine
module Instance = Wqi_grammar.Instance
module Token = Wqi_token.Token
module Semantic_model = Wqi_model.Semantic_model
module Merger = Wqi_model.Merger
module Budget = Wqi_budget.Budget
module Trace = Wqi_obs.Trace

module Config = struct
  type t = {
    grammar : Engine.compiled;
    options : Engine.options;
    width : int;
    budget : Budget.t;
  }

  (* The one reference to the compiled-in standard grammar in lib/core:
     the default pack.  [run] itself is grammar-parametric —
     it only ever consults [t.grammar].  The pack is the process-wide
     shared one: its arena pool then serves every default-config caller
     rather than one pool per compile site. *)
  let std = Wqi_stdgrammar.Std.compiled

  let default =
    { grammar = std;
      options = Engine.default_options;
      width = Wqi_layout.Style.page_width;
      budget = Budget.unlimited }

  let with_compiled grammar t = { t with grammar }
  let with_options options t = { t with options }
  let with_width width t = { t with width }
  let with_budget budget t = { t with budget }
end

type input =
  | Html of string
  | Document of Wqi_html.Dom.t
  | Tokens of Token.t list

type consumption = {
  html_nodes : int;
  boxes : int;
  charged_tokens : int;
  charged_instances : int;
  rounds : int;
}

type diagnostics = {
  token_count : int;
  parse_stats : Engine.stats;
  tree_count : int;
  complete : bool;
  parse_seconds : float;
  html_seconds : float;
  layout_seconds : float;
  classify_seconds : float;
  merge_seconds : float;
  total_seconds : float;
  budget : Budget.t;
  consumption : consumption;
}

type extraction = {
  model : Semantic_model.t;
  tokens : Token.t list;
  trees : Instance.t list;
  outcome : Budget.outcome;
  diagnostics : diagnostics;
}

(* Stage timing plus a pipeline span when traced; the untraced path
   pays one [None] branch over the pre-tracing stage timer. *)
let timed trace name f =
  let t0 = Budget.now_s () in
  let v = f () in
  let t1 = Budget.now_s () in
  (match trace with
   | None -> ()
   | Some _ -> Trace.span trace ~cat:"pipeline" name ~t0 ~t1);
  (v, t1 -. t0)

(* Budget trips become instant events on the trace, one per trip, so a
   degraded extraction shows where in the timeline degradation began. *)
let trace_trips trace trips =
  match trace with
  | None -> ()
  | Some _ ->
    List.iter
      (fun (t : Budget.trip) ->
         Trace.instant trace ~cat:"pipeline"
           ~args:
             [ ("stage", Trace.Str (Budget.stage_name t.Budget.stage));
               ("reason", Trace.Str (Budget.reason_name t.Budget.reason));
               ("limit", Trace.Int t.Budget.limit);
               ("consumed", Trace.Int t.Budget.consumed) ]
           "budget_trip")
      trips

let zero_stats =
  { Engine.created = 0; live = 0; pruned = 0; rolled_back = 0; temporary = 0;
    truncated = false; guards_tried = 0; guards_admitted = 0; index_probes = 0;
    index_pruned = 0 }

let zero_consumption =
  { html_nodes = 0; boxes = 0; charged_tokens = 0; charged_instances = 0;
    rounds = 0 }

let consumption_of g =
  { html_nodes = Budget.html_nodes g;
    boxes = Budget.boxes g;
    charged_tokens = Budget.tokens g;
    charged_instances = Budget.instances g;
    rounds = Budget.rounds g }

let empty_diagnostics budget =
  { token_count = 0;
    parse_stats = zero_stats;
    tree_count = 0;
    complete = false;
    parse_seconds = 0.;
    html_seconds = 0.;
    layout_seconds = 0.;
    classify_seconds = 0.;
    merge_seconds = 0.;
    total_seconds = 0.;
    budget;
    consumption = zero_consumption }

let failed ?stage message =
  { model = Semantic_model.empty;
    tokens = [];
    trees = [];
    outcome = Budget.Failed { Budget.error_stage = stage; message };
    diagnostics = empty_diagnostics Budget.unlimited }

(* Only trees that explain at least one condition count as parses of
   the query interface; a bare atom wrapper covers nothing semantic,
   so its tokens must still be reported as missing. *)
let merge_trees tokens (result : Engine.result) =
  let trees, parses =
    List.fold_right
      (fun tree (trees, parses) ->
         match Instance.collect_conditions tree with
         | [] -> (trees, parses)
         | conditions ->
           ( tree :: trees,
             { Merger.conditions; cover = Instance.tokens tree } :: parses ))
      result.Engine.maximal ([], [])
  in
  (* Buttons and decorative images carry no query semantics; do not
     report them missing when no parse claimed them. *)
  let ignorable (t : Token.t) =
    match t.kind with
    | Token.Button | Token.Image -> true
    | Token.Text | Token.Textbox | Token.Selection | Token.Radio
    | Token.Checkbox ->
      false
  in
  let model =
    Merger.merge ~tokens ~id:(fun (t : Token.t) -> t.id)
      ~describe:Token.describe ~ignorable parses
  in
  (model, trees)

let run ?trace (config : Config.t) input =
  let g = Budget.start config.budget in
  (* An unlimited budget stays entirely off the stage hot paths: every
     gauge check in the pipeline is a [None] no-op, so ungoverned runs
     behave — instance ids included — exactly as before governance
     existed.  The trace is threaded the same way: [None] everywhere
     costs one branch per stage. *)
  let gauge = if Budget.is_unlimited config.budget then None else Some g in
  let stage = ref Budget.Html in
  let t_start = Budget.now_s () in
  try
    let doc, html_seconds =
      match input with
      | Html markup ->
        let d, s =
          timed trace "html" (fun () -> Wqi_html.Parser.parse ?gauge ?trace markup)
        in
        (Some d, s)
      | Document d -> (Some d, 0.)
      | Tokens _ -> (None, 0.)
    in
    stage := Budget.Layout;
    let atoms, layout_seconds =
      match doc with
      | Some d ->
        timed trace "layout" (fun () ->
            Wqi_layout.Engine.render ?gauge ?trace ~width:config.width d)
      | None -> ([], 0.)
    in
    stage := Budget.Tokenize;
    let tokens, classify_seconds =
      match input with
      | Tokens tokens -> (tokens, 0.)
      | Html _ | Document _ ->
        timed trace "classify" (fun () ->
            Wqi_token.Tokenize.of_atoms ?gauge ?trace atoms)
    in
    stage := Budget.Parse;
    let result, parse_seconds =
      timed trace "parse" (fun () ->
          Engine.parse ?gauge ?trace ~options:config.options
            config.grammar tokens)
    in
    stage := Budget.Merge;
    let (model, trees), merge_seconds =
      timed trace "merge" (fun () -> merge_trees tokens result)
    in
    let outcome =
      match Budget.trips g with
      | _ :: _ as trips -> Budget.Degraded trips
      | [] ->
        if result.Engine.stats.truncated then
          (* Truncated by the engine-level [max_instances] safety valve
             rather than by the gauge: surface it the same way. *)
          Budget.Degraded
            [ { Budget.stage = Budget.Parse;
                reason = Budget.Instances;
                limit = config.options.max_instances;
                consumed = result.Engine.stats.created } ]
        else Budget.Complete
    in
    (match trace with
     | None -> ()
     | Some _ ->
       (match outcome with
        | Budget.Degraded trips -> trace_trips trace trips
        | Budget.Complete | Budget.Failed _ -> ());
       Trace.span trace ~cat:"pipeline" "total" ~t0:t_start
         ~t1:(Budget.now_s ()));
    { model;
      tokens;
      trees;
      outcome;
      diagnostics =
        { token_count = List.length tokens;
          parse_stats = result.Engine.stats;
          tree_count = List.length trees;
          complete = Option.is_some result.Engine.complete;
          parse_seconds;
          html_seconds;
          layout_seconds;
          classify_seconds;
          merge_seconds;
          total_seconds = Budget.elapsed_ms g /. 1000.;
          budget = config.budget;
          consumption = consumption_of g } }
  with e ->
    (match trace with
     | None -> ()
     | Some _ ->
       Trace.instant trace ~cat:"pipeline"
         ~args:
           [ ("stage", Trace.Str (Budget.stage_name !stage));
             ("error", Trace.Str (Printexc.to_string e)) ]
         "failed";
       Trace.span trace ~cat:"pipeline" "total" ~t0:t_start
         ~t1:(Budget.now_s ()));
    { model = Semantic_model.empty;
      tokens = [];
      trees = [];
      outcome =
        Budget.Failed
          { Budget.error_stage = Some !stage; message = Printexc.to_string e };
      diagnostics =
        { (empty_diagnostics config.budget) with
          total_seconds = Budget.elapsed_ms g /. 1000.;
          consumption = consumption_of g } }

let run_forms ?trace (config : Config.t) html =
  let module Dom = Wqi_html.Dom in
  let g = Budget.start config.budget in
  let gauge = if Budget.is_unlimited config.budget then None else Some g in
  let doc, _ =
    timed trace "html" (fun () -> Wqi_html.Parser.parse ?gauge ?trace html)
  in
  (* The page-level parse has its own gauge; if it tripped, every form
     extraction below worked on a truncated page and must say so. *)
  let page_trips = Budget.trips g in
  let degrade e =
    match (page_trips, e.outcome) with
    | [], _ | _, Budget.Failed _ -> e
    | _, Budget.Complete -> { e with outcome = Budget.Degraded page_trips }
    | _, Budget.Degraded trips ->
      { e with outcome = Budget.Degraded (page_trips @ trips) }
  in
  match Dom.find_all (Dom.is_element ~named:"form") doc with
  | [] -> [ degrade (run ?trace config (Document doc)) ]
  | forms ->
    List.map
      (fun form ->
         (* Lay out each form as its own page so that unrelated page
            furniture cannot interfere with its spatial structure. *)
         let isolated = Dom.element "html" [ Dom.element "body" [ form ] ] in
         degrade (run ?trace config (Document isolated)))
      forms

let load_grammar path =
  match Wqi_grammar.Loader.load_grammar ~env:Wqi_stdgrammar.Std.env path with
  | Error msg -> Error msg
  | Ok (decl, g) ->
    (match
       Engine.compile ~name:decl.Wqi_grammar.Algebra.g_name
         ~version:decl.Wqi_grammar.Algebra.g_version g
     with
     | pack -> Ok pack
     | exception Invalid_argument msg -> Error (path ^ ": " ^ msg))

let conditions e = e.model.Semantic_model.conditions

let export ?(timings = true) ~name ?url e =
  let module E = Wqi_model.Export in
  let d = e.diagnostics in
  let stats = d.parse_stats in
  let diagnostics b =
    let field ?(first = false) key = E.add_field b ~first key in
    let int ?first key v =
      field ?first key;
      Buffer.add_string b (Int.to_string v)
    in
    let bool key v =
      field key;
      Buffer.add_string b (Bool.to_string v)
    in
    let seconds ?first key s =
      field ?first key;
      Buffer.add_string b (Printf.sprintf "%.6f" s)
    in
    int ~first:true "tokens" d.token_count;
    int "instances_created" stats.Engine.created;
    int "instances_live" stats.Engine.live;
    int "pruned" stats.Engine.pruned;
    int "rolled_back" stats.Engine.rolled_back;
    int "guards_tried" stats.Engine.guards_tried;
    int "guards_admitted" stats.Engine.guards_admitted;
    int "index_probes" stats.Engine.index_probes;
    int "index_pruned" stats.Engine.index_pruned;
    int "trees" d.tree_count;
    bool "complete" d.complete;
    bool "truncated" stats.Engine.truncated;
    if timings then begin
      field "seconds";
      Buffer.add_char b '{';
      seconds ~first:true "html" d.html_seconds;
      seconds "layout" d.layout_seconds;
      seconds "classify" d.classify_seconds;
      seconds "parse" d.parse_seconds;
      seconds "merge" d.merge_seconds;
      seconds "total" d.total_seconds;
      Buffer.add_char b '}'
    end;
    field "budget";
    E.add_budget b d.budget;
    field "consumed";
    Buffer.add_char b '{';
    int ~first:true "html_nodes" d.consumption.html_nodes;
    int "boxes" d.consumption.boxes;
    int "tokens" d.consumption.charged_tokens;
    int "instances" d.consumption.charged_instances;
    int "rounds" d.consumption.rounds;
    Buffer.add_char b '}'
  in
  let b = Buffer.create 1024 in
  E.add_extraction b ~name ?url ~diagnostics ~outcome:e.outcome e.model;
  Buffer.contents b
