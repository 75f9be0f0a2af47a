(* The model's JSON, written through [Json]'s primitives.  Every value
   is written straight into one buffer; the string-returning functions
   wrap the writers. *)

module Budget = Wqi_budget.Budget
module Json = Wqi_json.Json

let add_string = Json.add_string
let add_int = Json.add_int
let add_list = Json.add_list
let render = Json.render

let rec add_domain b (d : Condition.domain) =
  match d with
  | Condition.Text -> Buffer.add_string b {|{"kind": "text"}|}
  | Condition.Datetime -> Buffer.add_string b {|{"kind": "datetime"}|}
  | Condition.Enumeration values ->
    Buffer.add_string b {|{"kind": "enumeration", "values": |};
    add_list b add_string values;
    Buffer.add_char b '}'
  | Condition.Range inner ->
    Buffer.add_string b {|{"kind": "range", "of": |};
    add_domain b inner;
    Buffer.add_char b '}'

let add_condition b (c : Condition.t) =
  Buffer.add_string b {|{"attribute": |};
  add_string b c.attribute;
  Buffer.add_string b {|, "operators": |};
  add_list b add_string c.operators;
  Buffer.add_string b {|, "domain": |};
  add_domain b c.domain;
  Buffer.add_char b '}'

let condition c = render add_condition c

let add_error b (e : Semantic_model.error) =
  match e with
  | Semantic_model.Conflict (tok, x, y) ->
    Buffer.add_string b {|{"kind": "conflict", "token": |};
    add_int b tok;
    Buffer.add_string b {|, "between": [|};
    add_string b x;
    Buffer.add_string b ", ";
    add_string b y;
    Buffer.add_string b "]}"
  | Semantic_model.Missing (tok, descr) ->
    Buffer.add_string b {|{"kind": "missing", "token": |};
    add_int b tok;
    Buffer.add_string b {|, "element": |};
    add_string b descr;
    Buffer.add_char b '}'

let add_model b (m : Semantic_model.t) =
  Buffer.add_string b {|{"conditions": |};
  add_list b add_condition m.conditions;
  Buffer.add_string b {|, "errors": |};
  add_list b add_error m.errors;
  Buffer.add_char b '}'

let model m = render add_model m

let add_url b = function
  | Some u ->
    Buffer.add_string b {|, "url": |};
    add_string b u
  | None -> ()

let source_description ~name ?url m =
  let b = Buffer.create 1024 in
  Buffer.add_string b {|{"source": |};
  add_string b name;
  add_url b url;
  Buffer.add_string b {|, "capabilities": |};
  add_model b m;
  Buffer.add_char b '}';
  Buffer.contents b

let add_trip b (t : Budget.trip) =
  Buffer.add_string b {|{"stage": |};
  add_string b (Budget.stage_name t.stage);
  Buffer.add_string b {|, "reason": |};
  add_string b (Budget.reason_name t.reason);
  Buffer.add_string b {|, "limit": |};
  add_int b t.limit;
  Buffer.add_string b {|, "consumed": |};
  add_int b t.consumed;
  Buffer.add_char b '}'

let trip t = render add_trip t

let add_outcome b (o : Budget.outcome) =
  match o with
  | Budget.Complete -> Buffer.add_string b {|{"status": "complete"}|}
  | Budget.Degraded trips ->
    Buffer.add_string b {|{"status": "degraded", "trips": |};
    add_list b add_trip trips;
    Buffer.add_char b '}'
  | Budget.Failed e ->
    Buffer.add_string b {|{"status": "failed"|};
    (match e.Budget.error_stage with
     | Some s ->
       Buffer.add_string b {|, "stage": |};
       add_string b (Budget.stage_name s)
     | None -> ());
    Buffer.add_string b {|, "message": |};
    add_string b e.Budget.message;
    Buffer.add_char b '}'

let outcome o = render add_outcome o

(* One cap of a budget object; returns whether the object is still
   empty. *)
let add_cap b first name = function
  | None -> first
  | Some v ->
    Json.add_field b ~first name;
    add_int b v;
    false

let add_budget b (t : Budget.t) =
  Buffer.add_char b '{';
  let first = add_cap b true "deadline_ms" t.Budget.deadline_ms in
  let first = add_cap b first "max_html_nodes" t.Budget.max_html_nodes in
  let first = add_cap b first "max_boxes" t.Budget.max_boxes in
  let first = add_cap b first "max_tokens" t.Budget.max_tokens in
  let first = add_cap b first "max_instances" t.Budget.max_instances in
  ignore (add_cap b first "max_rounds" t.Budget.max_rounds : bool);
  Buffer.add_char b '}'

let budget t = render ~size:16 add_budget t

let extraction_version = 2

let add_extraction b ~name ?url ?diagnostics ~outcome:o m =
  Buffer.add_string b {|{"wqi_extraction_version": |};
  add_int b extraction_version;
  Buffer.add_string b {|, "source": |};
  add_string b name;
  add_url b url;
  Buffer.add_string b {|, "outcome": |};
  add_outcome b o;
  Buffer.add_string b {|, "capabilities": |};
  add_model b m;
  (match diagnostics with
   | None -> ()
   | Some write ->
     Buffer.add_string b {|, "diagnostics": {|};
     write b;
     Buffer.add_char b '}');
  Buffer.add_char b '}'

(* Above the bytes of every document of the generated corpora: the
   envelope and a diagnostics object in 512, then each member with its
   punctuation.  Only escapes can outgrow it. *)
let rec domain_size = function
  | Condition.Text | Condition.Datetime -> 24
  | Condition.Range d -> 24 + domain_size d
  | Condition.Enumeration vs -> values_size 48 vs

and values_size acc = function
  | [] -> acc
  | v :: rest -> values_size (acc + 4 + String.length v) rest

let rec conditions_size acc = function
  | [] -> acc
  | (c : Condition.t) :: rest ->
    conditions_size
      (acc + 56 + String.length c.attribute + values_size 0 c.operators
       + domain_size c.domain)
      rest

let rec errors_size acc = function
  | [] -> acc
  | Semantic_model.Conflict (_, x, y) :: rest ->
    errors_size (acc + 48 + String.length x + String.length y) rest
  | Semantic_model.Missing (_, d) :: rest ->
    errors_size (acc + 48 + String.length d) rest

let size_hint ~name ?url (m : Semantic_model.t) =
  512 + String.length name
  + (match url with Some u -> 12 + String.length u | None -> 0)
  + conditions_size 0 m.conditions + errors_size 0 m.errors

let extraction ~name ?url ~outcome m =
  let b = Buffer.create (size_hint ~name ?url m) in
  add_extraction b ~name ?url ~outcome m;
  Buffer.contents b

let failed_source ~name ?url e =
  extraction ~name ?url ~outcome:(Budget.Failed e) Semantic_model.empty
