module Engine = Wqi_layout.Engine

let kind_of : Wqi_layout.Style.widget_kind -> Token.kind = function
  | Textbox -> Token.Textbox
  | Selection -> Token.Selection
  | Radio -> Token.Radio
  | Checkbox -> Token.Checkbox
  | Button -> Token.Button
  | Image -> Token.Image

(* Layout has already classified widgets and trimmed text runs: a token
   copies what it needs. *)
let classify_atom ~fresh { Engine.item; box } =
  match item with
  | Engine.Text_run "" -> None
  | Engine.Text_run s ->
    Some
      { Token.id = fresh (); kind = Token.Text; box; sval = s; name = "";
        options = []; value = ""; checked = false; multiple = false }
  | Engine.Widget w ->
    Some
      { Token.id = fresh (); kind = kind_of w.kind; box; sval = w.label;
        name = w.name; options = w.options; value = w.value;
        checked = w.checked; multiple = w.multiple }

let of_atoms ?gauge ?trace atoms =
  let next_id = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  (* Classification stops at the token cap (or deadline): ids stay dense
     over the prefix kept, so coverage bitsets remain consistent. *)
  let rec go acc = function
    | [] -> List.rev acc
    | atom :: rest ->
      (match classify_atom ~fresh atom with
       | None -> go acc rest
       | Some tok ->
         let within =
           match gauge with
           | None -> true
           | Some g -> Wqi_budget.Budget.token g
         in
         if within then go (tok :: acc) rest else List.rev acc)
  in
  let tokens = go [] atoms in
  (match trace with
   | None -> ()
   | Some _ ->
     Wqi_obs.Trace.instant trace ~cat:"stage"
       ~args:
         [ ("atoms", Wqi_obs.Trace.Int (List.length atoms));
           ("tokens", Wqi_obs.Trace.Int (List.length tokens)) ]
       "tokenize.tokens");
  tokens

let of_document ?gauge ?trace ?width doc =
  of_atoms ?gauge ?trace (Engine.render ?gauge ?trace ?width doc)

let of_html ?gauge ?trace ?width markup =
  of_document ?gauge ?trace ?width (Wqi_html.Parser.parse ?gauge ?trace markup)
