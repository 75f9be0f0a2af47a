let is_void = function
  | "area" | "base" | "br" | "col" | "embed" | "hr" | "img" | "input"
  | "link" | "meta" | "param" | "source" | "track" | "wbr" ->
    true
  | _ -> false

(* For an incoming open tag [name], the set of currently-open element names
   it implicitly closes (checked innermost-first, repeatedly). *)
let implicitly_closes name open_name =
  match name with
  | "li" -> open_name = "li"
  | "option" -> open_name = "option"
  | "optgroup" -> open_name = "option" || open_name = "optgroup"
  | "td" | "th" -> open_name = "td" || open_name = "th"
  | "tr" -> open_name = "td" || open_name = "th" || open_name = "tr"
  | "thead" | "tbody" | "tfoot" ->
    (match open_name with
     | "td" | "th" | "tr" | "thead" | "tbody" | "tfoot" -> true
     | _ -> false)
  | "p" | "div" | "table" | "form" | "ul" | "ol" | "h1" | "h2" | "h3"
  | "h4" | "h5" | "h6" | "hr" | "pre" | "blockquote" ->
    open_name = "p"
  | _ -> false

(* Elements that stop the upward search when recovering from an unmatched
   close tag: we never close past these scoping boundaries. *)
let is_scope_boundary = function
  | "html" | "body" | "table" | "td" | "th" -> true
  | _ -> false

type frame = {
  f_name : string;
  f_attrs : (string * string) list;
  mutable f_children : Dom.t list; (* reversed *)
}

type builder = { mutable stack : frame list (* innermost first *) }

let new_frame name attrs = { f_name = name; f_attrs = attrs; f_children = [] }

let add_child b node =
  match b.stack with
  | top :: _ -> top.f_children <- node :: top.f_children
  | [] -> assert false

let pop b =
  match b.stack with
  | top :: rest ->
    b.stack <- rest;
    add_child b
      (Dom.Element (top.f_name, top.f_attrs, List.rev top.f_children))
  | [] -> assert false

let push b name attrs = b.stack <- new_frame name attrs :: b.stack

let rec close_implicit b name =
  match b.stack with
  | top :: _ :: _ when implicitly_closes name top.f_name ->
    pop b;
    close_implicit b name
  | _ -> ()

let handle_open b name attrs self_closing =
  match name with
  | "html" | "head" | "body" ->
    (* The skeleton is synthesized; ignore explicit skeleton tags but keep
       any attributes off (they do not matter for form extraction). *)
    ()
  | _ ->
    close_implicit b name;
    if is_void name || self_closing then
      add_child b (Dom.Element (name, attrs, []))
    else push b name attrs

let handle_close b name =
  if name = "br" then add_child b (Dom.Element ("br", [], []))
  else if is_void name || name = "html" || name = "head" || name = "body"
  then ()
  else begin
    (* Search for a matching open element without crossing a scope
       boundary; if absent, ignore the close tag. *)
    let rec find_depth depth = function
      | [] -> None
      | f :: _ when f.f_name = name -> Some depth
      | f :: _ when is_scope_boundary f.f_name -> None
      | _ :: rest -> find_depth (depth + 1) rest
    in
    match find_depth 0 b.stack with
    | None -> ()
    | Some depth ->
      for _ = 0 to depth do
        pop b
      done
  end

(* Text inside elements that only admit element children is dropped when it
   is pure whitespace, otherwise it is reparented conceptually; we keep it
   in place (the layout engine ignores inter-cell text anyway). *)
let handle_text b s = add_child b (Dom.Text s)

exception Out_of_budget

let build ?gauge tokens =
  let root = new_frame "#root" [] in
  let b = { stack = [ root ] } in
  (* Charge one budget unit per node-creating markup token.  A trip
     stops consuming input; whatever was built so far is closed up and
     returned — tree construction degrades, it never fails. *)
  let spend () =
    match gauge with
    | None -> ()
    | Some g -> if not (Wqi_budget.Budget.html_node g) then raise Out_of_budget
  in
  (try
     List.iter
       (fun tok ->
          match tok with
          | Lexer.Text s ->
            spend ();
            handle_text b s
          | Lexer.Open (name, attrs, self) ->
            spend ();
            handle_open b name attrs self
          | Lexer.Close name -> handle_close b name
          | Lexer.Comment c ->
            spend ();
            add_child b (Dom.Comment c)
          | Lexer.Doctype _ -> ())
       tokens
   with Out_of_budget -> ());
  let rec close_all () =
    match b.stack with
    | _ :: _ :: _ ->
      pop b;
      close_all ()
    | [ _ ] | [] -> ()
  in
  close_all ();
  List.rev root.f_children

let parse ?gauge ?trace html =
  let body_children = build ?gauge (Lexer.tokenize html) in
  let doc = Dom.element "html" [ Dom.element "body" body_children ] in
  (* Node counting walks the tree, so it runs only under a trace. *)
  (match trace with
   | None -> ()
   | Some _ ->
     Wqi_obs.Trace.instant trace ~cat:"stage"
       ~args:
         [ ("nodes", Wqi_obs.Trace.Int (Dom.fold (fun n _ -> n + 1) 0 doc));
           ("bytes", Wqi_obs.Trace.Int (String.length html)) ]
       "html.dom");
  doc

let parse_fragment ?gauge html = build ?gauge (Lexer.tokenize html)
