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

(* The open-element stack is a set of parallel arrays, innermost last,
   and the children of every open element sit in one shared array, in
   document order from the element's [start]: closing an element builds
   its child list once, with no reversal.  Each open element records
   the next-outer open element of the same name and the innermost scope
   boundary at or below it, and the builder keeps the innermost open
   element of every name: so the target of a close tag is found without
   walking the stack, and an unmatched close tag costs O(1). *)
module Names = Hashtbl.Make (String)

type builder = {
  mutable depth : int; (* open elements; index 0 is the root *)
  mutable name : string array;
  mutable id : int array; (* [Lexer] name index, or -1 *)
  mutable attrs : (string * string) list array;
  mutable start : int array; (* first child's index in [kids] *)
  mutable prev : int array; (* next-outer open element of this name, or -1 *)
  mutable scope : int array;
      (* innermost scope-boundary element at or below, or -1 *)
  mutable kids : Dom.t array;
  mutable nkids : int;
  inner : int array; (* innermost open element per interned name, or -1 *)
  mutable others : int Names.t option;
      (* the same for names outside the interned set, made on first use *)
}

let innermost b name id =
  if id >= 0 then Array.unsafe_get b.inner id
  else
    match b.others with
    | None -> -1
    | Some t -> Option.value ~default:(-1) (Names.find_opt t name)

let set_innermost b name id idx =
  if id >= 0 then Array.unsafe_set b.inner id idx
  else
    let t =
      match b.others with
      | Some t -> t
      | None ->
        let t = Names.create 8 in
        b.others <- Some t;
        t
    in
    if idx < 0 then Names.remove t name else Names.replace t name idx

let grow a fill =
  let bigger = Array.make (2 * Array.length a) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let add_child b node =
  if b.nkids = Array.length b.kids then b.kids <- grow b.kids node;
  Array.unsafe_set b.kids b.nkids node;
  b.nkids <- b.nkids + 1

(* The child list of the innermost open element, which it removes from
   [kids] (the slots past [nkids] keep stale nodes until the parse ends). *)
let rec collect kids start i acc =
  if i < start then acc
  else collect kids start (i - 1) (Array.unsafe_get kids i :: acc)

let take_children b =
  let start = b.start.(b.depth - 1) in
  let children = collect b.kids start (b.nkids - 1) [] in
  b.nkids <- start;
  children

let top_name b = Array.unsafe_get b.name (b.depth - 1)

let pop b =
  let i = b.depth - 1 in
  let children = take_children b in
  b.depth <- i;
  set_innermost b b.name.(i) b.id.(i) b.prev.(i);
  add_child b (Dom.Element (b.name.(i), b.attrs.(i), children))

let push b name id attrs =
  let i = b.depth in
  if i = Array.length b.name then begin
    b.name <- grow b.name "";
    b.id <- grow b.id (-1);
    b.attrs <- grow b.attrs [];
    b.start <- grow b.start 0;
    b.prev <- grow b.prev (-1);
    b.scope <- grow b.scope (-1)
  end;
  b.name.(i) <- name;
  b.id.(i) <- id;
  b.attrs.(i) <- attrs;
  b.start.(i) <- b.nkids;
  b.prev.(i) <- innermost b name id;
  b.scope.(i) <- (if is_scope_boundary name then i else b.scope.(i - 1));
  b.depth <- i + 1;
  set_innermost b name id i

let rec close_implicit b name =
  if b.depth >= 2 && implicitly_closes name (top_name b) then begin
    pop b;
    close_implicit b name
  end

let handle_open b name id attrs self_closing =
  match name with
  | "html" | "head" | "body" ->
    (* The skeleton is synthesized; ignore explicit skeleton tags but keep
       any attributes off (they do not matter for form extraction). *)
    ()
  | _ ->
    close_implicit b name;
    if is_void name || self_closing then
      add_child b (Dom.Element (name, attrs, []))
    else push b name id attrs

let handle_close b name id =
  if name = "br" then add_child b (Dom.Element ("br", [], []))
  else if is_void name || name = "html" || name = "head" || name = "body"
  then ()
  else begin
    (* Close up to the innermost open element of that name unless a
       scope boundary lies above it (a boundary of that very name is
       itself the target); otherwise ignore the close tag. *)
    let target = innermost b name id in
    if target >= 1 && target >= b.scope.(b.depth - 1) then
      while b.depth > target do
        pop b
      done
  end

exception Out_of_budget

let build ?gauge html =
  let cap = 16 in
  let b =
    { depth = 1; name = Array.make cap "#root"; id = Array.make cap (-1);
      attrs = Array.make cap []; start = Array.make cap 0;
      prev = Array.make cap (-1); scope = Array.make cap (-1);
      kids = Array.make 64 (Dom.Text ""); nkids = 0;
      inner = Array.make Lexer.name_count (-1); others = None }
  in
  (* Charge one budget unit per node-creating markup token.  A trip
     stops the scan; whatever was built so far is closed up and
     returned — tree construction degrades, it never fails. *)
  let spend () =
    match gauge with
    | None -> ()
    | Some g -> if not (Wqi_budget.Budget.html_node g) then raise Out_of_budget
  in
  (try
     Lexer.scan
       { Lexer.text =
           (fun s ->
              spend ();
              (* Text inside elements that only admit element children
                 is kept in place: the layout engine ignores inter-cell
                 text anyway. *)
              add_child b (Dom.Text s));
         open_tag =
           (fun name id attrs self ->
              spend ();
              handle_open b name id attrs self);
         close_tag = (fun name id -> handle_close b name id);
         comment =
           (fun c ->
              spend ();
              add_child b (Dom.Comment c));
         doctype = ignore }
       html
   with Out_of_budget -> ());
  while b.depth >= 2 do
    pop b
  done;
  take_children b

let parse ?gauge ?trace html =
  let body_children = build ?gauge html in
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

let parse_fragment ?gauge html = build ?gauge html
