(* Tests for geometry, style metrics, and the layout engine. *)

module Geometry = Wqi_layout.Geometry
module Style = Wqi_layout.Style
module Engine = Wqi_layout.Engine
module Dom = Wqi_html.Dom

(* ------------------------------------------------------------------ *)
(* Reference layout                                                   *)
(* ------------------------------------------------------------------ *)

(* The layout engine and widget classification before the one-pass
   layout tree, kept verbatim as the reference: [Style.widget_size] and
   its helpers, the engine that measures a table cell by laying it out
   again at every level of nesting, and the tokenizer that classified
   widgets a second time.  The tests below check that the library lays
   out the same boxes and classifies the same tokens. *)
module Ref_style = struct
  let char_width = Style.char_width
  let line_height = Style.line_height
  let text_width = Style.text_width

  let int_attr key ~default node =
    match Dom.attr key node with
    | Some v -> (try Int.max 0 (int_of_string (String.trim v)) with Failure _ -> default)
    | None -> default

  let select_size node =
    (* Width follows the longest option label; height follows the [size]
       attribute (a drop-down when size <= 1, a list box otherwise). *)
    let options = Dom.find_all (Dom.is_element ~named:"option") node in
    let longest =
      List.fold_left
        (fun acc opt -> Int.max acc (text_width (String.trim (Dom.text_content opt))))
        (4 * char_width) options
    in
    let rows = int_attr "size" ~default:1 node in
    let h = if rows <= 1 then 22 else 4 + (line_height * rows) in
    (longest + 24, h)

  let input_size node =
    let input_type =
      String.lowercase_ascii (Dom.attr_default "type" ~default:"text" node)
    in
    match input_type with
    | "hidden" -> None
    | "text" | "password" | "search" | "" ->
      let size = int_attr "size" ~default:20 node in
      Some ((char_width + 1) * size + 6, 22)
    | "radio" | "checkbox" -> Some (13, 13)
    | "submit" | "reset" | "button" ->
      let label = Dom.attr_default "value" ~default:"Submit" node in
      Some (text_width label + 24, 24)
    | "image" ->
      Some (int_attr "width" ~default:60 node, int_attr "height" ~default:24 node)
    | "file" -> Some (220, 24)
    | _ ->
      (* Unknown input types render like text boxes. *)
      let size = int_attr "size" ~default:20 node in
      Some ((char_width + 1) * size + 6, 22)

  let widget_size node =
    match Dom.name node with
    | "input" -> input_size node
    | "select" -> Some (select_size node)
    | "textarea" ->
      let cols = int_attr "cols" ~default:20 node in
      let rows = int_attr "rows" ~default:2 node in
      Some ((char_width * cols) + 6, (line_height * rows) + 6)
    | "button" ->
      let label = String.trim (Dom.text_content node) in
      let label = if label = "" then "Submit" else label in
      Some (text_width label + 24, 24)
    | "img" ->
      Some (int_attr "width" ~default:50 node, int_attr "height" ~default:50 node)
    | _ -> None
end

module Ref_engine = struct
  module Style = struct
    include Style

    let widget_size = Ref_style.widget_size
  end

  module Budget = Wqi_budget.Budget

  type item =
    | Text_run of string
    | Widget of Dom.t

  type laid = { item : item; box : Geometry.box }

  (* Layout governance: one context per render.  [live] flips to false
     when the box cap or the deadline trips; every layout loop checks it
     and stops emitting, so a render degrades to a prefix of the page in
     reading order instead of stalling.  [measuring] marks the table
     measuring pass, whose scratch boxes are re-laid at placement time
     and must not be charged twice — it only probes the deadline. *)
  type ctx = {
    gauge : Budget.gauge option;
    mutable live : bool;
    measuring : bool;
  }

  let ctx_spend_box ctx =
    ctx.live
    && (match ctx.gauge with
        | None -> true
        | Some g ->
          let ok =
            if ctx.measuring then Budget.tick g Budget.Layout else Budget.box g
          in
          if not ok then ctx.live <- false;
          ok)

  (* ------------------------------------------------------------------ *)
  (* Element classification                                              *)
  (* ------------------------------------------------------------------ *)

  let is_block = function
    | "address" | "article" | "aside" | "blockquote" | "center" | "dd" | "dir"
    | "div" | "dl" | "dt" | "fieldset" | "figure" | "footer" | "form" | "h1"
    | "h2" | "h3" | "h4" | "h5" | "h6" | "header" | "hr" | "li" | "main"
    | "menu" | "nav" | "ol" | "p" | "pre" | "section" | "table" | "ul"
    | "caption" | "legend" | "html" | "body" ->
      true
    | _ -> false

  let is_skipped = function
    | "head" | "script" | "style" | "title" | "#root" -> true
    | _ -> false

  let is_widget node =
    match Dom.name node with
    | "input" | "select" | "textarea" | "button" | "img" -> true
    | _ -> false

  (* Vertical margin applied above and below a block element. *)
  let block_margin = function
    | "p" -> 8
    | "h1" | "h2" | "h3" | "h4" | "h5" | "h6" -> 10
    | "table" | "ul" | "ol" | "fieldset" -> 4
    | "hr" -> 6
    | _ -> 0

  (* ------------------------------------------------------------------ *)
  (* Inline atom streams                                                 *)
  (* ------------------------------------------------------------------ *)

  type atom =
    | Word of string
    | Space
    | Widget_atom of Dom.t * int * int
    | Break

  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

  (* Split text into Word/Space atoms, collapsing whitespace runs. *)
  let atoms_of_text s acc =
    let n = String.length s in
    let acc = ref acc in
    let i = ref 0 in
    while !i < n do
      if is_ws s.[!i] then begin
        acc := Space :: !acc;
        while !i < n && is_ws s.[!i] do incr i done
      end else begin
        let start = !i in
        while !i < n && not (is_ws s.[!i]) do incr i done;
        acc := Word (String.sub s start (!i - start)) :: !acc
      end
    done;
    !acc

  let rec atoms_of_inline node acc =
    match node with
    | Dom.Text s -> atoms_of_text s acc
    | Dom.Comment _ -> acc
    | Dom.Element ("br", _, _) -> Break :: acc
    | Dom.Element _ when is_widget node ->
      (match Style.widget_size node with
       | Some (w, h) -> Widget_atom (node, w, h) :: acc
       | None -> acc)
    | Dom.Element (name, _, children) ->
      if is_skipped name then acc
      else List.fold_left (fun acc c -> atoms_of_inline c acc) acc children

  (* ------------------------------------------------------------------ *)
  (* Inline flow                                                         *)
  (* ------------------------------------------------------------------ *)

  type entry = {
    e_item : item;
    e_x : int; (* relative to flow origin *)
    e_w : int;
    e_h : int;
  }

  type alignment = [ `Left | `Center | `Right ]

  type flow_state = {
    f_ctx : ctx;
    f_width : int;
    f_align : alignment;
    f_out : laid list ref;
    f_x0 : int;
    f_y0 : int;
    mutable cx : int;
    mutable line_y : int;
    mutable line : entry list; (* reversed *)
    mutable pending_space : bool;
    mutable run : (Buffer.t * int) option; (* buffer, start x *)
  }

  let leading = 3

  let close_run fs =
    match fs.run with
    | None -> ()
    | Some (buf, start) ->
      let s = Buffer.contents buf in
      fs.line <-
        { e_item = Text_run s; e_x = start; e_w = Style.text_width s;
          e_h = Style.text_height }
        :: fs.line;
      fs.run <- None

  let finish_line fs ~force =
    close_run fs;
    (match fs.line with
     | [] -> if force then fs.line_y <- fs.line_y + Style.line_height
     | _ :: _ ->
      let line_height =
        List.fold_left (fun acc e -> Int.max acc e.e_h) Style.line_height fs.line
      in
      let line_width =
        List.fold_left (fun acc e -> Int.max acc (e.e_x + e.e_w)) 0 fs.line
      in
      let shift =
        match fs.f_align with
        | `Left -> 0
        | `Center -> Int.max 0 ((fs.f_width - line_width) / 2)
        | `Right -> Int.max 0 (fs.f_width - line_width)
      in
      List.iter
        (fun e ->
           if ctx_spend_box fs.f_ctx then begin
             let x1 = fs.f_x0 + shift + e.e_x in
             let y1 = fs.f_y0 + fs.line_y + ((line_height - e.e_h) / 2) in
             fs.f_out :=
               { item = e.e_item;
                 box = Geometry.make ~x1 ~y1 ~x2:(x1 + e.e_w) ~y2:(y1 + e.e_h) }
               :: !(fs.f_out)
           end)
        fs.line;
      fs.line <- [];
      fs.line_y <- fs.line_y + line_height + leading);
    fs.cx <- 0;
    fs.pending_space <- false

  let line_is_empty fs =
    match fs.line, fs.run with [], None -> true | _ -> false

  let add_word fs w =
    let word_width = Style.text_width w in
    let space = if fs.pending_space && not (line_is_empty fs) then Style.word_spacing else 0 in
    if fs.cx + space + word_width > fs.f_width && not (line_is_empty fs) then
      finish_line fs ~force:false;
    let space =
      if fs.pending_space && not (line_is_empty fs) then Style.word_spacing else 0
    in
    (match fs.run with
     | Some (buf, _) when space > 0 ->
       Buffer.add_char buf ' ';
       Buffer.add_string buf w
     | Some (buf, _) -> Buffer.add_string buf w
     | None ->
       let buf = Buffer.create 16 in
       Buffer.add_string buf w;
       fs.run <- Some (buf, fs.cx + space));
    fs.cx <- fs.cx + space + word_width;
    fs.pending_space <- false

  let widget_margin = 2

  let add_widget fs node w h =
    close_run fs;
    let space = if fs.pending_space && not (line_is_empty fs) then Style.word_spacing else 0 in
    if fs.cx + space + w > fs.f_width && not (line_is_empty fs) then
      finish_line fs ~force:false;
    let space =
      if fs.pending_space && not (line_is_empty fs) then Style.word_spacing else 0
    in
    fs.line <-
      { e_item = Widget node; e_x = fs.cx + space; e_w = w; e_h = h } :: fs.line;
    fs.cx <- fs.cx + space + w + widget_margin;
    fs.pending_space <- false

  (* Lay out a list of inline atoms; returns the height consumed. *)
  let flow ctx out atoms ~x ~y ~width ~align =
    let fs =
      { f_ctx = ctx; f_width = Int.max 40 width; f_align = align; f_out = out;
        f_x0 = x; f_y0 = y; cx = 0; line_y = 0; line = [];
        pending_space = false; run = None }
    in
    List.iter
      (fun atom ->
         if ctx.live then
           match atom with
           | Space -> if not (line_is_empty fs) then fs.pending_space <- true
           | Word w -> add_word fs w
           | Widget_atom (node, w, h) -> add_widget fs node w h
           | Break -> finish_line fs ~force:true)
      atoms;
    finish_line fs ~force:false;
    (* Remove the trailing leading so adjacent blocks do not drift apart. *)
    if fs.line_y > 0 then fs.line_y - leading else 0

  (* ------------------------------------------------------------------ *)
  (* Block layout                                                        *)
  (* ------------------------------------------------------------------ *)

  let int_attr key ~default node =
    match Dom.attr key node with
    | Some v -> (try Int.max 0 (int_of_string (String.trim v)) with Failure _ -> default)
    | None -> default

  (* A child is "inline-level" for grouping purposes when it is not a block
     element; comments and skipped elements are transparent. *)
  let alignment_of node ~inherited : alignment =
    match String.lowercase_ascii (Dom.attr_default "align" ~default:"" node) with
    | "center" -> `Center
    | "right" -> `Right
    | "left" -> `Left
    | _ -> if Dom.name node = "center" then `Center else inherited

  let rec layout_children ctx out children ~x ~y ~width ~align =
    let total = ref 0 in
    let inline_buffer = ref [] in
    let flush () =
      let atoms = List.rev !inline_buffer in
      inline_buffer := [];
      (* Drop leading/trailing pure whitespace groups. *)
      let has_content =
        List.exists
          (function Word _ | Widget_atom _ | Break -> true | Space -> false)
          atoms
      in
      if has_content && ctx.live then
        total := !total + flow ctx out atoms ~x ~y:(y + !total) ~width ~align
    in
    List.iter
      (fun child ->
         if ctx.live then
           match child with
           | Dom.Comment _ -> ()
           | Dom.Element (name, _, _) when is_skipped name -> ()
           | Dom.Element (name, _, _) when is_block name ->
             flush ();
             let margin = block_margin name in
             total := !total + margin;
             total :=
               !total
               + layout_block ctx out child ~x ~y:(y + !total) ~width
                   ~align:(alignment_of child ~inherited:align);
             total := !total + margin
           | _ -> inline_buffer := atoms_of_inline child !inline_buffer)
      children;
    flush ();
    !total

  and layout_block ctx out node ~x ~y ~width ~align =
    match Dom.name node with
    | "table" -> layout_table ctx out node ~x ~y ~width ~align
    | "ul" | "ol" | "dl" ->
      let indent = 30 in
      layout_children ctx out (Dom.children node) ~x:(x + indent) ~y
        ~width:(Int.max 40 (width - indent)) ~align
    | "hr" -> 10
    | _ -> layout_children ctx out (Dom.children node) ~x ~y ~width ~align

  (* ------------------------------------------------------------------ *)
  (* Table layout                                                        *)
  (* ------------------------------------------------------------------ *)

  and layout_table ctx out node ~x ~y ~width ~align =
    let rows =
      (* Direct tr children plus tr under thead/tbody/tfoot, document order. *)
      List.concat_map
        (fun child ->
           match Dom.name child with
           | "tr" -> [ child ]
           | "thead" | "tbody" | "tfoot" ->
             List.filter (Dom.is_element ~named:"tr") (Dom.children child)
           | _ -> [])
        (Dom.children node)
    in
    match rows with
    | [] -> 0
    | _ :: _ -> begin
      let padding = int_attr "cellpadding" ~default:2 node in
      let spacing = int_attr "cellspacing" ~default:2 node in
      let cells_of_row row =
        List.filter
          (fun c -> Dom.is_element ~named:"td" c || Dom.is_element ~named:"th" c)
          (Dom.children row)
      in
      let colspan cell = Int.max 1 (int_attr "colspan" ~default:1 cell) in
      let ncols =
        List.fold_left
          (fun acc row ->
             Int.max acc
               (List.fold_left (fun n c -> n + colspan c) 0 (cells_of_row row)))
          1 rows
      in
      (* Measuring pass: natural width of each cell's content.  Scratch
         boxes are re-laid at placement time, so measurement runs in a
         deadline-probe-only context and does not charge the box cap
         twice; a deadline trip during measurement still kills [ctx]. *)
      let natural_width cell =
        let scratch = ref [] in
        let mctx = { gauge = ctx.gauge; live = ctx.live; measuring = true } in
        let _h =
          layout_children mctx scratch (Dom.children cell) ~x:0 ~y:0 ~width:3000
            ~align:`Left
        in
        if not mctx.live then ctx.live <- false;
        List.fold_left (fun acc l -> Int.max acc l.box.Geometry.x2) 0 !scratch
      in
      let col_widths = Array.make ncols (2 * padding) in
      (* First size single-span cells, then widen for multi-span ones. *)
      List.iter
        (fun row ->
           let col = ref 0 in
           List.iter
             (fun cell ->
                let span = colspan cell in
                if span = 1 && !col < ncols && ctx.live then
                  col_widths.(!col) <-
                    Int.max col_widths.(!col) (natural_width cell + (2 * padding));
                col := !col + span)
             (cells_of_row row))
        rows;
      List.iter
        (fun row ->
           let col = ref 0 in
           List.iter
             (fun cell ->
                let span = colspan cell in
                if span > 1 && !col + span <= ncols && ctx.live then begin
                  let needed = natural_width cell + (2 * padding) in
                  let current = ref ((span - 1) * spacing) in
                  for j = !col to !col + span - 1 do
                    current := !current + col_widths.(j)
                  done;
                  if needed > !current then begin
                    let extra = (needed - !current + span - 1) / span in
                    for j = !col to !col + span - 1 do
                      col_widths.(j) <- col_widths.(j) + extra
                    done
                  end
                end;
                col := !col + span)
             (cells_of_row row))
        rows;
      (* Placement pass. *)
      let col_x = Array.make ncols 0 in
      let acc = ref (x + spacing) in
      for j = 0 to ncols - 1 do
        col_x.(j) <- !acc;
        acc := !acc + col_widths.(j) + spacing
      done;
      let y_cursor = ref (y + spacing) in
      List.iter
        (fun row ->
           let row_height = ref Style.line_height in
           let col = ref 0 in
           List.iter
             (fun cell ->
                let span = colspan cell in
                if !col < ncols && ctx.live then begin
                  let cw = ref ((span - 1) * spacing) in
                  for j = !col to Int.min (ncols - 1) (!col + span - 1) do
                    cw := !cw + col_widths.(j)
                  done;
                  let content_width = Int.max 20 (!cw - (2 * padding)) in
                  let h =
                    layout_children ctx out (Dom.children cell)
                      ~x:(col_x.(!col) + padding)
                      ~y:(!y_cursor + padding)
                      ~width:content_width
                      ~align:(alignment_of cell ~inherited:align)
                  in
                  row_height := Int.max !row_height (h + (2 * padding))
                end;
                col := !col + span)
             (cells_of_row row);
           y_cursor := !y_cursor + !row_height + spacing)
        rows;
      ignore width;
      !y_cursor - y
    end

  (* ------------------------------------------------------------------ *)
  (* Entry point                                                         *)
  (* ------------------------------------------------------------------ *)

  let render ?gauge ?trace ?(width = Style.page_width) doc =
    let ctx = { gauge; live = true; measuring = false } in
    let out = ref [] in
    let margin = 8 in
    let _height =
      layout_children ctx out (Dom.children doc) ~x:margin ~y:margin
        ~width:(width - (2 * margin)) ~align:`Left
    in
    let atoms =
      List.sort
        (fun a b -> Geometry.compare_reading_order a.box b.box)
        (List.rev !out)
    in
    (match trace with
     | None -> ()
     | Some _ ->
       Wqi_obs.Trace.instant trace ~cat:"stage"
         ~args:
           [ ("atoms", Wqi_obs.Trace.Int (List.length atoms));
             ("width", Wqi_obs.Trace.Int width) ]
         "layout.atoms");
    atoms
end

module Ref_tokenize = struct
  module Engine = Ref_engine
  module Token = Wqi_token.Token

  let option_labels node =
    Dom.find_all (Dom.is_element ~named:"option") node
    |> List.map (fun opt -> String.trim (Dom.text_content opt))
    |> List.filter (fun label -> label <> "")

  let classify_widget node =
    match Dom.name node with
    | "input" ->
      let input_type =
        String.lowercase_ascii (Dom.attr_default "type" ~default:"text" node)
      in
      (match input_type with
       | "radio" -> Some (Token.Radio, "")
       | "checkbox" -> Some (Token.Checkbox, "")
       | "submit" | "reset" | "button" ->
         Some (Token.Button, Dom.attr_default "value" ~default:"Submit" node)
       | "image" ->
         Some (Token.Button, Dom.attr_default "alt" ~default:"" node)
       | "hidden" -> None
       | _ -> Some (Token.Textbox, ""))
    | "textarea" -> Some (Token.Textbox, "")
    | "select" -> Some (Token.Selection, "")
    | "button" -> Some (Token.Button, String.trim (Dom.text_content node))
    | "img" -> Some (Token.Image, Dom.attr_default "alt" ~default:"" node)
    | _ -> None

  let classify_atom ~fresh { Engine.item; box } =
    match item with
    | Engine.Text_run s ->
      let s = String.trim s in
      if s = "" then None
      else
        Some
          { Token.id = fresh (); kind = Token.Text; box; sval = s;
            name = ""; options = []; value = ""; checked = false;
            multiple = false }
    | Engine.Widget node ->
      (match classify_widget node with
       | None -> None
       | Some (kind, sval) ->
         let options =
           match kind with
           | Token.Selection -> option_labels node
           | _ -> []
         in
         Some
           { Token.id = fresh (); kind; box; sval;
             name = Dom.attr_default "name" ~default:"" node;
             options;
             value = Dom.attr_default "value" ~default:"" node;
             checked = Dom.has_attr "checked" node;
             multiple = Dom.has_attr "multiple" node })

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

end

let box = Geometry.make
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- geometry --- *)

let test_box_normalization () =
  let b = box ~x1:10 ~y1:20 ~x2:4 ~y2:6 in
  check_int "x1" 4 b.Geometry.x1;
  check_int "y2" 20 b.Geometry.y2;
  check_int "width" 6 (Geometry.width b);
  check_int "height" 14 (Geometry.height b)

let test_union_contains () =
  let a = box ~x1:0 ~y1:0 ~x2:10 ~y2:10 in
  let b = box ~x1:20 ~y1:5 ~x2:30 ~y2:15 in
  let u = Geometry.union a b in
  check_bool "contains a" true (Geometry.contains u a);
  check_bool "contains b" true (Geometry.contains u b);
  check_int "union width" 30 (Geometry.width u);
  check_bool "union_all empty is origin" true
    (Geometry.equal (Geometry.union_all []) Geometry.origin)

let test_overlaps_and_gaps () =
  let a = box ~x1:0 ~y1:0 ~x2:10 ~y2:10 in
  let b = box ~x1:5 ~y1:8 ~x2:15 ~y2:20 in
  check_int "h_overlap" 5 (Geometry.h_overlap a b);
  check_int "v_overlap" 2 (Geometry.v_overlap a b);
  check_int "h_gap overlapping" 0 (Geometry.h_gap a b);
  let c = box ~x1:20 ~y1:0 ~x2:25 ~y2:10 in
  check_int "h_gap disjoint" 10 (Geometry.h_gap a c);
  check_int "v_gap overlapping" 0 (Geometry.v_gap a c)

let test_left_of () =
  let label = box ~x1:0 ~y1:0 ~x2:40 ~y2:15 in
  let field = box ~x1:45 ~y1:2 ~x2:150 ~y2:20 in
  check_bool "label left of field" true (Geometry.left_of label field);
  check_bool "field not left of label" false (Geometry.left_of field label);
  let far = box ~x1:200 ~y1:0 ~x2:250 ~y2:15 in
  check_bool "gap bound respected" false (Geometry.left_of label far);
  check_bool "gap bound adjustable" true
    (Geometry.left_of ~max_gap:200 label far);
  let below = box ~x1:45 ~y1:30 ~x2:150 ~y2:45 in
  check_bool "no vertical overlap, not left" false
    (Geometry.left_of label below)

let test_above_below () =
  let label = box ~x1:0 ~y1:0 ~x2:40 ~y2:15 in
  let field = box ~x1:0 ~y1:20 ~x2:150 ~y2:40 in
  check_bool "label above field" true (Geometry.above label field);
  check_bool "field below label" true (Geometry.below field label);
  check_bool "not above itself" false (Geometry.above label label);
  let shifted = box ~x1:300 ~y1:20 ~x2:400 ~y2:40 in
  check_bool "no horizontal overlap" false (Geometry.above label shifted)

let test_alignment () =
  let a = box ~x1:10 ~y1:10 ~x2:50 ~y2:20 in
  let b = box ~x1:13 ~y1:40 ~x2:90 ~y2:52 in
  check_bool "left aligned with tolerance" true (Geometry.left_aligned a b);
  check_bool "strict tolerance" false (Geometry.left_aligned ~tolerance:2 a b);
  check_bool "top aligned" false (Geometry.top_aligned a b);
  check_bool "bottom aligned tolerance 32" true
    (Geometry.bottom_aligned ~tolerance:32 a b)

let test_same_row_column () =
  let a = box ~x1:0 ~y1:0 ~x2:40 ~y2:16 in
  let b = box ~x1:50 ~y1:2 ~x2:120 ~y2:18 in
  check_bool "same row" true (Geometry.same_row a b);
  check_bool "not same column" false (Geometry.same_column a b);
  let below_a = box ~x1:0 ~y1:30 ~x2:45 ~y2:46 in
  check_bool "same column" true (Geometry.same_column a below_a)

let test_reading_order () =
  let first = box ~x1:0 ~y1:0 ~x2:40 ~y2:16 in
  let second = box ~x1:60 ~y1:2 ~x2:100 ~y2:18 in
  let third = box ~x1:0 ~y1:30 ~x2:40 ~y2:46 in
  check_bool "same line by x" true
    (Geometry.compare_reading_order first second < 0);
  check_bool "next line after" true
    (Geometry.compare_reading_order second third < 0)

let test_distance () =
  let a = box ~x1:0 ~y1:0 ~x2:10 ~y2:10 in
  let b = box ~x1:30 ~y1:40 ~x2:40 ~y2:50 in
  Alcotest.(check (float 0.001)) "euclidean" 50.0 (Geometry.distance a b)

(* --- style --- *)

let widget html =
  let doc = Wqi_html.Parser.parse html in
  Option.get
    (Dom.find_first
       (fun n -> Dom.is_element n && Dom.name n <> "html" && Dom.name n <> "body")
       doc)

let widget_size node =
  Option.map (fun (w : Style.widget) -> (w.width, w.height)) (Style.widget node)

let test_widget_sizes () =
  (match widget_size (widget {|<input type="text" size="10">|}) with
   | Some (w, h) ->
     check_int "textbox width scales with size" (8 * 10 + 6) w;
     check_int "textbox height" 22 h
   | None -> Alcotest.fail "textbox must be visible");
  (match widget_size (widget {|<input type="radio">|}) with
   | Some (w, h) ->
     check_int "radio square w" 13 w;
     check_int "radio square h" 13 h
   | None -> Alcotest.fail "radio must be visible");
  check_bool "hidden invisible" true
    (widget_size (widget {|<input type="hidden" value="x">|}) = None);
  (match
     widget_size
       (widget {|<select><option>aa</option><option>abcd</option></select>|})
   with
   | Some (w, _) ->
     check_int "select width follows longest option" (4 * 7 + 24) w
   | None -> Alcotest.fail "select must be visible");
  match widget_size (widget {|<textarea cols="10" rows="2"></textarea>|}) with
  | Some (w, h) ->
    check_int "textarea width" (7 * 10 + 6) w;
    check_int "textarea height" (18 * 2 + 6) h
  | None -> Alcotest.fail "textarea must be visible"

let test_text_width_utf8 () =
  check_int "ascii" (5 * Style.char_width) (Style.text_width "abcde");
  (* One multi-byte character counts one cell. *)
  check_int "utf8" (1 * Style.char_width) (Style.text_width "\xc3\xa9")

(* --- layout engine --- *)

let render html = Engine.render (Wqi_html.Parser.parse html)

let texts items =
  List.filter_map
    (fun { Engine.item; box } ->
       match item with Engine.Text_run s -> Some (s, box) | _ -> None)
    items

let widgets items =
  List.filter_map
    (fun { Engine.item; box } ->
       match item with Engine.Widget n -> Some (n, box) | _ -> None)
    items

let test_flow_single_line () =
  let items = render "<p>Author <input type=\"text\"></p>" in
  match (texts items, widgets items) with
  | [ (label, lbox) ], [ (_, wbox) ] ->
    Alcotest.(check string) "label merged" "Author" (String.trim label);
    check_bool "label left of widget" true (Geometry.left_of lbox wbox)
  | _ -> Alcotest.fail "expected one text and one widget"

let test_text_runs_merge_across_inline () =
  let items = render "<p>Book <b>title</b> here</p>" in
  match texts items with
  | [ (s, _) ] -> Alcotest.(check string) "merged" "Book title here" s
  | ts -> Alcotest.failf "expected one run, got %d" (List.length ts)

let test_br_breaks_line () =
  let items = render "<p>one<br>two</p>" in
  match texts items with
  | [ (_, b1); (_, b2) ] ->
    check_bool "second line below" true (b2.Geometry.y1 > b1.Geometry.y1);
    check_bool "left aligned" true (Geometry.left_aligned b1 b2)
  | _ -> Alcotest.fail "expected two runs"

let test_whitespace_collapse () =
  let items = render "<p>a\n   b\t c</p>" in
  match texts items with
  | [ (s, _) ] -> Alcotest.(check string) "collapsed" "a b c" s
  | _ -> Alcotest.fail "expected one run"

let test_word_wrap () =
  let words = String.concat " " (List.init 40 (fun i -> Printf.sprintf "w%02d" i)) in
  let items = Engine.render ~width:200 (Wqi_html.Parser.parse ("<p>" ^ words ^ "</p>")) in
  check_bool "wrapped into several lines" true (List.length (texts items) > 1);
  List.iter
    (fun (_, b) ->
       check_bool "within width" true (b.Geometry.x2 <= 200))
    (texts items)

let test_blocks_stack () =
  let items = render "<div>a</div><div>b</div>" in
  match texts items with
  | [ (_, b1); (_, b2) ] ->
    check_bool "stacked" true (b2.Geometry.y1 >= b1.Geometry.y2)
  | _ -> Alcotest.fail "expected two runs"

let test_table_columns_align () =
  let items =
    render
      {|<table><tr><td>a</td><td>bbbb</td></tr><tr><td>c</td><td>d</td></tr></table>|}
  in
  match texts items with
  | [ (_, a); (_, b); (_, c); (_, d) ] ->
    check_bool "column 0 aligned" true (Geometry.left_aligned ~tolerance:0 a c);
    check_bool "column 1 aligned" true (Geometry.left_aligned ~tolerance:0 b d);
    check_bool "row order" true (a.Geometry.y1 < c.Geometry.y1);
    check_bool "b right of a" true (b.Geometry.x1 > a.Geometry.x2)
  | ts -> Alcotest.failf "expected four runs, got %d" (List.length ts)

let test_table_colspan () =
  let items =
    render
      {|<table><tr><td>aaaaaaaaaa</td><td>b</td></tr><tr><td colspan="2">c</td></tr></table>|}
  in
  check_int "three runs" 3 (List.length (texts items))

let test_nested_table () =
  let items =
    render
      {|<table><tr><td><table><tr><td>inner</td></tr></table></td><td>right</td></tr></table>|}
  in
  match List.sort compare (List.map fst (texts items)) with
  | [ "inner"; "right" ] ->
    let find s = List.assoc s (texts items) in
    check_bool "right cell to the right" true
      ((find "right").Geometry.x1 > (find "inner").Geometry.x1)
  | _ -> Alcotest.fail "expected the two runs"

let test_invisible_skipped () =
  let items =
    render
      {|<head><style>p{}</style></head><p>x<input type="hidden"><script>var a;</script></p>|}
  in
  check_int "only the visible text" 1 (List.length items)

let test_select_options_not_text () =
  let items = render {|<select><option>one</option><option>two</option></select>|} in
  check_int "no text items" 0 (List.length (texts items));
  check_int "one widget" 1 (List.length (widgets items))

let test_vertical_centering () =
  (* A 13px radio on an 18px text line sits vertically within the text. *)
  let items = render {|<p><input type="radio"> option label</p>|} in
  match (widgets items, texts items) with
  | [ (_, wb) ], [ (_, tb) ] ->
    check_bool "vertical overlap" true (Geometry.v_overlap wb tb >= 10)
  | _ -> Alcotest.fail "expected a radio and a text"

let test_reading_order_output () =
  let items = render {|<table><tr><td>a</td><td>b</td></tr></table><p>c</p>|} in
  let names = List.map fst (texts items) in
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] names

let test_list_indent () =
  let items = render {|<ul><li>item</li></ul><p>after</p>|} in
  match texts items with
  | [ (_, li); (_, after) ] ->
    check_bool "indented" true (li.Geometry.x1 > after.Geometry.x1)
  | _ -> Alcotest.fail "expected two runs"

let test_center_alignment () =
  let items =
    Engine.render ~width:400
      (Wqi_html.Parser.parse {|<center><p>mid</p></center><p>left</p>|})
  in
  match texts items with
  | [ ("mid", mid); ("left", left) ] ->
    check_bool "centered line starts later" true
      (mid.Geometry.x1 > left.Geometry.x1 + 100);
    check_bool "roughly centered" true
      (abs (Geometry.center_x mid - 200) < 30)
  | _ -> Alcotest.fail "expected two runs"

let test_right_alignment () =
  let items =
    Engine.render ~width:400
      (Wqi_html.Parser.parse {|<p align="right">end</p>|})
  in
  match texts items with
  | [ (_, b) ] -> check_bool "flush right" true (b.Geometry.x2 > 360)
  | _ -> Alcotest.fail "expected one run"

let test_cell_alignment () =
  let items =
    render
      {|<table><tr><td align="center">aaaaaaaaaa</td></tr><tr><td align="center">bb</td></tr></table>|}
  in
  match texts items with
  | [ (_, long); (_, short) ] ->
    check_bool "short cell content centered under long" true
      (abs (Geometry.center_x short - Geometry.center_x long) < 14)
  | _ -> Alcotest.fail "expected two runs"

(* --- ascii debug rendering --- *)

let test_ascii_rendering () =
  let art =
    Wqi_layout.Debug.ascii_of_html
      {|<form>Author: <input type="text" size="6"><br><input type="radio"> exact</form>|}
  in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' art)
  in
  (match lines with
   | [ first; second ] ->
     check_bool "label drawn" true
       (String.length first >= 7 && String.sub (String.trim first) 0 7 = "Author:");
     check_bool "textbox drawn" true (String.contains first '[');
     check_bool "radio drawn" true (String.contains second '(')
   | _ -> Alcotest.failf "expected two lines, got %d" (List.length lines));
  Alcotest.(check string) "empty input" ""
    (Wqi_layout.Debug.ascii_of_html "")

let test_ascii_widget_sketches () =
  let art =
    Wqi_layout.Debug.ascii_of_html
      {|<form><select><option>Hardcover</option></select> <input type="checkbox"> <input type="submit" value="Go"></form>|}
  in
  check_bool "select sketch" true
    (String.length art > 0 &&
     (let contains needle =
        let n = String.length needle and h = String.length art in
        let rec at i = i + n <= h && (String.sub art i n = needle || at (i+1)) in
        at 0
      in
      contains "[v Hardcover]" && contains "[_]" && contains "<Go"))

(* --- layout tree against the reference --- *)

module Q = QCheck
module Gen = QCheck.Gen

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Laid atoms as comparable data: widgets by their element. *)
let view items =
  List.map
    (fun { Engine.item; box } ->
       match item with
       | Engine.Text_run s -> (`Text s, box)
       | Engine.Widget w -> (`Widget w.Style.node, box))
    items

let ref_view items =
  List.map
    (fun { Ref_engine.item; box } ->
       match item with
       | Ref_engine.Text_run s -> (`Text s, box)
       | Ref_engine.Widget n -> (`Widget n, box))
    items

(* Same boxes as the reference engine, and the same tokens as the
   reference tokenizer over them. *)
let same_layout ?(width = Style.page_width) html =
  let doc = Wqi_html.Parser.parse html in
  let laid = Engine.render ~width doc in
  let reference = Ref_engine.render ~width doc in
  view laid = ref_view reference
  && Wqi_token.Tokenize.of_atoms laid = Ref_tokenize.of_atoms reference

let repeat k s = String.concat "" (List.init k (fun _ -> s))

let nest k = repeat k "<table><tr><td>" ^ "x" ^ repeat k "</td></tr></table>"

let leaf_gen =
  Gen.oneofl
    [ ""; "Author:"; "a b  c"; " Title "; "<input type=\"text\" size=\"8\">";
      "<input type=radio name=r> exact";
      "<select><option>Any</option><option> Paperback </option></select>";
      "<br>"; "Publication year between"; "<b>bold</b> run";
      "<img src=a.gif width=30 height=10 alt=icon>";
      "<input type=\"SUBMIT\" value=\"Go\">"; "<button> Find </button>";
      "<textarea cols=30></textarea>"; "&nbsp;"; "<p>para</p>";
      "<center>mid</center>"; "<input type=hidden value=x>" ]

let attrs_gen =
  Gen.(
    map (String.concat "")
      (list_size (int_bound 3)
         (oneofl
            [ " cellpadding=\"4\""; " cellspacing=0"; " align=\"right\"";
              " align=CENTER"; " border=1"; " cellpadding=\" 3 \"";
              " width=\"100%\"" ])))

let cell_attrs_gen =
  Gen.oneofl
    [ ""; ""; " colspan=2"; " align=\"center\""; " align=right";
      " colspan=\"3\"" ]

(* A nest of tables [depth] deep: at each level one cell holds the next
   level, the others leaf content, sometimes wrapped in a block that
   sets the alignment or in an inline element that flattens it. *)
let rec nest_gen depth g =
  if depth = 0 then leaf_gen g
  else begin
    let inner = nest_gen (depth - 1) g in
    let rows = 1 + Gen.int_bound 1 g in
    let target_row = Gen.int_bound (rows - 1) g in
    let b = Buffer.create 256 in
    Buffer.add_string b ("<table" ^ attrs_gen g ^ ">");
    for r = 0 to rows - 1 do
      Buffer.add_string b "<tr>";
      let cells = 1 + Gen.int_bound 2 g in
      let target = Gen.int_bound (cells - 1) g in
      for c = 0 to cells - 1 do
        Buffer.add_string b ("<td" ^ cell_attrs_gen g ^ ">");
        Buffer.add_string b
          (if r = target_row && c = target then inner else leaf_gen g);
        Buffer.add_string b (leaf_gen g);
        Buffer.add_string b "</td>"
      done;
      Buffer.add_string b "</tr>"
    done;
    Buffer.add_string b "</table>";
    let t = Buffer.contents b in
    match Gen.int_bound 5 g with
    | 0 -> "<div align=\"center\">" ^ t ^ "</div>"
    | 1 -> "<font size=2>" ^ t ^ "</font>"
    | 2 -> "<center>" ^ t ^ " after</center>"
    | _ -> t
  end

let prop_nests_match_reference =
  Q.Test.make ~name:"nested tables (<= 14 levels): boxes and tokens = reference"
    ~count:150
    (Q.make ~print:(Printf.sprintf "%S")
       Gen.(int_bound 14 >>= fun d -> nest_gen d))
    (fun html -> same_layout html && same_layout ~width:300 html)

let test_nests_match_reference () =
  for k = 0 to 14 do
    if not (same_layout (nest k)) then Alcotest.failf "nest of %d differs" k
  done

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_documents_match_reference () =
  let files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".html")
    |> List.sort String.compare
    |> List.map (fun f -> (f, read_file (Filename.concat dir f)))
  in
  let g = Wqi_corpus.Prng.create 0x4C41_594FL in
  let domains = Array.of_list Wqi_corpus.Vocabulary.all in
  let generated =
    List.init 60 (fun i ->
        ( Printf.sprintf "generated %d" i,
          (Wqi_corpus.Generator.generate g ~id:(string_of_int i)
             ~domain:domains.(i mod Array.length domains)
             ~complexity:(if i mod 2 = 0 then `Simple else `Rich)
             ~oog_prob:0.1 ~header_prob:0.2 ())
            .Wqi_corpus.Generator.html ))
  in
  List.iter
    (fun (name, html) ->
       if not (same_layout html) then Alcotest.failf "%s: layout differs" name)
    (files "../examples/fixtures" @ files "golden"
     @ List.map
         (fun (f : Fixtures.fixture) -> (f.Fixtures.name, f.Fixtures.html))
         Fixtures.all
     @ generated)

(* Each cell's natural width is measured once per render: nesting no
   longer doubles the work per level. *)
let test_deep_nest_is_fast () =
  let doc = Wqi_html.Parser.parse (nest 40) in
  let laid, dt = time (fun () -> Engine.render doc) in
  check_int "one atom" 1 (List.length laid);
  check_bool (Printf.sprintf "40 levels in %.4f s (< 0.1 s)" dt) true (dt < 0.1);
  let doc = Wqi_html.Parser.parse (nest 1000) in
  let laid, dt = time (fun () -> Engine.render doc) in
  check_int "one atom" 1 (List.length laid);
  check_bool (Printf.sprintf "1000 levels in %.4f s (< 1 s)" dt) true (dt < 1.0)

let suite =
  [ ("geometry: normalization", `Quick, test_box_normalization);
    ("geometry: union/contains", `Quick, test_union_contains);
    ("geometry: overlaps and gaps", `Quick, test_overlaps_and_gaps);
    ("geometry: left_of", `Quick, test_left_of);
    ("geometry: above/below", `Quick, test_above_below);
    ("geometry: alignment", `Quick, test_alignment);
    ("geometry: same row/column", `Quick, test_same_row_column);
    ("geometry: reading order", `Quick, test_reading_order);
    ("geometry: distance", `Quick, test_distance);
    ("style: widget sizes", `Quick, test_widget_sizes);
    ("style: utf8 width", `Quick, test_text_width_utf8);
    ("engine: single line flow", `Quick, test_flow_single_line);
    ("engine: runs merge across inline", `Quick, test_text_runs_merge_across_inline);
    ("engine: br breaks line", `Quick, test_br_breaks_line);
    ("engine: whitespace collapse", `Quick, test_whitespace_collapse);
    ("engine: word wrap", `Quick, test_word_wrap);
    ("engine: blocks stack", `Quick, test_blocks_stack);
    ("engine: table columns align", `Quick, test_table_columns_align);
    ("engine: table colspan", `Quick, test_table_colspan);
    ("engine: nested table", `Quick, test_nested_table);
    ("engine: invisible skipped", `Quick, test_invisible_skipped);
    ("engine: select options not text", `Quick, test_select_options_not_text);
    ("engine: vertical centering", `Quick, test_vertical_centering);
    ("engine: reading order", `Quick, test_reading_order_output);
    ("engine: list indent", `Quick, test_list_indent);
    ("engine: center alignment", `Quick, test_center_alignment);
    ("engine: right alignment", `Quick, test_right_alignment);
    ("engine: cell alignment", `Quick, test_cell_alignment);
    ("debug: ascii rendering", `Quick, test_ascii_rendering);
    ("debug: widget sketches", `Quick, test_ascii_widget_sketches);
    ("engine: nests of 0-14 tables = reference", `Quick,
     test_nests_match_reference);
    QCheck_alcotest.to_alcotest prop_nests_match_reference;
    ("engine: documents = reference", `Quick, test_documents_match_reference);
    ("engine: 40-level table nest is fast", `Quick, test_deep_nest_is_fast) ]
