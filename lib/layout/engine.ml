module Dom = Wqi_html.Dom
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
