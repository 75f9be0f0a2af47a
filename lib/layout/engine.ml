module Dom = Wqi_html.Dom
module Budget = Wqi_budget.Budget

type item =
  | Text_run of string
  | Widget of Style.widget

type laid = { item : item; box : Geometry.box }

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

let is_widget = function
  | "input" | "select" | "textarea" | "button" | "img" -> true
  | _ -> false

(* Vertical margin applied above and below a block element. *)
let block_margin = function
  | "p" -> 8
  | "h1" | "h2" | "h3" | "h4" | "h5" | "h6" -> 10
  | "table" | "ul" | "ol" | "fieldset" -> 4
  | "hr" -> 6
  | _ -> 0

type alignment = [ `Left | `Center | `Right ]

(* [v] equals the lowercase literal [lit], ASCII case-insensitively. *)
let equal_ci v lit =
  String.length v = String.length lit
  &&
  let rec go i =
    i < 0
    || (Char.lowercase_ascii (String.unsafe_get v i) = String.unsafe_get lit i
        && go (i - 1))
  in
  go (String.length lit - 1)

(* The alignment an element sets for its content, if any: its [align]
   attribute, else [center] for a [center] element. *)
let alignment_of node : alignment option =
  match Dom.attr "align" node with
  | Some v when equal_ci v "center" -> Some `Center
  | Some v when equal_ci v "right" -> Some `Right
  | Some v when equal_ci v "left" -> Some `Left
  | _ -> if Dom.name node = "center" then Some `Center else None

(* ------------------------------------------------------------------ *)
(* Layout tree                                                         *)
(* ------------------------------------------------------------------ *)

(* One pass over the DOM reduces it to what layout reads: inline atoms
   (words as slices of their text node, widgets classified once), block
   boxes and tables.  The measuring and placement passes below both run
   over this tree, and a table cell's natural width is measured once per
   render. *)

type atom =
  | Word of string * int * int (* text node, offset, length *)
  | Space
  | Widget_atom of Style.widget
  | Break

type node =
  | Inline of atom list (* a run of inline children holding content *)
  | Block of block

and block = { margin : int; align : alignment option; body : body }

and body =
  | Children of node list
  | Indented of node list (* ul, ol, dl *)
  | Rule (* hr *)
  | Table of table

and table = {
  padding : int;
  spacing : int;
  ncols : int;
  rows : cell list list; (* the td/th cells of each row *)
  mutable measured : (alignment * int * int) list;
      (* measuring-pass results per inherited alignment: height, and the
         right edge of the boxes relative to the table's x (min_int when
         it placed none) *)
}

and cell = {
  span : int;
  cell_align : alignment option;
  content : node list;
  mutable natural : int; (* natural content width, -1 until measured *)
}

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

(* Split text into Word/Space atoms, collapsing whitespace runs; [acc]
   is reversed. *)
let atoms_of_text s acc =
  let n = String.length s in
  let acc = ref acc in
  let i = ref 0 in
  while !i < n do
    if is_ws (String.unsafe_get s !i) then begin
      acc := Space :: !acc;
      while !i < n && is_ws (String.unsafe_get s !i) do incr i done
    end else begin
      let start = !i in
      while !i < n && not (is_ws (String.unsafe_get s !i)) do incr i done;
      acc := Word (s, start, !i - start) :: !acc
    end
  done;
  !acc

let rec atoms_of_inline node acc =
  match node with
  | Dom.Text s -> atoms_of_text s acc
  | Dom.Comment _ -> acc
  | Dom.Element ("br", _, _) -> Break :: acc
  | Dom.Element (name, _, children) ->
    if is_widget name then
      match Style.widget node with
      | Some w -> Widget_atom w :: acc
      | None -> acc
    else if is_skipped name then acc
    else List.fold_left (fun acc c -> atoms_of_inline c acc) acc children

let has_content atoms =
  List.exists
    (function Word _ | Widget_atom _ | Break -> true | Space -> false)
    atoms

(* A block context's children: consecutive inline children (comments
   and skipped elements are transparent) form one inline run, dropped
   when it is only whitespace. *)
let rec nodes_of children =
  let rec go out inline = function
    | [] -> List.rev (close out inline)
    | child :: rest ->
      (match child with
       | Dom.Comment _ -> go out inline rest
       | Dom.Element (name, _, _) when is_skipped name -> go out inline rest
       | Dom.Element (name, _, _) when is_block name ->
         go (Block (block_of name child) :: close out inline) [] rest
       | Dom.Text _ | Dom.Element _ ->
         go out (atoms_of_inline child inline) rest)
  and close out inline =
    if has_content inline then Inline (List.rev inline) :: out else out
  in
  go [] [] children

and block_of name node =
  let body =
    match name with
    | "table" -> Table (table_of node)
    | "ul" | "ol" | "dl" -> Indented (nodes_of (Dom.children node))
    | "hr" -> Rule
    | _ -> Children (nodes_of (Dom.children node))
  in
  { margin = block_margin name; align = alignment_of node; body }

and table_of node =
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
  let cell_of c =
    match c with
    | Dom.Element (("td" | "th"), _, children) ->
      Some
        { span = Int.max 1 (Style.int_attr "colspan" ~default:1 c);
          cell_align = alignment_of c; content = nodes_of children;
          natural = -1 }
    | _ -> None
  in
  let rows =
    List.map (fun row -> List.filter_map cell_of (Dom.children row)) rows
  in
  let ncols =
    List.fold_left
      (fun acc cells ->
         Int.max acc (List.fold_left (fun n c -> n + c.span) 0 cells))
      1 rows
  in
  { padding = Style.int_attr "cellpadding" ~default:2 node;
    spacing = Style.int_attr "cellspacing" ~default:2 node;
    ncols; rows; measured = [] }

(* ------------------------------------------------------------------ *)
(* Layout context                                                      *)
(* ------------------------------------------------------------------ *)

(* Layout governance: one context per render.  [live] flips to false
   when the box cap or the deadline trips; every layout loop checks it
   and stops emitting, so a render degrades to a prefix of the page in
   reading order instead of stalling.  [measuring] marks the table
   measuring pass: it places no atoms, only records their right edges
   in [extent], and it only probes the deadline, so the boxes it sizes
   are not charged twice. *)
type ctx = {
  gauge : Budget.gauge option;
  mutable live : bool;
  mutable measuring : bool;
  mutable extent : int;
  mutable out : laid list;
  run_buf : Buffer.t; (* text runs that join several text nodes *)
}

let spend_box ctx =
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
(* Inline flow                                                         *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_item : item;
  e_x : int; (* relative to flow origin *)
  e_w : int;
  e_h : int;
}

(* The open text run: none, a slice of one text node (words joined by
   the single spaces between them in the source), or joined in
   [ctx.run_buf]. *)
type run_state = No_run | Slice | Joined

type flow_state = {
  f_ctx : ctx;
  f_width : int;
  f_align : alignment;
  f_x0 : int;
  f_y0 : int;
  mutable cx : int;
  mutable line_y : int;
  mutable line : entry list; (* reversed *)
  mutable pending_space : bool;
  mutable run : run_state;
  mutable run_x : int;
  mutable run_src : string;
  mutable run_start : int;
  mutable run_stop : int;
}

let leading = 3

let no_text = Text_run ""

(* A run's width is the advance it covered: words plus single spaces. *)
let close_run fs =
  match fs.run with
  | No_run -> ()
  | Slice | Joined ->
    let item =
      if fs.f_ctx.measuring then no_text
      else
        match fs.run with
        | Slice ->
          if fs.run_start = 0 && fs.run_stop = String.length fs.run_src then
            Text_run fs.run_src
          else
            Text_run
              (String.sub fs.run_src fs.run_start (fs.run_stop - fs.run_start))
        | Joined | No_run -> Text_run (Buffer.contents fs.f_ctx.run_buf)
    in
    fs.line <-
      { e_item = item; e_x = fs.run_x; e_w = fs.cx - fs.run_x;
        e_h = Style.text_height }
      :: fs.line;
    fs.run <- No_run

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
    let ctx = fs.f_ctx in
    List.iter
      (fun e ->
         if spend_box ctx then begin
           let x1 = fs.f_x0 + shift + e.e_x in
           if ctx.measuring then ctx.extent <- Int.max ctx.extent (x1 + e.e_w)
           else begin
             let y1 = fs.f_y0 + fs.line_y + ((line_height - e.e_h) / 2) in
             ctx.out <-
               { item = e.e_item;
                 box = Geometry.make ~x1 ~y1 ~x2:(x1 + e.e_w) ~y2:(y1 + e.e_h) }
               :: ctx.out
           end
         end)
      fs.line;
    fs.line <- [];
    fs.line_y <- fs.line_y + line_height + leading);
  fs.cx <- 0;
  fs.pending_space <- false

let line_is_empty fs =
  match fs.line, fs.run with [], No_run -> true | _ -> false

let space_before fs =
  if fs.pending_space && not (line_is_empty fs) then Style.word_spacing else 0

let add_word fs src start len =
  let word_width = Style.text_width_sub src ~pos:start ~len in
  if fs.cx + space_before fs + word_width > fs.f_width && not (line_is_empty fs)
  then finish_line fs ~force:false;
  let space = space_before fs in
  (match fs.run with
   | No_run ->
     fs.run <- Slice;
     fs.run_x <- fs.cx + space;
     fs.run_src <- src;
     fs.run_start <- start;
     fs.run_stop <- start + len
   | _ when fs.f_ctx.measuring -> ()
   (* The next word of the same text node after exactly one space: the
      run stays a slice of that node. *)
   | Slice
     when space > 0 && fs.run_src == src && start = fs.run_stop + 1
          && String.unsafe_get src fs.run_stop = ' ' ->
     fs.run_stop <- start + len
   | Slice | Joined ->
     let b = fs.f_ctx.run_buf in
     (match fs.run with
      | Slice ->
        Buffer.clear b;
        Buffer.add_substring b fs.run_src fs.run_start
          (fs.run_stop - fs.run_start);
        fs.run <- Joined
      | Joined | No_run -> ());
     if space > 0 then Buffer.add_char b ' ';
     Buffer.add_substring b src start len);
  fs.cx <- fs.cx + space + word_width;
  fs.pending_space <- false

let widget_margin = 2

let add_widget fs (w : Style.widget) =
  close_run fs;
  if fs.cx + space_before fs + w.width > fs.f_width && not (line_is_empty fs)
  then finish_line fs ~force:false;
  let space = space_before fs in
  fs.line <-
    { e_item = Widget w; e_x = fs.cx + space; e_w = w.width; e_h = w.height }
    :: fs.line;
  fs.cx <- fs.cx + space + w.width + widget_margin;
  fs.pending_space <- false

(* Lay out a list of inline atoms; returns the height consumed. *)
let flow ctx atoms ~x ~y ~width ~align =
  let fs =
    { f_ctx = ctx; f_width = Int.max 40 width; f_align = align; f_x0 = x;
      f_y0 = y; cx = 0; line_y = 0; line = []; pending_space = false;
      run = No_run; run_x = 0; run_src = ""; run_start = 0; run_stop = 0 }
  in
  List.iter
    (fun atom ->
       if ctx.live then
         match atom with
         | Space -> if not (line_is_empty fs) then fs.pending_space <- true
         | Word (src, start, len) -> add_word fs src start len
         | Widget_atom w -> add_widget fs w
         | Break -> finish_line fs ~force:true)
    atoms;
  finish_line fs ~force:false;
  (* Remove the trailing leading so adjacent blocks do not drift apart. *)
  if fs.line_y > 0 then fs.line_y - leading else 0

(* ------------------------------------------------------------------ *)
(* Block layout                                                        *)
(* ------------------------------------------------------------------ *)

let rec layout_nodes ctx nodes ~x ~y ~width ~align =
  let total = ref 0 in
  List.iter
    (fun node ->
       if ctx.live then
         match node with
         | Inline atoms ->
           total := !total + flow ctx atoms ~x ~y:(y + !total) ~width ~align
         | Block b ->
           total := !total + b.margin;
           total :=
             !total
             + layout_block ctx b ~x ~y:(y + !total) ~width
                 ~align:(Option.value b.align ~default:align);
           total := !total + b.margin)
    nodes;
  !total

and layout_block ctx b ~x ~y ~width ~align =
  match b.body with
  | Table t -> layout_table ctx t ~x ~y ~align
  | Indented nodes ->
    let indent = 30 in
    layout_nodes ctx nodes ~x:(x + indent) ~y
      ~width:(Int.max 40 (width - indent)) ~align
  | Rule -> 10
  | Children nodes -> layout_nodes ctx nodes ~x ~y ~width ~align

(* ------------------------------------------------------------------ *)
(* Table layout                                                        *)
(* ------------------------------------------------------------------ *)

(* Natural width of a cell's content: the right edge of its boxes laid
   out from x = 0 at width 3000.  It depends on the cell alone, so it is
   measured once per render. *)
and natural_width ctx cell =
  if cell.natural < 0 then begin
    let measuring = ctx.measuring and extent = ctx.extent in
    ctx.measuring <- true;
    ctx.extent <- 0;
    let _h =
      layout_nodes ctx cell.content ~x:0 ~y:0 ~width:3000 ~align:`Left
    in
    cell.natural <- ctx.extent;
    ctx.measuring <- measuring;
    ctx.extent <- extent
  end;
  cell.natural

and layout_table ctx t ~x ~y ~align =
  match t.rows with
  | [] -> 0
  | _ :: _ when ctx.measuring -> begin
    (* In the measuring pass a table's boxes, relative to its x, depend
       only on the alignment it inherits: lay it out once per
       alignment. *)
    let same (a, _, _) =
      match a, align with
      | `Left, `Left | `Center, `Center | `Right, `Right -> true
      | _ -> false
    in
    match List.find_opt same t.measured with
    | Some (_, h, right) ->
      if right <> min_int then ctx.extent <- Int.max ctx.extent (x + right);
      h
    | None ->
      let extent = ctx.extent in
      ctx.extent <- min_int;
      let h = place_table ctx t ~x ~y ~align in
      let right = if ctx.extent = min_int then min_int else ctx.extent - x in
      if ctx.live then t.measured <- (align, h, right) :: t.measured;
      ctx.extent <- Int.max extent ctx.extent;
      h
  end
  | _ :: _ -> place_table ctx t ~x ~y ~align

and place_table ctx t ~x ~y ~align =
  let padding = t.padding and spacing = t.spacing and ncols = t.ncols in
  let col_widths = Array.make ncols (2 * padding) in
  (* First size single-span cells, then widen for multi-span ones. *)
  List.iter
    (fun cells ->
       let col = ref 0 in
       List.iter
         (fun cell ->
            let span = cell.span in
            if span = 1 && !col < ncols && ctx.live then
              col_widths.(!col) <-
                Int.max col_widths.(!col)
                  (natural_width ctx cell + (2 * padding));
            col := !col + span)
         cells)
    t.rows;
  List.iter
    (fun cells ->
       let col = ref 0 in
       List.iter
         (fun cell ->
            let span = cell.span in
            if span > 1 && !col + span <= ncols && ctx.live then begin
              let needed = natural_width ctx cell + (2 * padding) in
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
         cells)
    t.rows;
  (* Placement pass. *)
  let col_x = Array.make ncols 0 in
  let acc = ref (x + spacing) in
  for j = 0 to ncols - 1 do
    col_x.(j) <- !acc;
    acc := !acc + col_widths.(j) + spacing
  done;
  let y_cursor = ref (y + spacing) in
  List.iter
    (fun cells ->
       let row_height = ref Style.line_height in
       let col = ref 0 in
       List.iter
         (fun cell ->
            let span = cell.span in
            if !col < ncols && ctx.live then begin
              let cw = ref ((span - 1) * spacing) in
              for j = !col to Int.min (ncols - 1) (!col + span - 1) do
                cw := !cw + col_widths.(j)
              done;
              let content_width = Int.max 20 (!cw - (2 * padding)) in
              let h =
                layout_nodes ctx cell.content
                  ~x:(col_x.(!col) + padding)
                  ~y:(!y_cursor + padding)
                  ~width:content_width
                  ~align:(Option.value cell.cell_align ~default:align)
              in
              row_height := Int.max !row_height (h + (2 * padding))
            end;
            col := !col + span)
         cells;
       y_cursor := !y_cursor + !row_height + spacing)
    t.rows;
  !y_cursor - y

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let render ?gauge ?trace ?(width = Style.page_width) doc =
  let ctx =
    { gauge; live = true; measuring = false; extent = 0; out = [];
      run_buf = Buffer.create 64 }
  in
  let margin = 8 in
  let _height =
    layout_nodes ctx (nodes_of (Dom.children doc)) ~x:margin ~y:margin
      ~width:(width - (2 * margin)) ~align:`Left
  in
  let atoms =
    List.sort
      (fun a b -> Geometry.compare_reading_order a.box b.box)
      (List.rev ctx.out)
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
