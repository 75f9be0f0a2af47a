(** Flow and table layout: assigns a bounding box to every visible atom.

    This is the stand-in for the browser layout engine the paper relied on
    (the HTML DOM API of Internet Explorer).  It implements the subset of
    CSS2 visual formatting that query forms exercise:

    - block stacking for [div], [p], [form], [h1]..[h6], [ul]/[li],
      [fieldset], [center], ...;
    - inline flow with whitespace collapsing, word wrapping at the page
      width, and [<br>] line breaks; entries on a line are vertically
      centered within the line box;
    - table layout with column sizing from cell content, [colspan],
      [cellpadding]/[cellspacing]; [rowspan] is treated as 1 (query forms
      in the corpus never rely on it);
    - intrinsic widget sizes from {!Style}.

    A render first reduces the DOM, in one pass, to the inline atoms,
    blocks and tables layout reads; a table cell's natural width is then
    measured once per render, so nested tables lay out in time linear
    in the document.

    Invisible content ([<input type="hidden">], [head], [script],
    [style], option lists inside [select]) produces no atoms. *)

type item =
  | Text_run of string
      (** A maximal run of inline text on a single line, whitespace
          collapsed and never empty: its words joined by single spaces,
          with no space at either end.  Runs break at widgets, line
          breaks and block boundaries — exactly the granularity of the
          paper's [text] terminals (Figure 5). *)
  | Widget of Style.widget
      (** A form widget or image, classified once at layout: the
          tokenizer reads its kind, label, attributes and option list
          from here. *)

type laid = { item : item; box : Geometry.box }

val render :
  ?gauge:Wqi_budget.Budget.gauge ->
  ?trace:Wqi_obs.Trace.t ->
  ?width:int ->
  Wqi_html.Dom.t ->
  laid list
(** [render doc] lays out the document and returns its visible atoms in
    reading order (top-to-bottom, left-to-right).  [width] defaults to
    {!Style.page_width}.

    [gauge] charges one budget unit per emitted atom; when the box cap
    or the deadline trips, layout stops and the atoms already placed — a
    prefix of the page in layout order — are returned.

    [trace] records a [layout.atoms] instant with the atom count and
    page width; tracing never changes the layout. *)

val is_block : string -> bool
(** Element names laid out as blocks ([div], [p], [table], [form],
    [h1]..[h6], [li], ...); every other element flows inline. *)

val is_skipped : string -> bool
(** Element names whose subtree produces no atoms ([head], [script],
    [style], [title]). *)
