module Dom = Wqi_html.Dom

let widget_sketch node width =
  let clip s =
    if String.length s > width then String.sub s 0 width else s
  in
  let fill left body right =
    let inner = max 0 (width - String.length left - String.length right) in
    let body =
      if String.length body >= inner then String.sub body 0 inner
      else body ^ String.make (inner - String.length body) '.'
    in
    clip (left ^ body ^ right)
  in
  match Dom.name node with
  | "input" ->
    (match String.lowercase_ascii (Dom.attr_default "type" ~default:"text" node) with
     | "radio" -> "(_)"
     | "checkbox" -> "[_]"
     | "submit" | "reset" | "button" | "image" ->
       fill "<" (Dom.attr_default "value" ~default:"" node) ">"
     | _ -> fill "[" "" "]")
  | "select" ->
    let first =
      match Dom.find_first (Dom.is_element ~named:"option") node with
      | Some opt -> String.trim (Dom.text_content opt)
      | None -> ""
    in
    fill "[v " first "]"
  | "textarea" -> fill "[" "" "]"
  | "button" -> fill "<" (String.trim (Dom.text_content node)) ">"
  | "img" -> fill "#" (Dom.attr_default "alt" ~default:"" node) "#"
  | _ -> clip "?"

let ascii ?(columns = 100) items =
  if items = [] then ""
  else begin
    let bottom =
      List.fold_left
        (fun acc { Engine.box; _ } -> max acc box.Geometry.y2)
        0 items
    in
    let rows = 1 + (bottom / Style.line_height) in
    let grid = Array.init rows (fun _ -> Bytes.make columns ' ') in
    let draw row col s =
      if row >= 0 && row < rows then
        String.iteri
          (fun i c ->
             let col = col + i in
             if col >= 0 && col < columns then Bytes.set grid.(row) col c)
          s
    in
    List.iter
      (fun { Engine.item; box } ->
         let row = Geometry.center_y box / Style.line_height in
         let col = box.Geometry.x1 / Style.char_width in
         let cell_width =
           max 1 ((Geometry.width box + Style.char_width - 1) / Style.char_width)
         in
         match item with
         | Engine.Text_run s -> draw row col s
         | Engine.Widget w ->
           draw row col (widget_sketch w.Style.node cell_width))
      items;
    let b = Buffer.create (rows * (columns + 1)) in
    Array.iter
      (fun line ->
         let s = Bytes.to_string line in
         (* Trim trailing spaces per line. *)
         let n = ref (String.length s) in
         while !n > 0 && s.[!n - 1] = ' ' do decr n done;
         Buffer.add_string b (String.sub s 0 !n);
         Buffer.add_char b '\n')
      grid;
    Buffer.contents b
  end

let ascii_of_html ?width ?columns html =
  ascii ?columns (Engine.render ?width (Wqi_html.Parser.parse html))
