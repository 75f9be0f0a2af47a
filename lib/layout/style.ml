module Dom = Wqi_html.Dom

let char_width = 7
let line_height = 18
let text_height = 15
let word_spacing = char_width
let page_width = 800

(* Count character cells: a UTF-8 lead byte or an ASCII byte opens a cell,
   continuation bytes (0b10xxxxxx) do not. *)
let utf8_cells s =
  let cells = ref 0 in
  for i = 0 to String.length s - 1 do
    if Char.code (String.unsafe_get s i) land 0xC0 <> 0x80 then incr cells
  done;
  !cells

let text_width s = char_width * utf8_cells s

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
