module Dom = Wqi_html.Dom

let char_width = 7
let line_height = 18
let text_height = 15
let word_spacing = char_width
let page_width = 800

(* Count character cells: a UTF-8 lead byte or an ASCII byte opens a cell,
   continuation bytes (0b10xxxxxx) do not. *)
let utf8_cells s ~pos ~len =
  let cells = ref 0 in
  for i = pos to pos + len - 1 do
    if Char.code (String.unsafe_get s i) land 0xC0 <> 0x80 then incr cells
  done;
  !cells

let text_width_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Style.text_width_sub";
  char_width * utf8_cells s ~pos ~len
let text_width s = text_width_sub s ~pos:0 ~len:(String.length s)

(* [int_of_string (String.trim v)] clamped at 0, or [default]: plain
   decimal values, nearly all of them, are read in place. *)
let int_value v ~default =
  let n = String.length v in
  let rec digits i acc =
    if i = n then acc
    else
      let c = String.unsafe_get v i in
      if c >= '0' && c <= '9' then
        digits (i + 1) ((acc * 10) + Char.code c - Char.code '0')
      else -1
  in
  let plain = if n > 0 && n <= 9 then digits 0 0 else -1 in
  if plain >= 0 then plain
  else
    try Int.max 0 (int_of_string (String.trim v)) with Failure _ -> default

let int_attr key ~default node =
  match Dom.attr key node with
  | Some v -> int_value v ~default
  | None -> default

let lowercase v =
  if String.exists (fun c -> c >= 'A' && c <= 'Z') v then
    String.lowercase_ascii v
  else v

type widget_kind = Textbox | Selection | Radio | Checkbox | Button | Image

type widget = {
  node : Dom.t;
  kind : widget_kind;
  label : string;
  name : string;
  value : string;
  checked : bool;
  multiple : bool;
  options : string list;
  width : int;
  height : int;
}

let make node kind label options width height =
  { node; kind; label; options; width; height;
    name = Dom.attr_default "name" ~default:"" node;
    value = Dom.attr_default "value" ~default:"" node;
    checked = Dom.has_attr "checked" node;
    multiple = Dom.has_attr "multiple" node }

(* Trimmed text of every [option] under [node], in document order. *)
let option_labels node =
  let rec go acc = function
    | Dom.Element (name, _, children) as n ->
      let acc =
        if String.equal name "option" then
          String.trim (Dom.text_content n) :: acc
        else acc
      in
      List.fold_left go acc children
    | Dom.Text _ | Dom.Comment _ -> acc
  in
  List.rev (go [] node)

let text_box node =
  let size = int_attr "size" ~default:20 node in
  Some (make node Textbox "" [] (((char_width + 1) * size) + 6) 22)

let input node =
  match lowercase (Dom.attr_default "type" ~default:"text" node) with
  | "hidden" -> None
  | "radio" -> Some (make node Radio "" [] 13 13)
  | "checkbox" -> Some (make node Checkbox "" [] 13 13)
  | "submit" | "reset" | "button" ->
    let label = Dom.attr_default "value" ~default:"Submit" node in
    Some (make node Button label [] (text_width label + 24) 24)
  | "image" ->
    Some
      (make node Button
         (Dom.attr_default "alt" ~default:"" node)
         []
         (int_attr "width" ~default:60 node)
         (int_attr "height" ~default:24 node))
  | "file" -> Some (make node Textbox "" [] 220 24)
  | _ ->
    (* Text, password and search boxes, and unknown input types, which
       render like text boxes. *)
    text_box node

let select node =
  (* Width follows the longest option label; height follows the [size]
     attribute (a drop-down when size <= 1, a list box otherwise). *)
  let labels = option_labels node in
  let longest =
    List.fold_left
      (fun acc label -> Int.max acc (text_width label))
      (4 * char_width) labels
  in
  let rows = int_attr "size" ~default:1 node in
  let h = if rows <= 1 then 22 else 4 + (line_height * rows) in
  make node Selection ""
    (List.filter (fun label -> label <> "") labels)
    (longest + 24) h

let widget node =
  match Dom.name node with
  | "input" -> input node
  | "select" -> Some (select node)
  | "textarea" ->
    let cols = int_attr "cols" ~default:20 node in
    let rows = int_attr "rows" ~default:2 node in
    Some
      (make node Textbox "" [] ((char_width * cols) + 6)
         ((line_height * rows) + 6))
  | "button" ->
    let label = String.trim (Dom.text_content node) in
    let shown = if label = "" then "Submit" else label in
    Some (make node Button label [] (text_width shown + 24) 24)
  | "img" ->
    Some
      (make node Image
         (Dom.attr_default "alt" ~default:"" node)
         []
         (int_attr "width" ~default:50 node)
         (int_attr "height" ~default:50 node))
  | _ -> None
