type kind =
  | Text
  | Textbox
  | Selection
  | Radio
  | Checkbox
  | Button
  | Image

type t = {
  id : int;
  kind : kind;
  box : Wqi_layout.Geometry.box;
  sval : string;
  name : string;
  options : string list;
  value : string;
  checked : bool;
  multiple : bool;
}

let kind_name = function
  | Text -> "text"
  | Textbox -> "textbox"
  | Selection -> "selection"
  | Radio -> "radio"
  | Checkbox -> "checkbox"
  | Button -> "button"
  | Image -> "image"

let pp ppf t =
  Fmt.pf ppf "#%d %s %a %S" t.id (kind_name t.kind) Wqi_layout.Geometry.pp
    t.box t.sval

let is_field t =
  match t.kind with
  | Textbox | Selection | Radio | Checkbox -> true
  | Text | Button | Image -> false

(* What [%S] prints: the OCaml literal syntax of [s]. *)
let quoted s = "\"" ^ String.escaped s ^ "\""

let describe t =
  match t.kind with
  | Text -> "text " ^ quoted t.sval
  | Selection -> "selection list " ^ quoted t.name
  | kind ->
    if t.sval <> "" then kind_name kind ^ " " ^ quoted t.sval
    else if t.name <> "" then kind_name kind ^ " " ^ quoted t.name
    else kind_name kind
