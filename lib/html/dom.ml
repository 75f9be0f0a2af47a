type t =
  | Element of string * (string * string) list * t list
  | Text of string
  | Comment of string

let element ?(attrs = []) name children = Element (name, attrs, children)

let text s = Text s

let name = function
  | Element (n, _, _) -> n
  | Text _ | Comment _ -> ""

(* Attribute lists are short and looked up by the layout, style and
   token layers for every element: a typed scan, not the polymorphic
   [List.assoc_opt]. *)
let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let rec mem_assoc key = function
  | [] -> false
  | (k, _) :: rest -> String.equal k key || mem_assoc key rest

let rec assoc_default key ~default = function
  | [] -> default
  | (k, v) :: rest ->
    if String.equal k key then v else assoc_default key ~default rest

let attr key = function
  | Element (_, attrs, _) -> assoc key attrs
  | Text _ | Comment _ -> None

let attr_default key ~default = function
  | Element (_, attrs, _) -> assoc_default key ~default attrs
  | Text _ | Comment _ -> default

let has_attr key = function
  | Element (_, attrs, _) -> mem_assoc key attrs
  | Text _ | Comment _ -> false

let children = function
  | Element (_, _, cs) -> cs
  | Text _ | Comment _ -> []

let is_element ?named node =
  match node, named with
  | Element _, None -> true
  | Element (n, _, _), Some wanted -> String.equal n wanted
  | (Text _ | Comment _), _ -> false

let text_content = function
  (* A text node or an element holding one text run: no copy. *)
  | Text s | Element (_, _, [ Text s ]) -> s
  | Comment _ | Element (_, _, []) -> ""
  | node ->
    let b = Buffer.create 64 in
    let rec go = function
      | Text s -> Buffer.add_string b s
      | Comment _ -> ()
      | Element (_, _, cs) -> List.iter go cs
    in
    go node;
    Buffer.contents b

let fold f acc node =
  let rec go acc node =
    let acc = f acc node in
    List.fold_left go acc (children node)
  in
  go acc node

let find_all pred node =
  List.rev
    (fold (fun acc n -> if pred n then n :: acc else acc) [] node)

let find_first pred node =
  let exception Found of t in
  try
    fold (fun () n -> if pred n then raise (Found n)) () node;
    None
  with Found n -> Some n

let rec pp ppf = function
  | Text s -> Fmt.pf ppf "%S" s
  | Comment s -> Fmt.pf ppf "<!--%s-->" s
  | Element (n, attrs, cs) ->
    Fmt.pf ppf "@[<v 2>(%s%a%a)@]" n
      Fmt.(list ~sep:nop (fun ppf (k, v) -> pf ppf " %s=%S" k v))
      attrs
      Fmt.(list ~sep:nop (fun ppf c -> pf ppf "@,%a" pp c))
      cs
