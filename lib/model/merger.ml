type parse = {
  conditions : (Condition.t * int list) list;
  cover : int list;
}

module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)
module String_set = Set.Make (String)

(* Conditions that agree on normalized attribute, distinct normalized
   operators and domain shape are one condition.  The key is one string:
   the domain shape (no user text, no '|'), then the attribute and each
   operator length-prefixed, so distinct triples never share a key. *)
let condition_key (c : Condition.t) =
  let b = Buffer.create 32 in
  let rec domain = function
    | Condition.Text -> Buffer.add_char b 't'
    | Condition.Datetime -> Buffer.add_char b 'd'
    | Condition.Range d ->
      Buffer.add_string b "r(";
      domain d;
      Buffer.add_char b ')'
    | Condition.Enumeration vs ->
      Buffer.add_char b 'e';
      Buffer.add_string b (Int.to_string (List.length vs))
  in
  let field s =
    Buffer.add_string b (Int.to_string (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  domain c.domain;
  Buffer.add_char b '|';
  field (Condition.normalize_label c.attribute);
  List.iter field
    (List.sort_uniq String.compare
       (List.map Condition.normalize_label c.operators));
  Buffer.contents b

let merge ~tokens ~id ~describe ?(ignorable = fun _ -> false) parses =
  (* Union of conditions, deduplicated; remember the first condition that
     claims each token so conflicts can be detected.  A condition's
     printed label is needed only when two conditions meet on a token. *)
  let seen = ref String_set.empty in
  let conditions = ref [] in
  let claims = ref Int_map.empty in
  let errors = ref [] in
  List.iter
    (fun parse ->
       List.iter
         (fun (cond, toks) ->
            let key = condition_key cond in
            if not (String_set.mem key !seen) then begin
              seen := String_set.add key !seen;
              conditions := cond :: !conditions;
              let label = lazy (Condition.to_string cond) in
              List.iter
                (fun tok ->
                   match Int_map.find_opt tok !claims with
                   | Some other ->
                     let other = Lazy.force other and label = Lazy.force label in
                     if not (String.equal other label) then
                       errors :=
                         Semantic_model.Conflict (tok, other, label) :: !errors
                   | None -> claims := Int_map.add tok label !claims)
                toks
            end)
         parse.conditions)
    parses;
  let covered =
    List.fold_left
      (fun acc parse ->
         List.fold_left (fun acc t -> Int_set.add t acc) acc parse.cover)
      Int_set.empty parses
  in
  List.iter
    (fun t ->
       let tok = id t in
       if (not (Int_set.mem tok covered)) && not (ignorable t) then
         errors := Semantic_model.Missing (tok, describe t) :: !errors)
    tokens;
  { Semantic_model.conditions = List.rev !conditions;
    errors = List.rev !errors }
