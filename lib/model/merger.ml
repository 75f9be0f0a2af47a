type parse = {
  conditions : (Condition.t * int list) list;
  cover : int list;
}

module String_tbl = Hashtbl.Make (String)

(* Conditions that agree on normalized attribute, distinct normalized
   operators and domain shape are one condition.  The key is one string:
   the domain shape (no user text, no '|'), then the attribute and each
   operator length-prefixed, so distinct triples never share a key.  It
   is sized first and written once: labels are normalized straight into
   it, and only a condition with two or more operators normalizes them
   into strings of their own, to sort them. *)
let rec domain_length = function
  | Condition.Text | Condition.Datetime -> 1
  | Condition.Range d -> 3 + domain_length d
  | Condition.Enumeration vs -> 1 + digits (List.length vs)

and digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* The decimal digits of [n >= 0], last digit at [i] and back. *)
let rec write_digits b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then write_digits b (i - 1) (n / 10)

let write_int b off n =
  let d = digits n in
  write_digits b (off + d - 1) n;
  off + d

let rec write_domain b off = function
  | Condition.Text -> Bytes.unsafe_set b off 't'; off + 1
  | Condition.Datetime -> Bytes.unsafe_set b off 'd'; off + 1
  | Condition.Range d ->
    Bytes.unsafe_set b off 'r';
    Bytes.unsafe_set b (off + 1) '(';
    let off = write_domain b (off + 2) d in
    Bytes.unsafe_set b off ')';
    off + 1
  | Condition.Enumeration vs ->
    Bytes.unsafe_set b off 'e';
    write_int b (off + 1) (List.length vs)

let field_length s =
  let n = Condition.normalized_length s in
  digits n + 1 + n

let write_field b off s =
  let off = write_int b off (Condition.normalized_length s) in
  Bytes.unsafe_set b off ':';
  Condition.blit_normalized s b (off + 1)

let rec fields_length acc = function
  | [] -> acc
  | s :: rest -> fields_length (acc + field_length s) rest

let rec write_fields b off = function
  | [] -> off
  | s :: rest -> write_fields b (write_field b off s) rest

let condition_key (c : Condition.t) =
  let ops =
    match c.operators with
    | ([] | [ _ ]) as ops -> ops
    | ops ->
      (* normalized labels normalize to themselves *)
      List.sort_uniq String.compare (List.map Condition.normalize_label ops)
  in
  let b =
    Bytes.create
      (domain_length c.domain + 1 + field_length c.attribute
       + fields_length 0 ops)
  in
  let off = write_domain b 0 c.domain in
  Bytes.unsafe_set b off '|';
  let off = write_field b (off + 1) c.attribute in
  ignore (write_fields b off ops : int);
  Bytes.unsafe_to_string b

(* One past the largest token id the merge can meet. *)
let rec max_id acc = function
  | [] -> acc
  | t :: rest -> max_id (Int.max acc t) rest

let rec claims_max acc = function
  | [] -> acc
  | (_, toks) :: rest -> claims_max (max_id acc toks) rest

let rec parses_max acc = function
  | [] -> acc
  | (p : parse) :: rest ->
    parses_max (claims_max (max_id acc p.cover) p.conditions) rest

let rec tokens_max id acc = function
  | [] -> acc
  | t :: rest -> tokens_max id (Int.max acc (id t)) rest

(* The claim of a token no condition has claimed: compared physically,
   so it is a block of its own that no label's lazy can be. *)
let unclaimed : string Lazy.t = lazy (String.make 0 ' ')

(* Token ids index the per-call claim and cover arrays, so they must be
   non-negative (they are a universe's token positions). *)
let merge ~tokens ~id ~describe ?(ignorable = fun _ -> false) parses =
  let n = 1 + parses_max (tokens_max id (-1) tokens) parses in
  (* Union of conditions, deduplicated; remember the first condition that
     claims each token so conflicts can be detected.  A condition's
     printed label is needed only when two conditions meet on a token. *)
  let seen = String_tbl.create 16 in
  let conditions = ref [] in
  let claims = Array.make n unclaimed in
  let errors = ref [] in
  List.iter
    (fun parse ->
       List.iter
         (fun (cond, toks) ->
            let key = condition_key cond in
            if not (String_tbl.mem seen key) then begin
              String_tbl.replace seen key ();
              conditions := cond :: !conditions;
              let label = lazy (Condition.to_string cond) in
              List.iter
                (fun tok ->
                   let other = claims.(tok) in
                   if other == unclaimed then claims.(tok) <- label
                   else begin
                     let other = Lazy.force other and label = Lazy.force label in
                     if not (String.equal other label) then
                       errors :=
                         Semantic_model.Conflict (tok, other, label) :: !errors
                   end)
                toks
            end)
         parse.conditions)
    parses;
  let covered = Bytes.make n '\000' in
  List.iter
    (fun parse -> List.iter (fun t -> Bytes.set covered t '\001') parse.cover)
    parses;
  List.iter
    (fun t ->
       let tok = id t in
       if Bytes.get covered tok = '\000' && not (ignorable t) then
         errors := Semantic_model.Missing (tok, describe t) :: !errors)
    tokens;
  { Semantic_model.conditions = List.rev !conditions;
    errors = List.rev !errors }
