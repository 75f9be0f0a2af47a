type t = {
  hash : int64;
  len : int;
  spec : string;
}

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* The loops below keep the FNV state in a local [ref] that never
   escapes, over [String.unsafe_get] in plain [for]/[while] loops:
   ocamlopt then holds the [int64] unboxed in a register, so hashing
   allocates nothing per byte. *)
let[@inline] step h c =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) fnv_prime

let fold h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := step !h (String.unsafe_get s i)
  done;
  !h

let fingerprint s = fold fnv_offset s

let is_space = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

let normalize html =
  let n = String.length html in
  let lo = ref 0 in
  while !lo < n && is_space html.[!lo] do incr lo done;
  let hi = ref (n - 1) in
  while !hi >= !lo && is_space html.[!hi] do decr hi done;
  if !lo > !hi then ""
  else begin
    let b = Buffer.create (!hi - !lo + 1) in
    let i = ref !lo in
    while !i <= !hi do
      (match html.[!i] with
       | '\r' ->
         Buffer.add_char b '\n';
         if !i + 1 <= !hi && html.[!i + 1] = '\n' then incr i
       | c -> Buffer.add_char b c);
      incr i
    done;
    Buffer.contents b
  end

(* [normalize] and [fold] fused into one pass: the bytes [normalize]
   would emit are hashed as they are found, and never copied.  The trim
   is repeated here rather than shared, since a helper returning both
   bounds would allocate a tuple per call.  The spec goes first in the
   same hash stream, separated by a byte that cannot occur in either
   part's role, so ("ab","c") and ("a","bc") fingerprint differently. *)
let make ~html ~spec =
  let h = ref fnv_offset in
  for i = 0 to String.length spec - 1 do
    h := step !h (String.unsafe_get spec i)
  done;
  h := step !h '\000';
  let lo = ref 0 and hi = ref (String.length html - 1) in
  while !lo <= !hi && is_space (String.unsafe_get html !lo) do incr lo done;
  while !hi >= !lo && is_space (String.unsafe_get html !hi) do decr hi done;
  let hi = !hi in
  let len = ref 0 in
  let i = ref !lo in
  while !i <= hi do
    (match String.unsafe_get html !i with
     | '\r' ->
       h := step !h '\n';
       if !i < hi && String.unsafe_get html (!i + 1) = '\n' then incr i
     | c -> h := step !h c);
    incr len;
    incr i
  done;
  { hash = !h; len = !len; spec }

let spec ~grammar_name ~grammar_version ~name budget =
  Printf.sprintf "v%d|grammar=%s@%s|name=%s|budget=%s"
    Wqi_model.Export.extraction_version grammar_name grammar_version name
    (Wqi_model.Export.budget budget)

let equal a b =
  Int64.equal a.hash b.hash && a.len = b.len && String.equal a.spec b.spec

let compare a b =
  match Int64.compare a.hash b.hash with
  | 0 -> (match Int.compare a.len b.len with
      | 0 -> String.compare a.spec b.spec
      | c -> c)
  | c -> c

module Tbl = Hashtbl.Make (struct
    type nonrec t = t
    let equal = equal
    let hash k = Int64.to_int k.hash land max_int
  end)

let to_hex h = Printf.sprintf "%016Lx" h

let of_hex s =
  if String.length s <> 16 then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some v -> Some v
    | None -> None
