(* The one-line JSON reader's number decoding (lib/json): a number token
   must decode exactly as [int_of_string_opt], else [float_of_string_opt],
   decodes it, to the bit, whichever path reads it in place. *)

module Json = Wqi_json.Json
module Q = QCheck

type decoded = Int of int | Num of int64 | Bad

(* What the reader's contract says a token decodes to. *)
let reference t =
  match int_of_string_opt t with
  | Some v -> Int v
  | None ->
    (match float_of_string_opt t with
     | Some x when Float.is_finite x -> Num (Int64.bits_of_float x)
     | Some _ | None -> Bad)

(* The token as the value of a one-member object, and [float_value]'s
   reading of it beside the kind. *)
let read t =
  let line = "{\"n\":" ^ t ^ "}" in
  let got = ref (Bad, 0L) in
  let member () (r : Json.reader) _ =
    let v =
      match r.Json.kind with
      | Json.Int -> Int r.Json.int
      | Json.Num -> Num (Int64.bits_of_float r.Json.num)
      | Json.Str -> Bad
    in
    got := (v, Int64.bits_of_float (Json.float_value r))
  in
  match Json.read_object [| "n" |] member () line 0 (String.length line) with
  | () -> !got
  | exception Json.Malformed -> (Bad, 0L)

let agrees t =
  let v, as_float = read t in
  v = reference t
  &&
  match v, float_of_string_opt t with
  | (Int _ | Num _), Some x -> as_float = Int64.bits_of_float x
  | _ -> true

let digits_gen lo hi =
  Q.Gen.(string_size ~gen:(char_range '0' '9') (int_range lo hi))

(* [sig] significant digits (the first not 0) with a '.' somewhere in
   them or before them, after some leading zeros. *)
let significant_gen sig_digits =
  let open Q.Gen in
  let* first = char_range '1' '9' and* rest = digits_gen (sig_digits - 1) (sig_digits - 1) in
  let s = String.make 1 first ^ rest in
  let* zeros = int_range 0 6 and* dot = int_range 1 sig_digits in
  if zeros > 0 then return ("0." ^ String.make (zeros - 1) '0' ^ s)
  else return (String.sub s 0 dot ^ "." ^ String.sub s dot (sig_digits - dot))

(* [k] fraction digits after "0.", most of them leading zeros. *)
let fraction_gen k =
  let open Q.Gen in
  let* tail = digits_gen 1 (min k 8) in
  return ("0." ^ String.make (k - String.length tail) '0' ^ tail)

(* 2^53 - 1, 2^53 and 2^53 + 1 with a '.' inserted, or with digits
   appended after one. *)
let two53_gen =
  let open Q.Gen in
  let* w = oneofl [ "9007199254740991"; "9007199254740992"; "9007199254740993" ] in
  let* dot = int_range 1 15 and* extra = oneofl [ ""; "0"; "00" ] in
  return (String.sub w 0 dot ^ "." ^ String.sub w dot (16 - dot) ^ extra)

let edge_gen =
  Q.Gen.oneofl
    [ "-0.0"; "5."; ".5"; "+1.5"; "-.5"; "1.2.3"; "-0"; "+0"; "0"; "-1.5";
      "1e999"; "-1e999"; "1e5"; "1.5e-3"; "2E+2"; "1e"; "e1"; "."; "-"; "+";
      "0.1"; "0.0"; "00.5"; "0.30000000000000004"; "123456789012345678";
      "1234567890123456789"; "4611686018427387904"; "99999999999999999999";
      "1.7976931348623157e308"; "4.9e-324"; "0.0000000000000000000001";
      "0.00000000000000000000001"; "9007199254740993.0" ]

let random_gen =
  Q.Gen.(string_size ~gen:(oneofl (List.of_seq (String.to_seq "0123456789+-.eE"))) (int_range 1 25))

let token_gen =
  let open Q.Gen in
  frequency
    [ (4,
       let* a = digits_gen 1 20 and* b = digits_gen 1 20 in
       return (a ^ "." ^ b));
      (3, int_range 15 17 >>= significant_gen);
      (2, oneofl [ 22; 23 ] >>= fraction_gen);
      (1, two53_gen);
      (2, edge_gen);
      (1, digits_gen 1 22);
      (1,
       let* a = digits_gen 1 6 and* b = digits_gen 1 6
       and* e = oneofl [ "e"; "E"; "e-"; "e+" ] and* x = digits_gen 1 3 in
       return (a ^ "." ^ b ^ e ^ x));
      (2, random_gen) ]

let prop_numbers =
  Q.Test.make ~name:"number = int_of_string_opt, else float_of_string_opt (bits)"
    ~count:20_000
    (Q.make ~print:(fun t -> t) token_gen)
    agrees

(* The named edges, each on its own. *)
let test_number_edges () =
  List.iter
    (fun t -> Alcotest.(check bool) t true (agrees t))
    [ "-0.0"; "5."; ".5"; "+1.5"; "-.5"; "1.2.3"; "1e999"; "-1e999";
      "9007199254740992.5"; "900719925474099.3"; "900719925474099.2";
      "0.0000000000000000000001"; "0.00000000000000000000001";
      "0.0000000000000000000003"; "0.00000000000000000000003";
      "12345678901234567.8"; "0.842068965517"; "1" ]

let suite =
  [ QCheck_alcotest.to_alcotest prop_numbers;
    ("number edges", `Quick, test_number_edges) ]
