(* Two representations behind one immutable interface: universes that
   fit in a single OCaml int (<= 63 tokens on 64-bit, which covers every
   interface in the paper's corpus) avoid the words array entirely, so
   the parser's innermost operations — [disjoint], [union], [subset] —
   are register arithmetic with no loads beyond the header. *)

type t =
  | Small of { size : int; bits : int }
  | Big of { size : int; words : int array }

let bits_per_word = Sys.int_size

let words_for n = (n + bits_per_word - 1) / bits_per_word

let universe_size = function Small { size; _ } | Big { size; _ } -> size

let empty n =
  if n <= bits_per_word then Small { size = n; bits = 0 }
  else Big { size = n; words = Array.make (words_for n) 0 }

let of_word n bits =
  if n > bits_per_word then
    invalid_arg "Bitset.of_word: universe exceeds one word";
  Small { size = n; bits }

let to_word = function
  | Small { bits; _ } -> bits
  | Big _ -> invalid_arg "Bitset.to_word: universe exceeds one word"

let check size i =
  if i < 0 || i >= size then
    invalid_arg (Printf.sprintf "Bitset: index %d outside universe %d" i size)

let add t i =
  match t with
  | Small { size; bits } ->
    check size i;
    Small { size; bits = bits lor (1 lsl i) }
  | Big { size; words } ->
    check size i;
    let words = Array.copy words in
    let w = i / bits_per_word and b = i mod bits_per_word in
    words.(w) <- words.(w) lor (1 lsl b);
    Big { size; words }

let singleton n i = add (empty n) i

let mem t i =
  match t with
  | Small { size; bits } ->
    check size i;
    bits land (1 lsl i) <> 0
  | Big { size; words } ->
    check size i;
    let w = i / bits_per_word and b = i mod bits_per_word in
    words.(w) land (1 lsl b) <> 0

let mismatch () = invalid_arg "Bitset: universe mismatch"

let union a b =
  match (a, b) with
  | Small a, Small b ->
    if a.size <> b.size then mismatch ();
    Small { size = a.size; bits = a.bits lor b.bits }
  | Big a, Big b ->
    if a.size <> b.size then mismatch ();
    Big { size = a.size; words = Array.map2 ( lor ) a.words b.words }
  | _ -> mismatch ()

let inter a b =
  match (a, b) with
  | Small a, Small b ->
    if a.size <> b.size then mismatch ();
    Small { size = a.size; bits = a.bits land b.bits }
  | Big a, Big b ->
    if a.size <> b.size then mismatch ();
    Big { size = a.size; words = Array.map2 ( land ) a.words b.words }
  | _ -> mismatch ()

(* SWAR popcount.  The 64-bit constants exceed [max_int] on a 63-bit
   native int, so each mask is assembled from 32-bit halves; the wrap of
   the top bit is harmless because all steps are bit-pattern arithmetic
   and the final byte-sum (at most 63) fits the 7 bits left above the
   multiply. *)
let m1 = 0x55555555 lor (0x55555555 lsl 32)
let m2 = 0x33333333 lor (0x33333333 lsl 32)
let m4 = 0x0f0f0f0f lor (0x0f0f0f0f lsl 32)
let h01 = 0x01010101 lor (0x01010101 lsl 32)

let popcount x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * h01) lsr 56

let cardinal = function
  | Small { bits; _ } -> popcount bits
  | Big { words; _ } ->
    let acc = ref 0 in
    for i = 0 to Array.length words - 1 do
      acc := !acc + popcount (Array.unsafe_get words i)
    done;
    !acc

let is_empty = function
  | Small { bits; _ } -> bits = 0
  | Big { words; _ } -> Array.for_all (fun w -> w = 0) words

let disjoint a b =
  match (a, b) with
  | Small a, Small b ->
    if a.size <> b.size then mismatch ();
    a.bits land b.bits = 0
  | Big a, Big b ->
    if a.size <> b.size then mismatch ();
    let wa = a.words and wb = b.words in
    let n = Array.length wa in
    let rec go i =
      i >= n
      || (Array.unsafe_get wa i land Array.unsafe_get wb i = 0 && go (i + 1))
    in
    go 0
  | _ -> mismatch ()

let subset a b =
  match (a, b) with
  | Small a, Small b ->
    if a.size <> b.size then mismatch ();
    a.bits land lnot b.bits = 0
  | Big a, Big b ->
    if a.size <> b.size then mismatch ();
    let wa = a.words and wb = b.words in
    let n = Array.length wa in
    let rec go i =
      i >= n
      || (Array.unsafe_get wa i land lnot (Array.unsafe_get wb i) = 0
          && go (i + 1))
    in
    go 0
  | _ -> mismatch ()

let equal a b =
  match (a, b) with
  | Small a, Small b -> a.size = b.size && a.bits = b.bits
  | Big a, Big b ->
    a.size = b.size
    &&
    let wa = a.words and wb = b.words in
    let n = Array.length wa in
    let rec go i =
      i >= n
      || (Int.equal (Array.unsafe_get wa i) (Array.unsafe_get wb i)
          && go (i + 1))
    in
    go 0
  | _ -> false

let strict_subset a b = subset a b && not (equal a b)

let elements t =
  let acc = ref [] in
  (match t with
   | Small { size; bits } ->
     for i = size - 1 downto 0 do
       if bits land (1 lsl i) <> 0 then acc := i :: !acc
     done
   | Big { size; words } ->
     for i = size - 1 downto 0 do
       let w = i / bits_per_word and b = i mod bits_per_word in
       if words.(w) land (1 lsl b) <> 0 then acc := i :: !acc
     done);
  !acc

(* Members of one word from bit 0 up, skipping past the highest set
   bit: [lsr] is logical, so the loop ends once the word is spent. *)
let iter_word f base w =
  let w = ref w and i = ref base in
  while !w <> 0 do
    if !w land 1 <> 0 then f !i;
    w := !w lsr 1;
    incr i
  done

let iter f = function
  | Small { bits; _ } -> iter_word f 0 bits
  | Big { words; _ } ->
    Array.iteri
      (fun k w -> if w <> 0 then iter_word f (k * bits_per_word) w)
      words

let of_list n items = List.fold_left add (empty n) items

let union_all n = List.fold_left union (empty n)

let copy = function
  | Small _ as t -> t
  | Big { size; words } -> Big { size; words = Array.copy words }

let union_into ~into x =
  match (into, x) with
  | Small a, Small b ->
    if a.size <> b.size then mismatch ();
    Small { size = a.size; bits = a.bits lor b.bits }
  | Big a, Big b ->
    if a.size <> b.size then mismatch ();
    let wa = a.words and wb = b.words in
    for i = 0 to Array.length wa - 1 do
      Array.unsafe_set wa i (Array.unsafe_get wa i lor Array.unsafe_get wb i)
    done;
    into
  | _ -> mismatch ()

let hash = function
  | Small { bits; _ } -> Hashtbl.hash bits
  | Big { words; _ } -> Hashtbl.hash words

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") int) (elements t)
