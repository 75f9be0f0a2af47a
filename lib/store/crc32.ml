(* Slicing-by-8 (Intel's "slicing-by-N" scheme): table k maps a byte to
   its CRC contribution k bytes further down the stream, so one step
   folds eight input bytes with eight independent lookups instead of a
   chain of eight dependent ones.  The tables live in one flat array,
   table k at offset [k * 256]. *)

let poly = 0xedb88320  (* IEEE 802.3, reflected *)

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xff) lxor (prev lsr 8)
    done
  done;
  t

external get32u : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Little-endian 32-bit load, zero-extended. *)
let[@inline] load32 s i =
  let w = get32u s i in
  Int32.to_int (if Sys.big_endian then swap32 w else w) land 0xffffffff

let[@inline] at k b = Array.unsafe_get table ((k * 256) + (b land 0xff))

let digest s =
  let n = String.length s in
  let c = ref 0xffffffff in
  let i = ref 0 in
  while !i + 8 <= n do
    let one = load32 s !i lxor !c and two = load32 s (!i + 4) in
    c :=
      at 7 one lxor at 6 (one lsr 8) lxor at 5 (one lsr 16)
      lxor at 4 (one lsr 24) lxor at 3 two lxor at 2 (two lsr 8)
      lxor at 1 (two lsr 16) lxor at 0 (two lsr 24);
    i := !i + 8
  done;
  while !i < n do
    c := at 0 (!c lxor Char.code (String.unsafe_get s !i)) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xffffffff
