(* The persistent extraction store (lib/store): keys must stay
   byte-compatible with the serve cache's, a reopened store must see
   exactly what was put (including after a torn manifest tail or a
   corrupted value — as misses, never wrong answers), concurrent Pool
   writers must not lose entries, and a stored value must be
   byte-identical to a fresh extraction. *)

module Store = Wqi_store.Store
module Key = Wqi_store.Key
module Crc32 = Wqi_store.Crc32
module Signature = Wqi_store.Signature
module Cache = Wqi_serve.Cache
module Extractor = Wqi_core.Extractor
module Generator = Wqi_corpus.Generator
module Pool = Wqi_parallel.Pool
module Q = QCheck

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A fresh store directory, removed when the test process exits. *)
let temp_dir () =
  let d = Filename.temp_file "wqi_store" "" in
  Sys.remove d;
  at_exit (fun () -> if Sys.file_exists d then rm_rf d);
  d

let meta =
  { Store.source = "doc.html"; grammar = "std@1"; outcome = "complete";
    domain = ""; quality = None }

let key_of i = Key.make ~html:(Printf.sprintf "<form>doc %d</form>" i) ~spec:"s"

(* --- keying ------------------------------------------------------- *)

(* The FNV-1a/64 chain is pinned by constant: a silent change to the
   hash would orphan every existing store directory and cache entry. *)
let test_fnv_pinned () =
  Alcotest.(check string) "offset basis" "cbf29ce484222325"
    (Key.to_hex (Key.fingerprint ""));
  Alcotest.(check string) "fnv1a(a)" "af63dc4c8601ec8c"
    (Key.to_hex (Key.fingerprint "a"));
  Alcotest.(check string) "fold = fingerprint"
    (Key.to_hex (Key.fingerprint "ab"))
    (Key.to_hex (Key.fold (Key.fingerprint "a") "b"))

(* The serve cache delegates its keying to Key; cross-check that both
   paths produce identical keys, so a store written by wqi_batch is
   probeable with keys computed by wqi_serve. *)
let test_cache_key_identity () =
  List.iter
    (fun (html, spec) ->
       let a = Cache.key ~html ~spec and b = Key.make ~html ~spec in
       Alcotest.(check bool) "cache key = store key" true (Key.equal a b))
    [ ("<form>a</form>", "v2|name=x|budget=");
      ("  <FORM>\r\nA</FORM>  ", "v2|name=x|budget=");
      ("", "");
      (String.make 4096 'z', "v2|grammar=std@1|name=y|budget={}") ]

let test_spec_distinguishes () =
  let html = "<form><input name=q></form>" in
  let b = Wqi_budget.Budget.unlimited in
  let k v =
    Key.make ~html
      ~spec:(Key.spec ~grammar_name:"std" ~grammar_version:v ~name:"d" b)
  in
  (* A grammar version bump changes every key: present results read as
     misses and the documents re-extract under the new grammar. *)
  Alcotest.(check bool) "version bump changes key" false
    (Key.equal (k "1") (k "2"));
  Alcotest.(check bool) "same version, same key" true
    (Key.equal (k "1") (k "1"))

(* [Key.make] normalizes and hashes in one pass; it must agree with the
   two-step definition on every input.  The generator is heavy in the
   bytes normalization treats specially, and includes empty and
   all-whitespace documents. *)
let ws_heavy_gen =
  let open Q.Gen in
  let ws = oneofl [ ' '; '\t'; '\r'; '\n'; '\012' ] in
  let any =
    frequency [ (3, ws); (1, oneofl [ '<'; 'a'; 'Z'; '>' ]); (1, char) ]
  in
  frequency
    [ (1, return "");
      (2, string_size ~gen:ws (int_bound 12));
      (7, string_size ~gen:any (int_bound 200)) ]

let prop_make_is_fold_of_normalize =
  Q.Test.make ~name:"Key.make = fold of normalize (one pass, no copy)"
    ~count:1000
    (Q.make ~print:(fun (h, s) -> Printf.sprintf "%S / %S" h s)
       (Q.Gen.pair ws_heavy_gen ws_heavy_gen))
    (fun (html, spec) ->
       let k = Key.make ~html ~spec in
       let n = Key.normalize html in
       Int64.equal k.Key.hash
         (Key.fold (Key.fold (Key.fingerprint spec) "\x00") n)
       && k.Key.len = String.length n
       && String.equal k.Key.spec spec)

(* --- CRC-32 ------------------------------------------------------- *)

(* Bit-at-a-time, no table: the definition the slicing tables must
   reproduce. *)
let crc_reference s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
       c := !c lxor Char.code ch;
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
       done)
    s;
  !c lxor 0xffffffff

let test_crc_known_answer () =
  Alcotest.(check int) "check value" 0xcbf43926 (Crc32.digest "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.digest "")

(* Every prefix of length 0..64 covers each slicing tail (0..7 bytes
   after whole 8-byte steps) at several step counts; the whole string
   covers long inputs up to 8 KiB. *)
let prop_crc_matches_reference =
  Q.Test.make ~name:"Crc32.digest = bytewise reference (lengths 0..64, <=8KiB)"
    ~count:200
    (Q.make ~print:String.escaped
       Q.Gen.(string_size ~gen:char (int_range 64 8192)))
    (fun s ->
       let ok = ref (Crc32.digest s = crc_reference s) in
       for len = 0 to 64 do
         let p = String.sub s 0 len in
         if Crc32.digest p <> crc_reference p then ok := false
       done;
       !ok)

(* Bytes from a fixed LCG: the sweeps below are reproducible. *)
let lcg_bytes n =
  let x = ref 0x2545F491 in
  String.init n (fun _ ->
      x := (!x * 1103515245 + 12345) land 0x7fffffff;
      Char.chr ((!x lsr 16) land 0xff))

(* Every length 0..320 at start offsets 0..15 reaches each kernel shape
   (under 64 bytes: tables only; then one to five 64-byte blocks, zero
   to three 16-byte folds and a 0..15-byte table tail, in every
   combination), and 1 MiB runs the four-way fold for 16k steps.  [String.sub] copies
   each slice to a word-aligned start, so the offsets vary the content
   around the block boundaries; the kernel's loads are unaligned
   ([loadu]) whatever the start.  The portable path gets the same
   sweep, so the tables are checked on machines that never run them
   alone. *)
let check_crc_sweep name f =
  let buf = lcg_bytes (320 + 16) in
  for off = 0 to 15 do
    for len = 0 to 320 do
      let s = String.sub buf off len in
      let want = crc_reference s in
      if f s <> want then
        Alcotest.failf "%s: offset %d, length %d: got %08x, want %08x" name
          off len (f s) want
    done
  done;
  let big = lcg_bytes ((1 lsl 20) + 13) in
  Alcotest.(check int) (name ^ ": 1 MiB + 13 B") (crc_reference big) (f big)

let test_crc_sweep () = check_crc_sweep "Crc32.digest" Crc32.digest

let test_crc_portable_sweep () =
  check_crc_sweep "Crc32.portable_digest" Crc32.portable_digest

(* A build that silently lost the kernel (a dropped target attribute,
   a failed CPU probe) would still pass every digest check, only
   slower: on an x86-64 Linux machine whose /proc/cpuinfo lists both
   features, the kernel must be the active path.  Only x86 kernels
   print a "flags" line with these names; a 64-bit word rules out
   32-bit x86 builds, which have no kernel. *)
let test_crc_kernel_active () =
  let flags =
    match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
    | text ->
      String.split_on_char '\n' text
      |> List.find_opt (fun l -> String.starts_with ~prefix:"flags" l)
      |> Option.map (fun l -> String.split_on_char ' ' l)
    | exception Sys_error _ -> None
  in
  match flags with
  | Some flags
    when Sys.word_size = 64 && List.mem "pclmulqdq" flags
         && List.mem "sse4_1" flags ->
    Alcotest.(check bool) "carry-less-multiply kernel active" true
      (Crc32.accelerated ())
  | _ -> ()

(* --- manifest codec ----------------------------------------------- *)

(* The Printf writer and the closure-based reader the manifest codec
   replaced, kept verbatim as the reference: the codec must accept and
   reject exactly the lines these did, decode them to the same entries,
   and write the same bytes. *)
module Old = struct
  open Store

  let float_repr f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.12g" f

  let render_line (k : Key.t) e =
    let str = Wqi_model.Export.string in
    let quality =
      match e.e_meta.quality with
      | None -> ""
      | Some q ->
        Printf.sprintf ",\"score\":%s,\"coverage\":%s,\"conflicts\":%d"
          (float_repr q.q_score) (float_repr q.q_coverage) q.q_conflicts
    in
    Printf.sprintf
      "{\"k\":%s,\"len\":%d,\"spec\":%s,\"seg\":%d,\"off\":%d,\"bytes\":%d,\
       \"crc\":%d,\"src\":%s,\"grammar\":%s,\"outcome\":%s,\"domain\":%s%s}"
      (str (Key.to_hex k.Key.hash))
      k.Key.len (str k.Key.spec) e.e_seg e.e_off e.e_len e.e_crc
      (str e.e_meta.source) (str e.e_meta.grammar) (str e.e_meta.outcome)
      (str e.e_meta.domain) quality

  exception Bad_line

  let parse_fields line =
    let n = String.length line in
    let pos = ref 0 in
    let peek () = if !pos < n then line.[!pos] else raise Bad_line in
    let skip_ws () =
      while !pos < n && (match line.[!pos] with ' ' | '\t' -> true | _ -> false)
      do incr pos done
    in
    let expect c =
      skip_ws ();
      if peek () <> c then raise Bad_line;
      incr pos
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise Bad_line;
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (match peek () with
           | 'n' -> Buffer.add_char b '\n'; incr pos
           | 't' -> Buffer.add_char b '\t'; incr pos
           | 'r' -> Buffer.add_char b '\r'; incr pos
           | '"' -> Buffer.add_char b '"'; incr pos
           | '\\' -> Buffer.add_char b '\\'; incr pos
           | '/' -> Buffer.add_char b '/'; incr pos
           | 'u' ->
             if !pos + 4 >= n then raise Bad_line;
             let hex = String.sub line (!pos + 1) 4 in
             (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 256 -> Buffer.add_char b (Char.chr code)
              | Some _ -> raise Bad_line  (* never emitted *)
              | None -> raise Bad_line);
             pos := !pos + 5
           | _ -> raise Bad_line);
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      skip_ws ();
      let start = !pos in
      let numeric = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && numeric line.[!pos] do incr pos done;
      if !pos = start then raise Bad_line;
      let s = String.sub line start (!pos - start) in
      match int_of_string_opt s with
      | Some v -> `Int v
      | None ->
        (match float_of_string_opt s with
         | Some v -> `Num v
         | None -> raise Bad_line)
    in
    expect '{';
    let fields = ref [] in
    skip_ws ();
    if peek () = '}' then incr pos
    else begin
      let rec members () =
        let key = parse_string () in
        expect ':';
        skip_ws ();
        let value =
          if peek () = '"' then `Str (parse_string ()) else parse_number ()
        in
        fields := (key, value) :: !fields;
        skip_ws ();
        match peek () with
        | ',' -> incr pos; skip_ws (); members ()
        | '}' -> incr pos
        | _ -> raise Bad_line
      in
      members ()
    end;
    skip_ws ();
    if !pos <> n then raise Bad_line;
    !fields

  let parse_line line =
    match parse_fields line with
    | exception Bad_line -> None
    | fields ->
      let str k =
        match List.assoc_opt k fields with
        | Some (`Str s) -> s
        | _ -> raise Bad_line
      in
      let int k =
        match List.assoc_opt k fields with
        | Some (`Int v) when v >= 0 -> v
        | _ -> raise Bad_line
      in
      let num k =
        match List.assoc_opt k fields with
        | Some (`Num v) -> v
        | Some (`Int v) -> float_of_int v
        | _ -> raise Bad_line
      in
      (* Quality provenance appeared in a later store revision: absent on
         older manifests, so its absence is a None, never a Bad_line. *)
      let quality () =
        if List.mem_assoc "score" fields then
          Some
            { q_score = num "score";
              q_coverage = num "coverage";
              q_conflicts = int "conflicts" }
        else None
      in
      (match
         let hash =
           match Key.of_hex (str "k") with
           | Some h -> h
           | None -> raise Bad_line
         in
         let key = { Key.hash; len = int "len"; spec = str "spec" } in
         let e =
           { e_seg = int "seg";
             e_off = int "off";
             e_len = int "bytes";
             e_crc = int "crc";
             e_meta =
               { source = str "src";
                 grammar = str "grammar";
                 outcome = str "outcome";
                 domain = str "domain";
                 quality = quality () } }
         in
         (key, e)
       with
       | pair -> Some pair
       | exception Bad_line -> None)
end

(* Entries heavy in what the codec treats specially: escapes, control
   and high bytes in the strings; integers past 18 digits; integer-
   valued, fractional, exponent and non-finite floats. *)
let text_gen =
  let open Q.Gen in
  let special =
    oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; 'u' ]
  in
  string_size
    ~gen:(frequency [ (6, printable); (2, special); (1, char) ])
    (int_range 0 24)

let nonneg_gen =
  Q.Gen.(
    frequency
      [ (6, int_bound 100_000); (1, int_range 0 max_int);
        (1, oneofl [ 0; 999_999_999_999_999_999; max_int ]) ])

let float_gen =
  Q.Gen.(
    frequency
      [ (3, map float_of_int (int_range (-5) 1000));
        (3, float_bound_inclusive 1.);
        (2, float);
        (1, oneofl [ 1e14; 1e15; 1e16; -0.; 1e-7; 3.2e20; 0.1; nan;
                     infinity; neg_infinity ]) ])

let entry_gen =
  let open Q.Gen in
  let* hash =
    map2
      (fun a b -> Int64.(logor (shift_left (of_int a) 32) (of_int b)))
      (int_bound 0xffffffff) (int_bound 0xffffffff)
  and* len = nonneg_gen
  and* spec = text_gen
  and* ints = quad nonneg_gen nonneg_gen nonneg_gen nonneg_gen
  and* strs = quad text_gen text_gen text_gen text_gen
  and* quality =
    opt
      (map3
         (fun q_score q_coverage q_conflicts ->
            { Store.q_score; q_coverage; q_conflicts })
         float_gen float_gen
         (frequency [ (5, nonneg_gen); (1, int_range (-3) (-1)) ]))
  in
  let e_seg, e_off, e_len, e_crc = ints
  and source, grammar, outcome, domain = strs in
  return
    ( { Key.hash; len; spec },
      { Store.e_seg; e_off; e_len; e_crc;
        e_meta = { Store.source; grammar; outcome; domain; quality } } )

(* A line's members as (name, value) JSON texts, in writer order: their
   plain join is the written line, and the mutations below work on
   them. *)
let members_of line =
  let n = String.length line in
  let rec split i acc =
    (* [i] at the opening quote of a name; values hold no unescaped
       '"' outside strings, and strings no unescaped '"'. *)
    let name_end = String.index_from line (i + 1) '"' in
    let name = String.sub line i (name_end - i + 1) in
    let v0 = name_end + 2 in
    let v1 =
      if line.[v0] = '"' then begin
        let j = ref (v0 + 1) in
        while line.[!j] <> '"' do
          if line.[!j] = '\\' then incr j;
          incr j
        done;
        !j + 1
      end
      else begin
        let j = ref v0 in
        while line.[!j] <> ',' && line.[!j] <> '}' do incr j done;
        !j
      end
    in
    let acc = (name, String.sub line v0 (v1 - v0)) :: acc in
    if v1 >= n - 1 then List.rev acc else split (v1 + 1) acc
  in
  split 1 []

let json_alphabet =
  List.of_seq
    (String.to_seq "{}\":,\\ \t0123456789abcdefABCDEFnrtu_-+.eExk/\000\255")

let ws_gen = Q.Gen.(string_size ~gen:(oneofl [ ' '; '\t' ]) (int_range 0 2))

let insert_at at x l =
  List.filteri (fun i _ -> i < at) l
  @ (x :: List.filteri (fun i _ -> i >= at) l)

(* One mutation of a written line, structural or bytewise. *)
let mutant_gen line =
  let open Q.Gen in
  let n = String.length line in
  let members = members_of line in
  let join ?(sep = fun () -> return "") ms =
    let* parts =
      flatten_l
        (List.map
           (fun (k, v) ->
              let* a = sep () and* b = sep () and* c = sep ()
              and* d = sep () in
              return (a ^ k ^ b ^ ":" ^ c ^ v ^ d))
           ms)
    in
    let* a = sep () and* b = sep () in
    return (a ^ "{" ^ String.concat "," parts ^ b ^ "}" ^ a)
  in
  let alt_value =
    oneofl
      [ "0"; "-0"; "+5"; "-5"; "5.0"; "5e0"; "05"; "1e999"; "1.5"; "-2.5e-3";
        "4611686018427387903"; "4611686018427387904"; "99999999999999999999";
        "\"x\""; "\"\""; "\"0123456789abcdef\""; "\"\\u0041\""; "."; "e";
        "1e"; "--1"; "0x10"; "true" ]
  in
  frequency
    [ (2, map (fun i -> String.sub line 0 i) (int_bound n));
      ( 3,
        let* k = int_range 1 4 in
        let* subs =
          list_repeat k (pair (int_bound (n - 1)) (oneofl json_alphabet))
        in
        let b = Bytes.of_string line in
        List.iter (fun (i, c) -> Bytes.set b i c) subs;
        return (Bytes.to_string b) );
      ( 1,
        let* i = int_bound n in
        let* len = int_bound (min 12 (n - i)) in
        return
          (String.sub line 0 i ^ String.sub line (i + len) (n - i - len)) );
      ( 1,
        let* i = int_bound n in
        let* len = int_bound (min 12 (n - i)) in
        return (String.sub line 0 (i + len) ^ String.sub line i (n - i)) );
      (1, shuffle_l members >>= join);
      ( 2,
        let* m = oneofl members and* v = alt_value
        and* at = int_bound (List.length members) in
        join (insert_at at (fst m, v) members) );
      ( 1,
        let* m = oneofl members and* at = int_bound (List.length members) in
        join (insert_at at m members) );
      ( 1,
        let* name =
          oneofl [ "\"zz\""; "\"\""; "\"K\""; "\"scor\""; "\"score\"" ]
        and* v = alt_value in
        shuffle_l ((name, v) :: members) >>= join );
      ( 1,
        (* A name spelled with an escape: "\u006ben" is "len". *)
        let* i = int_bound (List.length members - 1) in
        join
          (List.mapi
             (fun j (k, v) ->
                if j <> i || String.length k < 3 then (k, v)
                else
                  ( Printf.sprintf "\"\\u%04x%s" (Char.code k.[1])
                      (String.sub k 2 (String.length k - 2)),
                    v ))
             members) );
      (1, join ~sep:(fun () -> ws_gen) members);
      (1, return (line ^ "\r"));
      (1, return line) ]

let same_parse a b = compare a b = 0

let prop_codec_matches_reference =
  Q.Test.make
    ~name:"manifest codec = old reader and writer, never raises" ~count:2000
    (Q.make
       ~print:(fun (_, lines) ->
           String.concat "\n" (List.map String.escaped lines))
       Q.Gen.(
         let* (k, e) = entry_gen in
         let line = Old.render_line k e in
         let* lines = list_repeat 8 (mutant_gen line) in
         return ((k, e), line :: lines)))
    (fun ((k, e), lines) ->
       let written = Store.render_line k e in
       String.equal written (Old.render_line k e)
       && List.for_all
         (fun l ->
            match Store.parse_line l with
            | r -> same_parse r (Old.parse_line l)
            | exception _ -> false)
         lines)

(* Hand-picked edges of the old reader's number and escape rules. *)
let test_codec_edges () =
  let k = key_of 7 in
  let e =
    { Store.e_seg = 3; e_off = 1234; e_len = 56; e_crc = 0xdeadbeef;
      e_meta =
        { meta with
          quality =
            Some { Store.q_score = 0.75; q_coverage = 1.; q_conflicts = 2 } } }
  in
  let line = Old.render_line k e in
  let members = members_of line in
  let join ms =
    "{" ^ String.concat "," (List.map (fun (a, b) -> a ^ ":" ^ b) ms) ^ "}"
  in
  let set name v =
    join (List.map (fun (a, b) -> if a = name then (a, v) else (a, b)) members)
  in
  let cases =
    [ line; set "\"len\"" "-0"; set "\"len\"" "+7"; set "\"len\"" "-7";
      set "\"len\"" "7.0"; set "\"seg\"" "4611686018427387903";
      set "\"seg\"" "4611686018427387904"; set "\"score\"" "1e2";
      set "\"score\"" "\"1\""; set "\"coverage\"" "-3";
      set "\"conflicts\"" "-1";
      set "\"k\"" "\"0_23456789abcdef\""; set "\"k\"" "\"_123456789abcdef\"";
      set "\"k\"" "\"0123456789ABCDE_\""; set "\"k\"" "\"0123456789abcde\"";
      set "\"k\"" "\"\\u0030123456789abcdef\"";
      set "\"src\"" "\"\\u00e9\\u0_4_\\u1___\""; set "\"src\"" "\"\\u_041\"";
      set "\"src\"" "\"\\u0100\""; set "\"src\"" "\"\\u00\"";
      set "\"src\"" "\"\\x\""; set "\"src\"" "5";
      " \t" ^ line ^ "\t "; "{}"; "{ }"; ""; "{"; "\"k\"" ]
  in
  List.iter
    (fun l ->
       Alcotest.(check bool) (String.escaped l) true
         (same_parse (Store.parse_line l) (Old.parse_line l)))
    cases;
  Alcotest.(check bool) "canonical line parses" true
    (same_parse (Store.parse_line line) (Some (k, e)))

(* --- allocation ceilings ------------------------------------------ *)

(* Minor words allocated by one call of [f], net of the measurement
   itself.  [Gc.minor_words] is unboxed, so reading it allocates
   nothing. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let test_alloc_ceilings () =
  let doc n =
    String.init n (fun i ->
        match i mod 40 with
        | 0 -> '\r'
        | 1 -> '\n'
        | 2 -> ' '
        | k -> Char.chr (97 + (k mod 26)))
  in
  let small = doc 100 and large = doc 100_000 in
  let spec = String.make 150 's' in
  let make html () = Key.make ~html ~spec in
  ignore (make small ());
  (* The key record (4 words) and its boxed hash (3 words), whatever
     the document's size: no normalized copy, no per-byte boxing. *)
  let w_small = minor_words (make small) in
  let w_large = minor_words (make large) in
  Alcotest.(check (float 0.)) "Key.make: same words at 100 B and 100 KB"
    w_small w_large;
  Alcotest.(check bool)
    (Printf.sprintf "Key.make allocates <= 7 words (got %.0f)" w_small)
    true (w_small <= 7.);
  Alcotest.(check (float 0.)) "Crc32.digest 100 B allocates nothing" 0.
    (minor_words (fun () -> Crc32.digest small));
  Alcotest.(check (float 0.)) "Crc32.digest 100 KB allocates nothing" 0.
    (minor_words (fun () -> Crc32.digest large));
  Alcotest.(check (float 0.)) "Crc32.portable_digest 100 B allocates nothing"
    0. (minor_words (fun () -> Crc32.portable_digest small));
  Alcotest.(check (float 0.))
    "Crc32.portable_digest 100 KB allocates nothing" 0.
    (minor_words (fun () -> Crc32.portable_digest large));
  (* Text-only markup: one text event however long, so a per-byte
     allocation in the collapsed fold would show as a difference. *)
  let sig_words html = minor_words (fun () -> Signature.structural html) in
  Alcotest.(check (float 0.)) "Signature: same words at 100 B and 100 KB"
    (sig_words small) (sig_words large);
  (* One canonical manifest line with a quality record: the ~66 words
     of strings, boxes and records the entry keeps, the reader's 29
     words of slots, and the fractional score's substring, option and
     box.  The reader it replaced allocated 829 words on this line. *)
  let line =
    Store.render_line (Key.make ~html:small ~spec)
      { Store.e_seg = 3; e_off = 123_456; e_len = 2048; e_crc = 0xcbf43926;
        e_meta =
          { Store.source = "corpus/books/form-0042.html"; grammar = "std@1";
            outcome = "complete"; domain = "books";
            quality = Some { Store.q_score = 0.8125; q_coverage = 1.;
                             q_conflicts = 0 } } }
  in
  ignore (Store.parse_line line);
  let w_line = minor_words (fun () -> Store.parse_line line) in
  Alcotest.(check bool)
    (Printf.sprintf "Store.parse_line allocates <= 101 words (got %.0f)" w_line)
    true (w_line <= 101.)

(* --- store lifecycle ---------------------------------------------- *)

let test_put_find_roundtrip () =
  let dir = temp_dir () in
  let st = Store.open_ dir in
  let k = key_of 1 in
  Alcotest.(check bool) "absent before put" false (Store.mem st k);
  Store.put st k ~meta "value-bytes";
  Alcotest.(check (option string)) "find" (Some "value-bytes")
    (Store.find st k);
  (match Store.meta st k with
   | None -> Alcotest.fail "meta absent"
   | Some m ->
     Alcotest.(check string) "meta source" "doc.html" m.Store.source);
  Alcotest.(check (option string)) "other key misses" None
    (Store.find st (key_of 2));
  let s = Store.stats st in
  Alcotest.(check int) "entries" 1 s.Store.entries;
  Alcotest.(check int) "puts" 1 s.Store.puts;
  Alcotest.(check int) "hits" 1 s.Store.hits;
  Store.close st

let test_reopen_replay () =
  let dir = temp_dir () in
  let st = Store.open_ dir in
  for i = 0 to 19 do
    Store.put st (key_of i) ~meta (Printf.sprintf "value %d" i)
  done;
  (* Overwrite one key: the replay must keep the latest value. *)
  Store.put st (key_of 7) ~meta "value 7 revised";
  Store.close st;
  let st = Store.open_ dir in
  let s = Store.stats st in
  Alcotest.(check int) "entries after reopen" 20 s.Store.entries;
  Alcotest.(check int) "dropped" 0 s.Store.dropped;
  for i = 0 to 19 do
    let expect = if i = 7 then "value 7 revised" else Printf.sprintf "value %d" i in
    Alcotest.(check (option string)) "value survives reopen" (Some expect)
      (Store.find st (key_of i))
  done;
  Alcotest.(check bool) "source known" true (Store.source_known st "doc.html");
  Store.close st

(* Appends after a reopen must land at (and record) the real end of a
   non-empty segment: with one segment, every put after the first
   reopen extends a file that already has bytes, so a recorded offset
   of 0 (the append-mode [pos_out] trap) would corrupt the first
   entry and make the new one unreadable. *)
let test_append_after_reopen () =
  let dir = temp_dir () in
  let st = Store.open_ ~segments:1 dir in
  Store.put st (key_of 0) ~meta "first value";
  Store.close st;
  let st = Store.open_ dir in
  Store.put st (key_of 1) ~meta "second value";
  Alcotest.(check (option string)) "new put readable in-session"
    (Some "second value") (Store.find st (key_of 1));
  Store.close st;
  let st = Store.open_ dir in
  Alcotest.(check (option string)) "old value intact" (Some "first value")
    (Store.find st (key_of 0));
  Alcotest.(check (option string)) "new value survives reopen"
    (Some "second value")
    (Store.find st (key_of 1));
  Alcotest.(check int) "no corruption" 0 (Store.stats st).Store.corrupt;
  Store.close st

(* A writer killed mid-append leaves a torn final manifest line; the
   reopen must drop it (a miss, re-extracted on resume) and keep every
   complete line before it. *)
let test_torn_manifest_tail () =
  let dir = temp_dir () in
  let st = Store.open_ dir in
  for i = 0 to 9 do
    Store.put st (key_of i) ~meta (Printf.sprintf "value %d" i)
  done;
  Store.close st;
  let manifest = Filename.concat dir "manifest.jsonl" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 manifest in
  output_string oc "{\"k\":\"00deadbeef";  (* no closing quote, no newline *)
  close_out oc;
  let st = Store.open_ dir in
  let s = Store.stats st in
  Alcotest.(check int) "complete lines kept" 10 s.Store.entries;
  Alcotest.(check int) "torn tail dropped" 1 s.Store.dropped;
  (* The store must still accept puts after recovery. *)
  Store.put st (key_of 99) ~meta "post-recovery";
  Alcotest.(check (option string)) "post-recovery put" (Some "post-recovery")
    (Store.find st (key_of 99));
  Store.close st;
  let st = Store.open_ dir in
  Alcotest.(check int) "clean after recompaction" 0 (Store.stats st).Store.dropped;
  Alcotest.(check int) "all entries" 11 (Store.stats st).Store.entries;
  Store.close st

(* Replay reads the manifest in 64 KiB blocks: lines that straddle a
   block boundary, a line longer than a block, blank lines (skipped,
   not counted), a CRLF-terminated line (dropped, as it always was) and
   a last line without its newline must all read as line-at-a-time
   reading saw them. *)
let test_replay_blocks () =
  let dir = temp_dir () in
  let st = Store.open_ dir in
  let key i =
    let spec = if i mod 97 = 5 then String.make 70_000 's' else "s" in
    Key.make ~html:(Printf.sprintf "<form>doc %d</form>" i) ~spec
  in
  for i = 0 to 499 do
    Store.put st (key i) ~meta (Printf.sprintf "value %d" i)
  done;
  Store.close st;
  let manifest = Filename.concat dir "manifest.jsonl" in
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_bin manifest In_channel.input_all)
  in
  let last = List.nth lines (List.length lines - 2) in
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 manifest
    (fun oc ->
       output_string oc ("\n \t\r\012\n" ^ last ^ "\r\n\n" ^ last));
  let st = Store.open_ dir in
  let s = Store.stats st in
  Alcotest.(check int) "replayed" 501 s.Store.replayed;
  Alcotest.(check int) "dropped (the CRLF line)" 1 s.Store.dropped;
  Alcotest.(check int) "entries" 500 s.Store.entries;
  for i = 0 to 499 do
    Alcotest.(check (option string)) (Printf.sprintf "value %d" i)
      (Some (Printf.sprintf "value %d" i))
      (Store.find st (key i))
  done;
  Store.close st

(* Bit rot (or a partial value append from a crash that never reached
   the manifest flush) must never surface as a wrong answer: a CRC
   failure reads as a miss and drops the entry. *)
let test_corrupt_value_is_a_miss () =
  let dir = temp_dir () in
  let st = Store.open_ ~segments:1 dir in
  Store.put st (key_of 1) ~meta "precious bytes";
  Store.close st;
  let seg = Filename.concat (Filename.concat dir "segments") "seg-000.dat" in
  let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  ignore (Unix.write_substring fd "X" 0 1);
  Unix.close fd;
  let st = Store.open_ dir in
  Alcotest.(check bool) "indexed at replay" true (Store.mem st (key_of 1));
  Alcotest.(check (option string)) "corrupt value misses" None
    (Store.find st (key_of 1));
  Alcotest.(check int) "corruption counted" 1 (Store.stats st).Store.corrupt;
  Alcotest.(check bool) "entry dropped" false (Store.mem st (key_of 1));
  Store.close st

let test_concurrent_writers () =
  let dir = temp_dir () in
  let st = Store.open_ dir in
  let n = 200 in
  let results =
    Pool.run ~jobs:4 (fun pool ->
        Pool.map_array pool
          (fun i ->
            Store.put st (key_of i) ~meta (Printf.sprintf "value %d" i);
            Store.find st (key_of i) <> None)
          (Array.init n (fun i -> i)))
  in
  Array.iteri
    (fun i ok ->
       if not ok then Alcotest.failf "writer %d: own put not visible" i)
    results;
  Store.close st;
  let st = Store.open_ dir in
  Alcotest.(check int) "all entries survive" n (Store.stats st).Store.entries;
  for i = 0 to n - 1 do
    Alcotest.(check (option string)) "value intact"
      (Some (Printf.sprintf "value %d" i))
      (Store.find st (key_of i))
  done;
  Store.close st

(* Resuming over a warm store must pay off: 120 generated documents
   (all domains, Simple and Rich, 10% out-of-grammar) ingested cold
   through a 2-job Pool, the store closed and reopened, then the same
   pass again.  The resumed pass, replay included, answers every
   document from the store and runs at least 1.5x faster than the cold
   one: the floor that catches a resume that silently re-extracts,
   loose enough for the fixed open and replay costs of a small corpus.
   Both sides are passes of a few tens of milliseconds, so each is
   timed best of five: every cold pass into a fresh store, every
   resumed pass reopening the last of them. *)
let test_resume_faster_than_cold () =
  let config = Extractor.Config.default in
  let g = Wqi_corpus.Prng.create 42L in
  let domains = Array.of_list Wqi_corpus.Vocabulary.all in
  let docs =
    Array.init 120 (fun i ->
        let name = Printf.sprintf "doc-%06d" i in
        let src =
          Generator.generate g ~id:name
            ~domain:domains.(i mod Array.length domains)
            ~complexity:(if i land 1 = 0 then `Simple else `Rich)
            ~oog_prob:0.1 ()
        in
        (name, src.html, Key.make ~html:src.html ~spec:name))
  in
  (* Open the store in [dir], then probe, and extract and put on a
     miss: the wqi_batch --store loop.  Returns the seconds, the number
     of extractions and the store's stats, and closes it. *)
  let pass dir =
    let t0 = Unix.gettimeofday () in
    let st = Store.open_ dir in
    let extracted =
      Pool.run ~jobs:2 (fun pool ->
          Pool.map_array pool
            (fun (name, html, key) ->
               match Store.find st key with
               | Some _ -> 0
               | None ->
                 let e = Extractor.run config (Extractor.Html html) in
                 Store.put st key ~meta
                   (Extractor.export ~timings:false ~name e);
                 1)
            docs)
    in
    let seconds = Unix.gettimeofday () -. t0 in
    let stats = Store.stats st in
    Store.close st;
    (seconds, Array.fold_left ( + ) 0 extracted, stats)
  in
  (* One untimed extraction first, so the cold pass does not also pay
     the process's first-use costs: a re-extracting resume then reads
     about 1x, not 1.5x. *)
  (let _, html, _ = docs.(0) in
   ignore (Extractor.run config (Extractor.Html html)));
  let best passes =
    List.fold_left (fun m (s, _, _) -> Float.min m s) infinity passes
  in
  let dirs = List.init 5 (fun _ -> temp_dir ()) in
  let cold = List.map pass dirs in
  let dir = List.nth dirs 4 in
  let resumed = List.init 5 (fun _ -> pass dir) in
  let cold_s = best cold and resumed_s = best resumed in
  let _, resumed_extracted, stats = List.nth resumed 4 in
  let speedup = cold_s /. resumed_s in
  if speedup < 1.5 then
    Alcotest.failf
      "resumed pass %.1f ms (%d extracted) is only %.2fx faster than cold \
       %.1f ms (want >= 1.5x, best of 5 each)"
      (1000. *. resumed_s) resumed_extracted speedup (1000. *. cold_s);
  List.iter
    (fun (_, n, _) ->
       Alcotest.(check int) "cold extracted every document" 120 n)
    cold;
  List.iter
    (fun (_, n, _) -> Alcotest.(check int) "resumed extracted none" 0 n)
    resumed;
  Alcotest.(check int) "replayed every line" 120 stats.Store.replayed;
  Alcotest.(check int) "dropped none" 0 stats.Store.dropped;
  Alcotest.(check int) "entries" 120 stats.Store.entries;
  Alcotest.(check bool) "value bytes stored" true (stats.Store.bytes > 0)

(* The store-level guarantee mirroring the cache suite's: over 60
   corpus interfaces, a value read back — across a close/reopen — is
   byte-identical to extracting the same markup again. *)
let test_stored_is_fresh () =
  let g = Wqi_corpus.Prng.create 0x5704EL in
  let domains = Wqi_corpus.Vocabulary.core_three in
  let sources =
    List.init 60 (fun i ->
        Generator.generate g
          ~id:(Printf.sprintf "store-%02d" i)
          ~domain:(List.nth domains (i mod 3))
          ~complexity:(if i mod 2 = 0 then `Simple else `Rich)
          ~oog_prob:0.05 ())
  in
  let fresh (s : Generator.source) =
    Extractor.export ~timings:false ~name:s.id
      (Extractor.run Extractor.Config.default (Extractor.Html s.html))
  in
  let key (s : Generator.source) = Key.make ~html:s.html ~spec:s.id in
  let dir = temp_dir () in
  let st = Store.open_ dir in
  List.iter (fun s -> Store.put st (key s) ~meta (fresh s)) sources;
  Store.close st;
  let st = Store.open_ dir in
  List.iter
    (fun (s : Generator.source) ->
       match Store.find st (key s) with
       | None -> Alcotest.failf "%s: miss after reopen" s.id
       | Some stored ->
         Alcotest.(check string) (s.id ^ ": stored = fresh") (fresh s) stored)
    sources;
  Store.close st

let test_closed_store_raises () =
  let dir = temp_dir () in
  let st = Store.open_ dir in
  Store.put st (key_of 1) ~meta "v";
  Store.close st;
  Store.close st;  (* idempotent *)
  (match Store.find st (key_of 1) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "find on closed store must raise");
  ignore (Store.stats st)  (* stats stays readable *)

(* --- compatibility with stores already on disk -------------------- *)

(* test/store_compat was written by the two-pass key and byte-wise CRC
   code, before the one-pass key and slicing-by-8 CRC: 8 documents
   covering every normalization path (CRLF, lone CR, outer
   whitespace, empty and all-whitespace HTML) under 4 segments, values
   of length 0..4099, one key put twice.  It must still replay and
   verify bit for bit — keys and CRCs are on-disk formats. *)
let compat_docs =
  [ ("<form><input name=q></form>", "v2|grammar=std@1|name=a|budget={}");
    ( "  \t<FORM>\r\n<label>Title</label>\r\n</FORM>\r\n\n",
      "v2|grammar=std@1|name=b|budget={}" );
    ("", "v2|grammar=std@1|name=empty|budget={}");
    (" \t\r\n\012 \r\r\n", "v2|grammar=std@1|name=blank|budget={}");
    ("a\rb\r\r\nc\n\rd", "v2|grammar=std@1|name=cr|budget={}");
    ("\r\n<form>\r</form>\r", "v2|grammar=std@1|name=lone-cr|budget={}");
    ("<form>x</form>", "");
    ( "\012<table><tr><td>Author</td><td><input name=au></td></tr></table>\t",
      "v2|grammar=alt@2|name=c|budget={\"deadline_ms\":200}" ) ]

let compat_value i =
  let len = [| 0; 1; 7; 8; 9; 63; 1200; 4099 |].(i) in
  String.init len (fun j -> Char.chr (32 + (((i * 7) + (j * 13)) mod 95)))

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc
          (In_channel.with_open_bin src In_channel.input_all))

let test_compat_store_replays () =
  (* A copy: close compacts the manifest, and the fixture must stay as
     it was written. *)
  let dir = temp_dir () in
  copy_tree "store_compat" dir;
  let st = Store.open_ dir in
  let s = Store.stats st in
  Alcotest.(check int) "replayed lines" 9 s.Store.replayed;
  Alcotest.(check int) "dropped lines" 0 s.Store.dropped;
  Alcotest.(check int) "entries" 8 s.Store.entries;
  List.iteri
    (fun i (html, spec) ->
       Alcotest.(check (option string))
         (Printf.sprintf "doc %d: value byte-identical" i)
         (Some (compat_value i))
         (Store.find st (Key.make ~html ~spec)))
    compat_docs;
  let s = Store.stats st in
  Alcotest.(check int) "hits" 8 s.Store.hits;
  Alcotest.(check int) "corrupt" 0 s.Store.corrupt;
  Store.close st

(* --- structural signatures (crawl dedup) -------------------------- *)

let test_signature_whitespace_invariant () =
  let html =
    "<form action=\"/q\">\n  <label>Title</label>\n  <input name=\"t\">\n\
     </form>\n"
  in
  let reformatted =
    (* Doubled newlines, trailing blank line: the wqi_corpus_gen "ws"
       duplicate kind. *)
    String.concat "\n\n" (String.split_on_char '\n' html) ^ "\n"
  in
  let indented = "  " ^ String.concat "\n      " (String.split_on_char '\n' html) in
  Alcotest.(check string) "reformatting preserves signature"
    (Key.to_hex (Signature.structural html))
    (Key.to_hex (Signature.structural reformatted));
  Alcotest.(check string) "re-indentation preserves signature"
    (Key.to_hex (Signature.structural html))
    (Key.to_hex (Signature.structural indented))

let test_signature_structural_sensitivity () =
  let base = "<form><label>Title</label><input name=\"t\"></form>" in
  let differ what other =
    Alcotest.(check bool) what false
      (Signature.structural base = Signature.structural other)
  in
  differ "added field changes signature"
    "<form><label>Title</label><input name=\"t\"><input name=\"u\"></form>";
  differ "label text changes signature"
    "<form><label>Author</label><input name=\"t\"></form>";
  differ "attribute changes signature"
    "<form><label>Title</label><input name=\"t\" type=\"hidden\"></form>"

let test_signature_shape_vs_structural () =
  let a = "<form><label>Title</label><input name=\"t\"></form>" in
  let b = "<form><label>Author</label><input name=\"a\"></form>" in
  Alcotest.(check bool) "structural separates different text" false
    (Signature.structural a = Signature.structural b);
  Alcotest.(check string) "shape ignores text and attributes"
    (Key.to_hex (Signature.shape a))
    (Key.to_hex (Signature.shape b))

(* Crawl signatures are persisted dedup identities: pinned by value,
   as computed before the collapsed fold stopped allocating per byte. *)
let test_signature_pinned () =
  List.iter
    (fun (html, structural, shape) ->
       Alcotest.(check string) ("structural " ^ String.escaped html) structural
         (Key.to_hex (Signature.structural html));
       Alcotest.(check string) ("shape " ^ String.escaped html) shape
         (Key.to_hex (Signature.shape html)))
    [ ( "<form action=\"/q\">\n  <label>Title</label>\n  <input name=\"t\">\n\
         </form>\n",
        "9bed3348b75e307b", "7bb7ade673623161" );
      ( "<FORM><Label> Author  Name </Label>\t<input name=au TYPE=text></FORM>",
        "f5da418aa0cfb360", "7bb7ade673623161" );
      ( "<p>x<script>if (a<b) {}</script><style> p { } </style></p>",
        "59151eb49a0faa4b", "ab89c33a28316067" );
      ("", "dce9a54f3157a34b", "dce9a54f3157a34b") ]

let suite =
  [ ("fnv-1a/64 constants pinned", `Quick, test_fnv_pinned);
    ("cache key = store key", `Quick, test_cache_key_identity);
    ("grammar version bump changes keys", `Quick, test_spec_distinguishes);
    QCheck_alcotest.to_alcotest prop_make_is_fold_of_normalize;
    ("crc-32 known answer", `Quick, test_crc_known_answer);
    QCheck_alcotest.to_alcotest prop_crc_matches_reference;
    ("crc-32: lengths 0..320 x offsets 0..15, 1 MiB", `Quick, test_crc_sweep);
    ("crc-32 portable path: same sweep", `Quick, test_crc_portable_sweep);
    ("crc-32 kernel active where the CPU has it", `Quick,
     test_crc_kernel_active);
    QCheck_alcotest.to_alcotest prop_codec_matches_reference;
    ("manifest codec: number and escape edges", `Quick, test_codec_edges);
    ("allocation ceilings: key, crc, signature", `Quick, test_alloc_ceilings);
    ("store written by the old key and CRC code replays", `Quick,
     test_compat_store_replays);
    ("put/find round-trip", `Quick, test_put_find_roundtrip);
    ("reopen replays the manifest", `Quick, test_reopen_replay);
    ("appends after reopen land at the real end", `Quick,
     test_append_after_reopen);
    ("torn manifest tail dropped, store usable", `Quick,
     test_torn_manifest_tail);
    ("replay across 64 KiB blocks, blank and CRLF lines", `Quick,
     test_replay_blocks);
    ("corrupt value reads as a miss", `Quick, test_corrupt_value_is_a_miss);
    ("concurrent pool writers", `Quick, test_concurrent_writers);
    ("resumed pass >= 1.5x faster than cold (120 docs)", `Quick,
     test_resume_faster_than_cold);
    ("stored bytes = fresh extraction (60 sources)", `Quick,
     test_stored_is_fresh);
    ("closed store raises, close idempotent", `Quick,
     test_closed_store_raises);
    ("signature: whitespace-invariant", `Quick,
     test_signature_whitespace_invariant);
    ("signature: structure-sensitive", `Quick,
     test_signature_structural_sensitivity);
    ("signature: shape vs structural", `Quick,
     test_signature_shape_vs_structural);
    ("signature: values pinned", `Quick, test_signature_pinned) ]
