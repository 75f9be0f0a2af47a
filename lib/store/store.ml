(* See store.mli for the layout and crash-safety contract.  The
   implementation keeps three locking domains — per-segment value I/O,
   the manifest channel, the in-memory index — and always publishes in
   the order value → manifest → index, so every state a crash can leave
   behind replays to a consistent (if smaller) store. *)

type quality = {
  q_score : float;
  q_coverage : float;
  q_conflicts : int;
}

type meta = {
  source : string;
  grammar : string;
  outcome : string;
  domain : string;
  quality : quality option;
}

(* ------------------------------------------------------------------ *)
(* Manifest lines                                                     *)
(* ------------------------------------------------------------------ *)

(* One JSON object per line.  Emission reuses the export escaper so the
   manifest is ordinary JSONL; parsing is a small hand-rolled reader
   for exactly the subset emitted (string and number values).  Any
   line that fails to parse — a torn tail from a crashed writer, a
   stray editor artifact — is dropped and counted, never fatal. *)

type entry = {
  e_seg : int;
  e_off : int;
  e_len : int;   (* value byte count *)
  e_crc : int;
  e_meta : meta;
}

(* --- writer ------------------------------------------------------- *)

external format_float : string -> float -> string = "caml_format_float"

(* Non-negative integers digit by digit, with no intermediate string. *)
let rec add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

(* Floats (quality score/coverage) render integer-valued without a
   decimal point; the reader accepts both forms. *)
let add_float b f =
  Buffer.add_string b
    (format_float
       (if Float.is_integer f && Float.abs f < 1e15 then "%.0f" else "%.12g")
       f)

let add_line b (k : Key.t) e =
  let str = Wqi_model.Export.add_string in
  Buffer.add_string b "{\"k\":\"";
  for i = 15 downto 0 do
    Buffer.add_char b
      "0123456789abcdef".[Int64.to_int
                            (Int64.shift_right_logical k.Key.hash (4 * i))
                          land 15]
  done;
  Buffer.add_string b "\",\"len\":";
  add_int b k.Key.len;
  Buffer.add_string b ",\"spec\":";
  str b k.Key.spec;
  Buffer.add_string b ",\"seg\":";
  add_int b e.e_seg;
  Buffer.add_string b ",\"off\":";
  add_int b e.e_off;
  Buffer.add_string b ",\"bytes\":";
  add_int b e.e_len;
  Buffer.add_string b ",\"crc\":";
  add_int b e.e_crc;
  Buffer.add_string b ",\"src\":";
  str b e.e_meta.source;
  Buffer.add_string b ",\"grammar\":";
  str b e.e_meta.grammar;
  Buffer.add_string b ",\"outcome\":";
  str b e.e_meta.outcome;
  Buffer.add_string b ",\"domain\":";
  str b e.e_meta.domain;
  (match e.e_meta.quality with
   | None -> ()
   | Some q ->
     Buffer.add_string b ",\"score\":";
     add_float b q.q_score;
     Buffer.add_string b ",\"coverage\":";
     add_float b q.q_coverage;
     Buffer.add_string b ",\"conflicts\":";
     add_int b q.q_conflicts);
  Buffer.add_char b '}'

let render_line k e =
  let b = Buffer.create 256 in
  add_line b k e;
  Buffer.contents b

(* --- reader ------------------------------------------------------- *)

(* One pass over [line.[lo .. hi)], in the grammar the writer emits:
   an object of string and number members, spaces and tabs between
   tokens.  Field names are matched where they lie and each member's
   value lands in its field's slot, so a duplicated key's last value is
   the one that counts, whatever kind it is; unknown keys are skipped
   once their value has been checked.  A string is one [String.sub]
   unless it holds an escape; a plain run of at most 18 digits is
   decoded in place, and any other number goes through
   [int_of_string_opt], then [float_of_string_opt], as a substring. *)

exception Bad_line

(* Field ids: the strings, then the integers, then the floats.  -1 is a
   key the reader skips. *)
let f_k = 0
let f_spec = 1
let f_src = 2
let f_grammar = 3
let f_outcome = 4
let f_domain = 5
let f_len = 6
let f_seg = 7
let f_off = 8
let f_bytes = 9
let f_crc = 10
let f_conflicts = 11
let f_score = 12
let f_coverage = 13

let required = 0x7ff         (* k .. crc *)
let quality_fields = 0x3800  (* conflicts, score, coverage *)

type reader = {
  line : string;
  hi : int;
  mutable pos : int;
  mutable ok : int;  (* bit f: field f's last value was of its kind *)
  mutable has_score : bool;  (* a "score" key occurred, of any kind *)
  strs : string array;   (* by field id ([f_k] unused) *)
  ints : int array;      (* by field id - [f_len] *)
  nums : Float.Array.t;  (* by field id - [f_score] *)
  mutable k_text : string;  (* the last "k": [k_len] bytes of [k_text] *)
  mutable k_at : int;       (* from [k_at] *)
  mutable k_len : int;
}

let[@inline] bad () = raise_notrace Bad_line

let[@inline] mark r f good =
  r.ok <- (if good then r.ok lor (1 lsl f) else r.ok land lnot (1 lsl f))

let[@inline] peek r =
  if r.pos < r.hi then String.unsafe_get r.line r.pos else bad ()

let skip_ws r =
  while
    r.pos < r.hi
    && (match String.unsafe_get r.line r.pos with
        | ' ' | '\t' -> true
        | _ -> false)
  do r.pos <- r.pos + 1 done

let expect r c =
  skip_ws r;
  if peek r <> c then bad ();
  r.pos <- r.pos + 1

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* The value of [n] hex digits at [s.[i]], as [int_of_string] reads
   them after a "0x": the first a digit, each later one a digit or an
   ignored '_'.  -1 when they are not. *)
let hex_run s i n =
  if hex_digit (String.unsafe_get s i) < 0 then -1
  else begin
    let v = ref 0 and ok = ref true in
    for j = i to i + n - 1 do
      match String.unsafe_get s j with
      | '_' -> ()
      | c ->
        let d = hex_digit c in
        if d < 0 then ok := false else v := (!v lsl 4) lor d
    done;
    if !ok then !v else -1
  end

(* The 16 digits of a key hash, read by the same rule (as
   [Int64.of_string] does). *)
let hash_of s i =
  if hex_digit (String.unsafe_get s i) < 0 then bad ();
  let h = ref 0L in
  for j = i to i + 15 do
    match String.unsafe_get s j with
    | '_' -> ()
    | c ->
      let d = hex_digit c in
      if d < 0 then bad ();
      h := Int64.logor (Int64.shift_left !h 4) (Int64.of_int d)
  done;
  !h

(* Advance past the string whose opening quote is at [r.pos]; true when
   it holds an escape.  Escapes are checked here, decoded by
   [unescape]. *)
let scan_string r =
  if peek r <> '"' then bad ();
  let s = r.line and hi = r.hi in
  let i = ref (r.pos + 1) and esc = ref false in
  while
    if !i >= hi then bad ();
    String.unsafe_get s !i <> '"'
  do
    if String.unsafe_get s !i = '\\' then begin
      esc := true;
      incr i;
      if !i >= hi then bad ();
      match String.unsafe_get s !i with
      | 'n' | 't' | 'r' | '"' | '\\' | '/' -> ()
      | 'u' ->
        if !i + 4 >= hi then bad ();
        let code = hex_run s (!i + 1) 4 in
        if code < 0 || code >= 256 then bad ();
        i := !i + 4
      | _ -> bad ()
    end;
    incr i
  done;
  r.pos <- !i + 1;
  !esc

(* The bytes of a checked string body [s.[lo .. hi)] with its escapes
   decoded. *)
let unescape s lo hi =
  let b = Buffer.create (hi - lo) in
  let i = ref lo in
  while !i < hi do
    (match String.unsafe_get s !i with
     | '\\' ->
       incr i;
       (match String.unsafe_get s !i with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          Buffer.add_char b (Char.chr (hex_run s (!i + 1) 4));
          i := !i + 4
        | c -> Buffer.add_char b c)
     | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let rec same s at name j =
  j = String.length name
  || (String.unsafe_get s (at + j) = String.unsafe_get name j
      && same s at name (j + 1))

let is s at name = same s at name 0

let field_id s at len =
  match len with
  | 1 -> if is s at "k" then f_k else -1
  | 3 ->
    if is s at "len" then f_len
    else if is s at "seg" then f_seg
    else if is s at "off" then f_off
    else if is s at "crc" then f_crc
    else if is s at "src" then f_src
    else -1
  | 4 -> if is s at "spec" then f_spec else -1
  | 5 ->
    if is s at "bytes" then f_bytes
    else if is s at "score" then f_score
    else -1
  | 6 -> if is s at "domain" then f_domain else -1
  | 7 ->
    if is s at "grammar" then f_grammar
    else if is s at "outcome" then f_outcome
    else -1
  | 8 -> if is s at "coverage" then f_coverage else -1
  | 9 -> if is s at "conflicts" then f_conflicts else -1
  | _ -> -1

let int_value r f v =
  if f >= f_score then begin
    mark r f true;
    Float.Array.set r.nums (f - f_score) (float_of_int v)
  end
  else if f >= f_len then begin
    mark r f (v >= 0);
    r.ints.(f - f_len) <- v
  end
  else if f >= 0 then mark r f false

let float_value r f x =
  if f >= f_score then begin
    mark r f true;
    Float.Array.set r.nums (f - f_score) x
  end
  else if f >= 0 then mark r f false

(* A number token into field [f]: the bytes [0-9+-.eE] the old reader
   took, decoded as [int_of_string_opt], else [float_of_string_opt],
   would decode them.  [int_of_string] reads only a sign and digits, so
   a token with '.', 'e' or 'E' goes straight to [float_of_string_opt]. *)
let number r f =
  let start = r.pos in
  let shape = ref 0 (* 0 digits, 1 and a sign, 2 not an int *) in
  let v = ref 0 in
  while
    r.pos < r.hi
    &&
    match String.unsafe_get r.line r.pos with
    | '0' .. '9' as c ->
      v := (!v * 10) + (Char.code c - 48);
      true
    | '-' | '+' ->
      shape := max !shape 1;
      true
    | '.' | 'e' | 'E' ->
      shape := 2;
      true
    | _ -> false
  do r.pos <- r.pos + 1 done;
  let n = r.pos - start in
  if n = 0 then bad ();
  if !shape = 0 && n <= 18 then int_value r f !v
  else begin
    let s = String.sub r.line start n in
    match if !shape = 2 then None else int_of_string_opt s with
    | Some v -> int_value r f v
    | None ->
      (match float_of_string_opt s with
       | Some x -> float_value r f x
       | None -> bad ())
  end

(* A string value, body [line.[lo .. hi)], into field [f]. *)
let string_value r f lo hi esc =
  if f = f_k then begin
    mark r f true;
    if esc then begin
      let d = unescape r.line lo hi in
      r.k_text <- d;
      r.k_at <- 0;
      r.k_len <- String.length d
    end
    else begin
      r.k_text <- r.line;
      r.k_at <- lo;
      r.k_len <- hi - lo
    end
  end
  else if f > f_k && f < f_len then begin
    mark r f true;
    r.strs.(f) <-
      (if esc then unescape r.line lo hi else String.sub r.line lo (hi - lo))
  end
  else if f >= 0 then mark r f false

let rec members r =
  skip_ws r;
  let lo = r.pos + 1 in
  let esc = scan_string r in
  let f =
    if esc then
      let name = unescape r.line lo (r.pos - 1) in
      field_id name 0 (String.length name)
    else field_id r.line lo (r.pos - 1 - lo)
  in
  if f = f_score then r.has_score <- true;
  expect r ':';
  skip_ws r;
  if peek r = '"' then begin
    let lo = r.pos + 1 in
    let esc = scan_string r in
    string_value r f lo (r.pos - 1) esc
  end
  else number r f;
  skip_ws r;
  match peek r with
  | ',' ->
    r.pos <- r.pos + 1;
    members r
  | '}' -> r.pos <- r.pos + 1
  | _ -> bad ()

let int r f = r.ints.(f - f_len)
let num r f = Float.Array.get r.nums (f - f_score)

let result r =
  if r.ok land required <> required || r.k_len <> 16 then bad ();
  let quality =
    if not r.has_score then None
    else if r.ok land quality_fields = quality_fields then
      Some
        { q_score = num r f_score;
          q_coverage = num r f_coverage;
          q_conflicts = int r f_conflicts }
    else bad ()
  in
  ( { Key.hash = hash_of r.k_text r.k_at; len = int r f_len;
      spec = r.strs.(f_spec) },
    { e_seg = int r f_seg;
      e_off = int r f_off;
      e_len = int r f_bytes;
      e_crc = int r f_crc;
      e_meta =
        { source = r.strs.(f_src);
          grammar = r.strs.(f_grammar);
          outcome = r.strs.(f_outcome);
          domain = r.strs.(f_domain);
          quality } } )

(* [line.[lo .. hi)] is only read, and nothing returned shares it, so
   replay can hand in a window of a reused read buffer. *)
let parse_range line lo hi =
  let r =
    { line; hi; pos = lo; ok = 0; has_score = false;
      strs = Array.make (f_domain + 1) "";
      ints = Array.make (f_conflicts - f_len + 1) 0;
      nums = Float.Array.make 2 0.;
      k_text = ""; k_at = 0; k_len = 0 }
  in
  match
    expect r '{';
    skip_ws r;
    if peek r = '}' then r.pos <- r.pos + 1 else members r;
    skip_ws r;
    if r.pos <> hi then bad ();
    result r
  with
  | pair -> Some pair
  | exception Bad_line -> None

let parse_line line = parse_range line 0 (String.length line)

(* ------------------------------------------------------------------ *)
(* Store                                                              *)
(* ------------------------------------------------------------------ *)

type seg = {
  s_path : string;
  s_mutex : Mutex.t;
  mutable s_out : out_channel option;   (* lazily opened appender *)
  mutable s_in : in_channel option;     (* lazily opened reader *)
}

type t = {
  dir : string;
  segments : int;
  segs : seg array;
  manifest_path : string;
  mutable manifest_oc : out_channel option;
  man_mutex : Mutex.t;  (* guards manifest_oc and line *)
  line : Buffer.t;      (* reused for each manifest line *)
  idx_mutex : Mutex.t;  (* guards index, sources, counters, closed *)
  index : entry Key.Tbl.t;
  sources : (string, int) Hashtbl.t;  (* live entries per source *)
  mutable bytes : int;
  mutable orphaned : int;
  mutable hits : int;
  mutable misses : int;
  mutable puts : int;
  mutable replayed : int;
  mutable dropped : int;
  mutable corrupt : int;
  mutable closed : bool;
}

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

let seg_path dir i = Filename.concat dir (Printf.sprintf "seg-%03d.dat" i)

let config_path dir = Filename.concat dir "STORE"

(* The shard count is a property of the directory, not of the opener:
   entries record their segment, so reopening with a different count
   would scatter new puts across a different sharding while old seg
   ids might exceed the new array.  Persist it at creation and read it
   back forever after. *)
let read_or_write_segments dir requested =
  let path = config_path dir in
  if Sys.file_exists path then begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
         let rec scan () =
           match input_line ic with
           | line ->
             (match String.split_on_char ' ' (String.trim line) with
              | [ "segments"; v ] ->
                (match int_of_string_opt v with
                 | Some n when n >= 1 -> n
                 | _ -> requested)
              | _ -> scan ())
           | exception End_of_file -> requested
         in
         scan ())
  end
  else begin
    let oc = open_out path in
    Printf.fprintf oc "wqi_store 1\nsegments %d\n" requested;
    close_out oc;
    requested
  end

(* Accept the entry into the index (replay and put share this). *)
let index_accept t key e =
  (match Key.Tbl.find_opt t.index key with
   | Some old ->
     t.bytes <- t.bytes - old.e_len;
     t.orphaned <- t.orphaned + old.e_len;
     (match Hashtbl.find_opt t.sources old.e_meta.source with
      | Some 1 -> Hashtbl.remove t.sources old.e_meta.source
      | Some c -> Hashtbl.replace t.sources old.e_meta.source (c - 1)
      | None -> ())
   | None -> ());
  Key.Tbl.replace t.index key e;
  t.bytes <- t.bytes + e.e_len;
  Hashtbl.replace t.sources e.e_meta.source
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.sources e.e_meta.source))

(* What [String.trim] would empty ('\n' never occurs inside a line). *)
let blank s lo hi =
  let i = ref lo in
  while
    !i < hi
    && (match String.unsafe_get s !i with
        | ' ' | '\t' | '\r' | '\012' -> true
        | _ -> false)
  do incr i done;
  !i = hi

let replay_line t s lo hi =
  if not (blank s lo hi) then
    match parse_range s lo hi with
    | Some (key, e) when e.e_seg < t.segments ->
      index_accept t key e;
      t.replayed <- t.replayed + 1
    | Some _ | None -> t.dropped <- t.dropped + 1

(* The manifest is read in 64 KiB blocks and parsed line by line where
   it lies in the block; only a line that straddles two blocks is moved
   (to the front, before the next read).  A line longer than the block
   doubles it.  Blank lines are skipped without counting. *)
let replay t =
  if Sys.file_exists t.manifest_path then
    In_channel.with_open_bin t.manifest_path (fun ic ->
        let buf = ref (Bytes.create 65536) and held = ref 0 in
        let eof = ref false in
        while not !eof do
          if !held = Bytes.length !buf then buf := Bytes.extend !buf 0 !held;
          let got =
            In_channel.input ic !buf !held (Bytes.length !buf - !held)
          in
          eof := got = 0;
          held := !held + got;
          (* The parser copies what it keeps, so the block may be read
             as a string until the next read overwrites it. *)
          let s = Bytes.unsafe_to_string !buf in
          let lo = ref 0 and more = ref true in
          while !more do
            let nl = ref !lo in
            while !nl < !held && String.unsafe_get s !nl <> '\n' do
              incr nl
            done;
            if !nl < !held then begin
              replay_line t s !lo !nl;
              lo := !nl + 1
            end
            else begin
              if !eof then replay_line t s !lo !held;
              more := false
            end
          done;
          Bytes.blit !buf !lo !buf 0 (!held - !lo);
          held := !held - !lo
        done)

let open_ ?(segments = 16) dir =
  let requested = max 1 segments in
  mkdir_p dir;
  let seg_dir = Filename.concat dir "segments" in
  mkdir_p seg_dir;
  let segments = read_or_write_segments dir requested in
  let t =
    { dir;
      segments;
      segs =
        Array.init segments (fun i ->
            { s_path = seg_path seg_dir i;
              s_mutex = Mutex.create ();
              s_out = None;
              s_in = None });
      manifest_path = Filename.concat dir "manifest.jsonl";
      manifest_oc = None;
      man_mutex = Mutex.create ();
      line = Buffer.create 512;
      idx_mutex = Mutex.create ();
      index = Key.Tbl.create 1024;
      sources = Hashtbl.create 1024;
      bytes = 0;
      orphaned = 0;
      hits = 0;
      misses = 0;
      puts = 0;
      replayed = 0;
      dropped = 0;
      corrupt = 0;
      closed = false }
  in
  replay t;
  (* Replay sees only overwrites the manifest still witnesses; a
     compacted manifest forgets them while the dead segment bytes
     remain.  The ground truth at open is segment file size minus live
     bytes — that also counts a crashed writer's value-without-manifest
     tail.  Keep whichever is larger, then accumulate live overwrites
     on top. *)
  let seg_file_bytes =
    Array.fold_left
      (fun acc seg ->
         if Sys.file_exists seg.s_path then begin
           let ic = open_in_bin seg.s_path in
           let len = in_channel_length ic in
           close_in_noerr ic;
           acc + len
         end
         else acc)
      0 t.segs
  in
  t.orphaned <- max t.orphaned (seg_file_bytes - t.bytes);
  t

let dir t = t.dir

(* Lock the index mutex, failing cleanly (lock released) on a closed
   store.  Every public operation enters through this. *)
let lock_open t =
  Mutex.lock t.idx_mutex;
  if t.closed then begin
    Mutex.unlock t.idx_mutex;
    invalid_arg "Wqi_store.Store: store is closed"
  end

let shard_of t (k : Key.t) =
  Int64.to_int k.Key.hash land max_int mod t.segments

(* seg mutex held *)
(* NOT [Open_append]: an append-mode channel reports [pos_out] from 0
   regardless of the existing file size, so a store reopened over a
   non-empty segment would record offset 0 for bytes the kernel lands
   at the real end — every resumed put unreadable.  The explicit
   seek-to-end keeps [pos_out] equal to the on-disk offset; the
   per-segment mutex already serializes writers. *)
let seg_appender seg =
  match seg.s_out with
  | Some oc -> oc
  | None ->
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 seg.s_path
    in
    seek_out oc (out_channel_length oc);
    seg.s_out <- Some oc;
    oc

(* seg mutex held *)
let seg_reader seg =
  match seg.s_in with
  | Some ic -> ic
  | None ->
    let ic = open_in_bin seg.s_path in
    seg.s_in <- Some ic;
    ic

let manifest_appender t =
  match t.manifest_oc with
  | Some oc -> oc
  | None ->
    let oc =
      open_out_gen
        [ Open_append; Open_creat; Open_binary ]
        0o644 t.manifest_path
    in
    t.manifest_oc <- Some oc;
    oc

(* man_mutex held *)
let output_line t oc k e =
  Buffer.clear t.line;
  add_line t.line k e;
  Buffer.add_char t.line '\n';
  Buffer.output_buffer oc t.line

let mem t k =
  lock_open t;
  let r = Key.Tbl.mem t.index k in
  Mutex.unlock t.idx_mutex;
  r

let meta t k =
  lock_open t;
  let r = Option.map (fun e -> e.e_meta) (Key.Tbl.find_opt t.index k) in
  Mutex.unlock t.idx_mutex;
  r

(* Read the value bytes for [e]; None on any I/O shortfall. *)
let read_value t e =
  let seg = t.segs.(e.e_seg) in
  Mutex.lock seg.s_mutex;
  let r =
    match
      (* The appender flushes before the entry is published, so a
         separate read descriptor always sees the full value. *)
      let ic = seg_reader seg in
      seek_in ic e.e_off;
      really_input_string ic e.e_len
    with
    | v -> Some v
    | exception (End_of_file | Sys_error _) -> None
  in
  Mutex.unlock seg.s_mutex;
  r

let drop_corrupt t k e =
  Mutex.lock t.idx_mutex;
  (match Key.Tbl.find_opt t.index k with
   | Some cur when cur.e_seg = e.e_seg && cur.e_off = e.e_off ->
     t.bytes <- t.bytes - cur.e_len;
     t.orphaned <- t.orphaned + cur.e_len;
     Key.Tbl.remove t.index k;
     (match Hashtbl.find_opt t.sources cur.e_meta.source with
      | Some 1 -> Hashtbl.remove t.sources cur.e_meta.source
      | Some c -> Hashtbl.replace t.sources cur.e_meta.source (c - 1)
      | None -> ())
   | _ -> ());
  t.corrupt <- t.corrupt + 1;
  Mutex.unlock t.idx_mutex

let find_entry t k =
  lock_open t;
  let entry = Key.Tbl.find_opt t.index k in
  (match entry with
   | None -> t.misses <- t.misses + 1
   | Some _ -> ());
  Mutex.unlock t.idx_mutex;
  match entry with
  | None -> None
  | Some e ->
    (match read_value t e with
     | Some v when Crc32.digest v = e.e_crc ->
       Mutex.lock t.idx_mutex;
       t.hits <- t.hits + 1;
       Mutex.unlock t.idx_mutex;
       Some (e.e_meta, v)
     | Some _ | None ->
       (* Torn or rewritten segment bytes: forget the entry so the
          caller re-extracts; never serve unverified bytes. *)
       drop_corrupt t k e;
       None)

let find t k = Option.map snd (find_entry t k)

let put t k ~meta value =
  lock_open t;
  Mutex.unlock t.idx_mutex;
  let si = shard_of t k in
  let seg = t.segs.(si) in
  (* 1. value bytes, flushed *)
  Mutex.lock seg.s_mutex;
  let off, crc =
    match
      let oc = seg_appender seg in
      let off = pos_out oc in
      output_string oc value;
      flush oc;
      off
    with
    | off -> (off, Crc32.digest value)
    | exception e ->
      Mutex.unlock seg.s_mutex;
      raise e
  in
  Mutex.unlock seg.s_mutex;
  let e =
    { e_seg = si; e_off = off; e_len = String.length value; e_crc = crc;
      e_meta = meta }
  in
  (* 2. manifest line, flushed — the durability point *)
  Mutex.lock t.man_mutex;
  (match
     let oc = manifest_appender t in
     output_line t oc k e;
     flush oc
   with
   | () -> Mutex.unlock t.man_mutex
   | exception ex ->
     Mutex.unlock t.man_mutex;
     raise ex);
  (* 3. publish *)
  Mutex.lock t.idx_mutex;
  index_accept t k e;
  t.puts <- t.puts + 1;
  Mutex.unlock t.idx_mutex

let source_known t source =
  lock_open t;
  let r = Hashtbl.mem t.sources source in
  Mutex.unlock t.idx_mutex;
  r

let iter t f =
  lock_open t;
  let snapshot =
    Key.Tbl.fold (fun k e acc -> (k, e.e_meta) :: acc) t.index []
  in
  Mutex.unlock t.idx_mutex;
  List.iter (fun (k, m) -> f k m) snapshot

type stats = {
  entries : int;
  bytes : int;
  orphaned_bytes : int;
  segments : int;
  hits : int;
  misses : int;
  puts : int;
  replayed : int;
  dropped : int;
  corrupt : int;
}

let stats t =
  Mutex.lock t.idx_mutex;
  let s =
    { entries = Key.Tbl.length t.index;
      bytes = t.bytes;
      orphaned_bytes = t.orphaned;
      segments = t.segments;
      hits = t.hits;
      misses = t.misses;
      puts = t.puts;
      replayed = t.replayed;
      dropped = t.dropped;
      corrupt = t.corrupt }
  in
  Mutex.unlock t.idx_mutex;
  s

let flush t =
  Array.iter
    (fun seg ->
       Mutex.lock seg.s_mutex;
       (match seg.s_out with Some oc -> flush oc | None -> ());
       Mutex.unlock seg.s_mutex)
    t.segs;
  Mutex.lock t.man_mutex;
  (match t.manifest_oc with Some oc -> Stdlib.flush oc | None -> ());
  Mutex.unlock t.man_mutex

(* Compaction: one line per live key, ordered by storage position so
   the rewrite is deterministic for a given index state.  The rename is
   the commit point — a crash before it leaves the (longer, still
   valid) append-order manifest in place. *)
let compact_manifest t entries =
  let tmp = t.manifest_path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     List.iter (fun (k, e) -> output_line t oc k e) entries;
     Stdlib.flush oc;
     close_out oc
   with
   | () -> Sys.rename tmp t.manifest_path
   | exception ex ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise ex)

let close t =
  Mutex.lock t.idx_mutex;
  if t.closed then Mutex.unlock t.idx_mutex
  else begin
    t.closed <- true;
    let entries = Key.Tbl.fold (fun k e acc -> (k, e) :: acc) t.index [] in
    Mutex.unlock t.idx_mutex;
    let entries =
      List.sort
        (fun (_, a) (_, b) ->
           match Int.compare a.e_seg b.e_seg with
           | 0 -> Int.compare a.e_off b.e_off
           | c -> c)
        entries
    in
    Mutex.lock t.man_mutex;
    (match t.manifest_oc with
     | Some oc ->
       close_out_noerr oc;
       t.manifest_oc <- None
     | None -> ());
    compact_manifest t entries;
    Mutex.unlock t.man_mutex;
    Array.iter
      (fun seg ->
         Mutex.lock seg.s_mutex;
         (match seg.s_out with
          | Some oc -> close_out_noerr oc; seg.s_out <- None
          | None -> ());
         (match seg.s_in with
          | Some ic -> close_in_noerr ic; seg.s_in <- None
          | None -> ());
         Mutex.unlock seg.s_mutex)
      t.segs
  end
