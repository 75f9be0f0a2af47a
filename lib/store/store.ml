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

(* One JSON object per line, written and read through [Json]: this
   module owns only the schema.  Any line that fails to parse — a torn
   tail from a crashed writer, a stray editor artifact, a number that
   overflows to infinity — is dropped and counted, never fatal. *)

module Json = Wqi_json.Json

type entry = {
  e_seg : int;
  e_off : int;
  e_len : int;   (* value byte count *)
  e_crc : int;
  e_meta : meta;
}

(* --- writer ------------------------------------------------------- *)

let add_line b (k : Key.t) e =
  let str = Json.add_string and int = Json.add_int in
  Buffer.add_string b "{\"k\":\"";
  for i = 15 downto 0 do
    Buffer.add_char b
      "0123456789abcdef".[Int64.to_int
                            (Int64.shift_right_logical k.Key.hash (4 * i))
                          land 15]
  done;
  Buffer.add_string b "\",\"len\":";
  int b k.Key.len;
  Buffer.add_string b ",\"spec\":";
  str b k.Key.spec;
  Buffer.add_string b ",\"seg\":";
  int b e.e_seg;
  Buffer.add_string b ",\"off\":";
  int b e.e_off;
  Buffer.add_string b ",\"bytes\":";
  int b e.e_len;
  Buffer.add_string b ",\"crc\":";
  int b e.e_crc;
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
     Json.add_float b q.q_score;
     Buffer.add_string b ",\"coverage\":";
     Json.add_float b q.q_coverage;
     Buffer.add_string b ",\"conflicts\":";
     int b q.q_conflicts);
  Buffer.add_char b '}'

let render_line k e =
  let b = Buffer.create 256 in
  add_line b k e;
  Buffer.contents b

(* --- reader ------------------------------------------------------- *)

(* Each member's value lands in its field's slot, so a duplicated key's
   last value is the one that counts, whatever kind it is; unknown keys
   are skipped once [Json] has checked their value.  Field ids are the
   indices of [names], in the order [add_line] writes them, which is the
   order [Json] guesses them in; [member] matches on them as literals. *)
let names =
  [| "k"; "len"; "spec"; "seg"; "off"; "bytes"; "crc"; "src"; "grammar";
     "outcome"; "domain"; "score"; "coverage"; "conflicts" |]

let f_score = 11

let required = 0x7ff         (* k .. domain *)
let quality_fields = 0x3800  (* score, coverage, conflicts *)
let score_seen = 0x4000      (* a "score" key occurred, of any kind *)

(* The grammar, outcome and domain values that repeat from line to line,
   kept once: a value equal to one of [seen] is that string, not a new
   copy.  Replay shares one pool over its lines; at most [pool_max]
   values are kept, so a manifest of distinct values costs a bounded
   scan per line. *)
type pool = { mutable seen : string list; mutable kept : int }

let pool_max = 64

(* A pool that keeps nothing: [parse_line] reads one line. *)
let no_pool = { seen = []; kept = pool_max }

(* One mutable field per member, so a line costs one record of slots. *)
type slots = {
  pool : pool;
  mutable ok : int;  (* bit f: field f's last value was of its kind *)
  mutable k_text : string;  (* the last "k": 16 bytes of [k_text] *)
  mutable k_at : int;       (* from [k_at] *)
  mutable spec : string;
  mutable src : string;
  mutable grammar : string;
  mutable outcome : string;
  mutable domain : string;
  mutable len : int;
  mutable seg : int;
  mutable off : int;
  mutable bytes : int;
  mutable crc : int;
  mutable conflicts : int;
  mutable score : float;
  mutable coverage : float;
}

let slots pool =
  { pool; ok = 0; k_text = ""; k_at = 0; spec = ""; src = ""; grammar = "";
    outcome = ""; domain = ""; len = 0; seg = 0; off = 0; bytes = 0;
    crc = 0; conflicts = 0; score = 0.; coverage = 0. }

let[@inline] bad () = raise_notrace Json.Malformed

(* [Json]'s, repeated so that the per-digit loop below makes no call
   across libraries. *)
let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* The 16 digits of a key hash, read as [Int64.of_string] reads them
   after a "0x": the first a digit, each later one a digit or an
   ignored '_'. *)
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

(* The "k" string is kept as a window of the line when it holds no
   escape; it is of its kind when it is 16 bytes long. *)
let key_text s (r : Json.reader) =
  if r.esc then begin
    let d = Json.string_value r in
    s.k_text <- d;
    s.k_at <- 0;
    String.length d = 16
  end
  else begin
    s.k_text <- r.src;
    s.k_at <- r.lo;
    r.stop - r.lo = 16
  end

(* [Json]'s [same], repeated for the reason [hex_digit] is. *)
let rec same_at src at v j =
  j = String.length v
  || (String.unsafe_get src (at + j) = String.unsafe_get v j
      && same_at src at v (j + 1))

let rec find_shared p src at len = function
  | v :: rest ->
    if String.length v = len && same_at src at v 0 then v
    else find_shared p src at len rest
  | [] ->
    let v = String.sub src at len in
    if p.kept < pool_max then begin
      p.seen <- v :: p.seen;
      p.kept <- p.kept + 1
    end;
    v

(* The last string's value, from the pool when it holds no escape. *)
let shared s (r : Json.reader) =
  if r.esc then Json.string_value r
  else find_shared s.pool r.src r.lo (r.stop - r.lo) s.pool.seen

let member s (r : Json.reader) f =
  if f >= 0 then begin
    let good =
      match r.kind with
      | Json.Str ->
        (match f with
         | 0 -> key_text s r
         | 2 -> s.spec <- Json.string_value r; true
         | 7 -> s.src <- Json.string_value r; true
         | 8 -> s.grammar <- shared s r; true
         | 9 -> s.outcome <- shared s r; true
         | 10 -> s.domain <- shared s r; true
         | _ -> false)
      | Json.Int ->
        let v = r.int in
        (match f with
         | 1 -> s.len <- v; v >= 0
         | 3 -> s.seg <- v; v >= 0
         | 4 -> s.off <- v; v >= 0
         | 5 -> s.bytes <- v; v >= 0
         | 6 -> s.crc <- v; v >= 0
         | 11 -> s.score <- float_of_int v; true
         | 12 -> s.coverage <- float_of_int v; true
         | 13 -> s.conflicts <- v; v >= 0
         | _ -> false)
      | Json.Num ->
        (match f with
         | 11 -> s.score <- r.num; true
         | 12 -> s.coverage <- r.num; true
         | _ -> false)
    in
    let bit = 1 lsl f in
    s.ok <- (if good then s.ok lor bit else s.ok land lnot bit);
    if f = f_score then s.ok <- s.ok lor score_seen
  end

let key s =
  if s.ok land required <> required then bad ();
  { Key.hash = hash_of s.k_text s.k_at; len = s.len; spec = s.spec }

(* Called after [key], which checked the required fields. *)
let entry s =
  let quality =
    if s.ok land score_seen = 0 then None
    else if s.ok land quality_fields = quality_fields then
      Some
        { q_score = s.score; q_coverage = s.coverage;
          q_conflicts = s.conflicts }
    else bad ()
  in
  { e_seg = s.seg;
    e_off = s.off;
    e_len = s.bytes;
    e_crc = s.crc;
    e_meta =
      { source = s.src;
        grammar = s.grammar;
        outcome = s.outcome;
        domain = s.domain;
        quality } }

let parse_line line =
  let s = slots no_pool in
  match
    Json.read_object names member s line 0 (String.length line);
    let k = key s in
    (k, entry s)
  with
  | pair -> Some pair
  | exception Json.Malformed -> None

(* ------------------------------------------------------------------ *)
(* Segments                                                           *)
(* ------------------------------------------------------------------ *)

(* A segment file is read through two paths and written through one
   descriptor, all under the segment's mutex:

   - the bytes it held at open are mapped once, read-only (segment
     files only grow, so the mapping never changes under a reader), and
     a value inside the mapping is one copy out of it;
   - a value appended by this session lies past the mapping and is read
     with one exact-length [pread];
   - a put is one [write] on the descriptor, opened [O_APPEND], at
     [s_end], the file's end as this session tracks it.

   [close] unmaps and closes under the mutex, and zeroes [s_mapped], so
   a read that races it finds nothing to copy. *)

external seg_map : Unix.file_descr -> int -> int = "wqi_seg_map" [@@noalloc]
external seg_unmap : int -> int -> unit = "wqi_seg_unmap" [@@noalloc]
external seg_copy : int -> int -> int -> string = "wqi_seg_copy"
external seg_pread : Unix.file_descr -> int -> int -> string = "wqi_seg_pread"

type seg = {
  s_path : string;
  s_mutex : Mutex.t;
  mutable s_fd : Unix.file_descr option;  (* None until the file exists *)
  mutable s_end : int;     (* the file's size: the next append's offset *)
  mutable s_map : int;     (* address of the mapping *)
  mutable s_mapped : int;  (* bytes mapped at open; 0 when none *)
}

let seg_flags = Unix.[ O_RDWR; O_APPEND; O_CLOEXEC ]

let unix_error path e = raise (Sys_error (path ^ ": " ^ Unix.error_message e))

(* The segment as its file stands at open: mapped when it has bytes. *)
let seg_open path =
  let seg =
    { s_path = path; s_mutex = Mutex.create (); s_fd = None; s_end = 0;
      s_map = 0; s_mapped = 0 }
  in
  (match Unix.openfile path seg_flags 0 with
   | fd ->
     let size = (Unix.fstat fd).Unix.st_size in
     seg.s_fd <- Some fd;
     seg.s_end <- size;
     if size > 0 then begin
       seg.s_map <- seg_map fd size;
       if seg.s_map <> 0 then seg.s_mapped <- size
     end
   | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
   | exception Unix.Unix_error (e, _, _) -> unix_error path e);
  seg

(* seg mutex held *)
let seg_fd seg =
  match seg.s_fd with
  | Some fd -> fd
  | None ->
    let fd =
      try Unix.openfile seg.s_path (Unix.O_CREAT :: seg_flags) 0o644
      with Unix.Unix_error (e, _, _) -> unix_error seg.s_path e
    in
    seg.s_fd <- Some fd;
    seg.s_end <- Unix.lseek fd 0 Unix.SEEK_END;
    fd

(* Append [value] and return its offset.  After a failed or partial
   write the end is read back from the file, so the next append's
   offset is right whatever landed. *)
let seg_append seg value =
  Mutex.lock seg.s_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock seg.s_mutex) @@ fun () ->
  let fd = seg_fd seg in
  let off = seg.s_end in
  (try ignore (Unix.write_substring fd value 0 (String.length value))
   with Unix.Unix_error (e, _, _) ->
     (try seg.s_end <- Unix.lseek fd 0 Unix.SEEK_END
      with Unix.Unix_error _ -> ());
     unix_error seg.s_path e);
  seg.s_end <- off + String.length value;
  off

(* The [len] bytes at [off]; None when they are not all in the file. *)
let seg_read seg off len =
  Mutex.lock seg.s_mutex;
  let r =
    if len <= seg.s_mapped && off <= seg.s_mapped - len then
      Some (seg_copy seg.s_map off len)
    else
      match seg.s_fd with
      | Some fd when len <= seg.s_end && off <= seg.s_end - len ->
        (match seg_pread fd off len with
         | v -> Some v
         | exception (End_of_file | Sys_error _) -> None)
      | Some _ | None -> None
  in
  Mutex.unlock seg.s_mutex;
  r

let seg_close seg =
  Mutex.lock seg.s_mutex;
  if seg.s_map <> 0 then seg_unmap seg.s_map seg.s_mapped;
  seg.s_map <- 0;
  seg.s_mapped <- 0;
  (match seg.s_fd with
   | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  seg.s_fd <- None;
  Mutex.unlock seg.s_mutex

(* ------------------------------------------------------------------ *)
(* Store                                                              *)
(* ------------------------------------------------------------------ *)

(* Live entries per source. *)
module Sources = Hashtbl.Make (String)

type t = {
  dir : string;
  segments : int;
  segs : seg array;
  manifest_path : string;
  mutable manifest_oc : out_channel option;
  man_mutex : Mutex.t;  (* guards manifest_oc, line and unterminated *)
  line : Buffer.t;      (* reused for each manifest line *)
  mutable unterminated : bool;
      (* the manifest's last byte at replay was not a newline: the next
         append ends that line first *)
  idx_mutex : Mutex.t;  (* guards index, sources, counters, closed *)
  index : entry Key.Tbl.t;
  sources : int Sources.t;
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

let forget_source t source =
  match Sources.find_opt t.sources source with
  | Some 1 -> Sources.remove t.sources source
  | Some c -> Sources.replace t.sources source (c - 1)
  | None -> ()

(* Accept the entry into the index (replay and put share this). *)
let index_accept t key e =
  (match Key.Tbl.find_opt t.index key with
   | Some old ->
     t.bytes <- t.bytes - old.e_len;
     t.orphaned <- t.orphaned + old.e_len;
     forget_source t old.e_meta.source
   | None -> ());
  Key.Tbl.replace t.index key e;
  t.bytes <- t.bytes + e.e_len;
  let source = e.e_meta.source in
  match Sources.find_opt t.sources source with
  | Some c -> Sources.replace t.sources source (c + 1)
  | None -> Sources.add t.sources source 1

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

let drop t = t.dropped <- t.dropped + 1

(* The lines of [s.[lo .. held)] from [lo], each read by
   [Json.read_line], which finds the line's end as it reads; the index
   of the first line left for the next block is returned.  [read_line]
   rejects a line exactly when [Json.read_object] over the line alone
   would, so a rejected line is found by its newline and is skipped when
   blank, else dropped. *)
let rec replay_lines t pool s lo held eof =
  if lo >= held then held
  else
    let sl = slots pool in
    match Json.read_line names member sl s lo held with
    | nl when nl = held && not eof -> lo
    | nl ->
      (match
         let k = key sl in
         let e = entry sl in
         if e.e_seg < t.segments then begin
           index_accept t k e;
           t.replayed <- t.replayed + 1
         end
         else drop t
       with
       | () -> ()
       | exception Json.Malformed -> drop t);
      replay_lines t pool s (nl + 1) held eof
    | exception Json.Malformed ->
      (match String.index_from_opt s lo '\n' with
       | Some nl when nl < held ->
         if not (blank s lo nl) then drop t;
         replay_lines t pool s (nl + 1) held eof
       | Some _ | None ->
         if eof then begin
           if not (blank s lo held) then drop t;
           held
         end
         else lo)

(* The manifest is read from [ic] in 64 KiB blocks and parsed line by
   line where it lies in the block; only a line that straddles two
   blocks is moved (to the front, before the next read).  A line longer
   than the block doubles it.  Blank lines are skipped without
   counting. *)
let replay t ic =
  let pool = { seen = []; kept = 0 } in
  let buf = ref (Bytes.create 65536) and held = ref 0 and eof = ref false in
  while not !eof do
    if !held = Bytes.length !buf then buf := Bytes.extend !buf 0 !held;
    let got = In_channel.input ic !buf !held (Bytes.length !buf - !held) in
    eof := got = 0;
    held := !held + got;
    if got > 0 then t.unterminated <- Bytes.get !buf (!held - 1) <> '\n';
    (* The parser copies what it keeps, so the block may be read as a
       string until the next read overwrites it. *)
    let lo = replay_lines t pool (Bytes.unsafe_to_string !buf) 0 !held !eof in
    Bytes.blit !buf lo !buf 0 (!held - lo);
    held := !held - lo
  done

let open_ ?(segments = 16) dir =
  let requested = max 1 segments in
  mkdir_p dir;
  let seg_dir = Filename.concat dir "segments" in
  mkdir_p seg_dir;
  let segments = read_or_write_segments dir requested in
  let manifest_path = Filename.concat dir "manifest.jsonl" in
  (* Tables sized for the manifest's lines (about 200 to 260 bytes
     each), so replay does not grow them as it goes. *)
  let size =
    match Unix.stat manifest_path with
    | st -> max 1024 (st.Unix.st_size / 256)
    | exception Unix.Unix_error _ -> 1024
  in
  let t =
    { dir;
      segments;
      segs = Array.init segments (fun i -> seg_open (seg_path seg_dir i));
      manifest_path;
      manifest_oc = None;
      man_mutex = Mutex.create ();
      line = Buffer.create 512;
      unterminated = false;
      idx_mutex = Mutex.create ();
      index = Key.Tbl.create size;
      sources = Sources.create size;
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
  if Sys.file_exists manifest_path then
    In_channel.with_open_bin manifest_path (replay t);
  (* Replay sees only overwrites the manifest still witnesses; a
     compacted manifest forgets them while the dead segment bytes
     remain.  The ground truth at open is segment file size minus live
     bytes — that also counts a crashed writer's value-without-manifest
     tail.  Keep whichever is larger, then accumulate live overwrites
     on top. *)
  let seg_file_bytes = Array.fold_left (fun acc seg -> acc + seg.s_end) 0 t.segs in
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

let drop_corrupt t k e =
  Mutex.lock t.idx_mutex;
  (match Key.Tbl.find_opt t.index k with
   | Some cur when cur.e_seg = e.e_seg && cur.e_off = e.e_off ->
     t.bytes <- t.bytes - cur.e_len;
     t.orphaned <- t.orphaned + cur.e_len;
     Key.Tbl.remove t.index k;
     forget_source t cur.e_meta.source
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
    (* A put writes the value before it publishes the entry, so a
       published entry's bytes are all in the file. *)
    (match seg_read t.segs.(e.e_seg) e.e_off e.e_len with
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
  (* 1. value bytes, written *)
  let off = seg_append seg value in
  let e =
    { e_seg = si; e_off = off; e_len = String.length value;
      e_crc = Crc32.digest value; e_meta = meta }
  in
  (* 2. manifest line, flushed — the durability point *)
  Mutex.lock t.man_mutex;
  (match
     let oc = manifest_appender t in
     if t.unterminated then begin
       output_char oc '\n';
       t.unterminated <- false
     end;
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
  let r = Sources.mem t.sources source in
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
    (* A session that put nothing and dropped no corrupt entry leaves
       the manifest as it found it, bytes and inode, even when replay
       dropped a line or met a key twice: another process may be
       appending to it. *)
    let unchanged = t.puts = 0 && t.corrupt = 0 in
    let entries =
      if unchanged then []
      else Key.Tbl.fold (fun k e acc -> (k, e) :: acc) t.index []
    in
    Mutex.unlock t.idx_mutex;
    Mutex.lock t.man_mutex;
    (match t.manifest_oc with
     | Some oc ->
       close_out_noerr oc;
       t.manifest_oc <- None
     | None -> ());
    Fun.protect
      ~finally:(fun () ->
          Mutex.unlock t.man_mutex;
          Array.iter seg_close t.segs)
      (fun () ->
         if not unchanged then
           compact_manifest t
             (List.sort
                (fun (_, a) (_, b) ->
                   match Int.compare a.e_seg b.e_seg with
                   | 0 -> Int.compare a.e_off b.e_off
                   | c -> c)
                entries))
  end
