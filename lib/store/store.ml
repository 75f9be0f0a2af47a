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

(* Floats (quality score/coverage) render integer-valued without a
   decimal point; the parser accepts both forms. *)
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
  man_mutex : Mutex.t;
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

let replay t =
  if Sys.file_exists t.manifest_path then begin
    let ic = open_in_bin t.manifest_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
         let rec go () =
           match input_line ic with
           | exception End_of_file -> ()
           | line ->
             (if String.trim line <> "" then
                match parse_line line with
                | Some (key, e) when e.e_seg < t.segments ->
                  index_accept t key e;
                  t.replayed <- t.replayed + 1
                | Some _ | None -> t.dropped <- t.dropped + 1);
             go ()
         in
         go ())
  end

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
     output_string oc (render_line k e);
     output_char oc '\n';
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
     List.iter
       (fun (k, e) ->
          output_string oc (render_line k e);
          output_char oc '\n')
       entries;
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
