(** Persistent content-addressed store of extraction results.

    The durable tier under [wqi_batch], [wqi_crawl] and [wqi_serve]: a
    document whose HTML and grammar have not changed is answered from
    here instead of re-extracted, across runs and restarts.  Keys are
    the {!Key} fingerprints the serve cache uses too (normalized HTML ⊕
    budget spec ⊕ grammar name@version), values are the deterministic
    Export-v2 wire bytes ([Extractor.export ~timings:false]), so a
    store hit is byte-identical to a fresh extraction and can be served
    — or emitted by a resumed batch — without re-running the pipeline.
    All three fronts probe through {!find_entry}, in the shared
    ingestion step [Wqi_quality.Ingest], so every hit they use is
    CRC-verified.

    {b On-disk layout.}  A store directory holds

    - [segments/seg-NNN.dat] — append-only value segments, sharded by
      key fingerprint so concurrent writers (serve's handler domains)
      rarely contend on one file;
    - [manifest.jsonl] — an append-only manifest, one JSON object per
      completed put: key (hash/len/spec), segment, offset, byte count,
      CRC-32 of the value bytes, plus provenance (source path or URL,
      grammar name@version, outcome, crawl-classified domain).

    {b Read path.}  Segments are append-only: the store never shrinks
    or rewrites a segment file.  {!open_} opens each existing segment
    once and maps, read-only and shared, the bytes it holds at that
    moment; the mapping is never remapped, so no reader sees it
    change.  A value inside the mapping is one copy into a fresh
    string, with no system call.  A value this session appended lies
    past the mapping and is read with one exact-length [pread].  A
    range that runs past the file's end reads as a miss.  A put is one
    [write] at the segment's end offset, which the store tracks under
    the segment's mutex.  Truncating a segment file under a live store
    is outside the contract: a read of the lost pages of its mapping
    faults with SIGBUS.  A future compaction must therefore write new
    segments, never shrink mapped ones.  Truncation between sessions
    is inside it: the entries past the cut read as misses.

    {b Crash safety.}  A put appends and flushes the value bytes
    {i before} appending and flushing its manifest line, so a crash
    (including [kill -9]) between the two leaves only orphaned segment
    bytes that no manifest line references.  {!open_} replays the
    manifest and {b drops, rather than fails on,} any line that does
    not parse — in particular a torn final line from a crashed writer —
    counting it in [stats.dropped].  Values are CRC-checked on read;
    a corrupt value is dropped from the index and reads as a miss, so
    the worst case of any corruption is a re-extraction, never a wrong
    answer.  {!close} compacts the manifest (latest entry per key,
    written to a temp file and renamed over — the rename is the commit
    point) only when the session put something or dropped a corrupt
    entry.  A read-only session ([wqi_report STORE], a resumed batch
    that only hits) leaves the manifest's bytes and inode alone even
    when replay dropped a line, so another process appending to it
    meanwhile keeps writing to the file the next open reads.  A torn
    final line therefore outlives read-only sessions; when replay's
    last line had no newline, the session's first put writes one
    before its own line, so the put is not glued to the fragment and
    replays even if the writer dies before {!close}.  Segment bytes
    orphaned by overwrites are reclaimed only by [segments/*] deletion
    alongside a fresh manifest, which the store never does on its
    own.

    The checksum is {!Crc32}, a C stub computed by {!put} and checked
    by every {!find}: a carry-less-multiply (PCLMULQDQ) kernel on
    x86-64 CPUs that have one, slicing-by-8 tables elsewhere and for
    values under 64 bytes.  Its tables are built, and its path chosen,
    when the program is loaded, because a lazily built table raised
    when two domains made their first lookups at once.

    {b Manifest codec.}  The JSON syntax is {!Wqi_json.Json}'s, and this
    module holds only the schema: field ids, one record of slots per
    line, the required fields and the key's hash.  {!open_} reads the
    manifest in 64 KiB blocks and reads each line where it lies in the
    block with {!Wqi_json.Json.read_line}, which finds the line's end
    as it parses, so the bytes are passed over once; a line it rejects
    (malformed, blank, or cut by the block's end) is then found by its
    newline and read on its own, so it is dropped, skipped or carried
    to the next block exactly as before.  Each member's value lands in
    its field's slot (a jump on the field id); a string value is one
    [String.sub] unless it holds an escape, except that the grammar,
    outcome and domain values, which repeat from line to line, are
    shared through a pool of at most 64 strings per replay; plain
    integers, fractions such as the written scores (Clinger's exact
    fast path, {!Wqi_json.Json}) and the key's 16 hex digits are
    decoded without a substring.  The index and the per-source table
    are sized from the manifest's length, so replay does not grow
    them.  On a 3000-line, 783 KB manifest of the ingest-warm mix, an
    open allocates 76 minor words per line and takes about 4.8 ms in
    [bench/main.exe startup] and 3.9 ms in perfbench ingest-warm on a
    2-vCPU host (95 words and 9.0 and 7.6 ms before these changes):
    about 2.5 ms of parsing, then the index inserts, the reads and the
    promotion of what the index keeps.  {!put}
    and {!close} write each line into one reused buffer.  The reader accepts and rejects the lines the earlier
    [List.assoc]-based reader did, except that a number which overflows
    to infinity (["score":1e999]) now makes its line malformed; the
    writer emits the same bytes as the earlier [Printf] one, so
    manifests of either build replay under the other ({!parse_line},
    {!render_line}).

    {b Concurrency.}  All operations are safe from concurrent threads
    and domains of one process (per-segment mutexes for value I/O and
    the mapping's lifetime, one mutex each for the manifest and the
    index).  The index is a
    {!Key.Tbl}, the table type the serve cache's shards use too.  The
    store is not coordinated across processes — one writer process at
    a time. *)

type t

type quality = {
  q_score : float;     (** scalar quality score, [Wqi_quality] scale *)
  q_coverage : float;  (** token coverage ratio *)
  q_conflicts : int;   (** conflict errors the merger reported *)
}
(** Headline extraction-quality fields, persisted per entry so a
    reopened store can be rolled up by [wqi_report] without re-running
    any extraction. *)

type meta = {
  source : string;   (** path or URL the bytes were extracted from *)
  grammar : string;  (** grammar identity, [name@version] *)
  outcome : string;  (** ["complete"] or ["degraded"] — failed
                         extractions are never stored, so a crash or
                         grammar fix retries them *)
  domain : string;   (** crawl-classified domain; [""] when unknown *)
  quality : quality option;
      (** [None] on entries written before quality records existed —
          old manifests replay with [quality = None], never fail *)
}

(** {1 Manifest lines}

    The manifest codec, exposed so its tests can hold it to a reference.
    A line is one JSON object:
    [{"k":HEX16,"len":N,"spec":S,"seg":N,"off":N,"bytes":N,"crc":N,
    "src":S,"grammar":S,"outcome":S,"domain":S}], with
    [,"score":F,"coverage":F,"conflicts":N] before the brace when the
    entry has a quality record.  The writer emits exactly that; the
    reader takes any member order, spaces and tabs between tokens,
    JSON escapes ([\u] up to [00ff]), unknown members (skipped) and
    duplicated ones (the last counts).  A line with a non-finite number
    anywhere is malformed. *)

type entry = {
  e_seg : int;   (** segment shard *)
  e_off : int;   (** byte offset of the value in its segment *)
  e_len : int;   (** value byte count *)
  e_crc : int;   (** {!Crc32.digest} of the value bytes *)
  e_meta : meta;
}

val render_line : Key.t -> entry -> string
(** The manifest line for an entry, without its newline. *)

val parse_line : string -> (Key.t * entry) option
(** The entry a manifest line records; [None] when the line is not one
    (torn, edited, or missing a field).  Never raises. *)

type stats = {
  entries : int;   (** live keys *)
  bytes : int;     (** live value bytes (excludes orphaned bytes) *)
  orphaned_bytes : int;
      (** dead segment bytes: values superseded by overwrites, dropped
          as corrupt, or left by a writer that crashed between value
          and manifest append.  Measured at {!open_} as segment file
          size minus live bytes (so compaction of the manifest does not
          hide them) and accumulated as the process overwrites; the
          gauge a future segment collector will drain. *)
  segments : int;  (** segment shard count *)
  hits : int;      (** {!find}/{!find_entry} calls answered *)
  misses : int;    (** lookups for absent keys *)
  puts : int;
  replayed : int;  (** manifest lines accepted at {!open_} *)
  dropped : int;   (** malformed/torn manifest lines dropped at {!open_} *)
  corrupt : int;   (** reads that failed CRC/length verification *)
}

val open_ : ?segments:int -> string -> t
(** [open_ dir] creates [dir] (and [dir/segments]) if missing, replays
    the manifest, and opens and maps the existing segments (a segment
    file is created at its first put).  [segments]
    (default 16, clamped to ≥ 1) is fixed at directory creation: an
    existing store keeps the shard count it was created with.  Raises
    [Sys_error] when the directory cannot be created or opened. *)

val dir : t -> string

val mem : t -> Key.t -> bool
(** Index-only membership — no I/O, no stat movement. *)

val find : t -> Key.t -> string option
(** Read and CRC-verify the value bytes.  A failed verification drops
    the entry (counted in [stats.corrupt]) and returns [None]. *)

val find_entry : t -> Key.t -> (meta * string) option
(** {!find} plus the entry's provenance. *)

val put : t -> Key.t -> meta:meta -> string -> unit
(** Append the value and its manifest line, then publish the key in the
    index.  Re-putting a key replaces its entry (the old value bytes
    become orphans until a fresh-manifest rebuild). *)

val source_known : t -> string -> bool
(** Whether any live entry was extracted from [source] — how a resumed
    batch distinguishes a {i changed} document (source known, key
    absent: HTML or grammar moved, re-extract) from a {i new} one. *)

val iter : t -> (Key.t -> meta -> unit) -> unit
(** Visit every live entry (no value I/O).  Snapshot semantics: entries
    put concurrently with the iteration may or may not be visited. *)

val stats : t -> stats

val flush : t -> unit
(** Flush the manifest channel (puts already flush, and segment writes
    are unbuffered; this is a belt for long idle periods). *)

val close : t -> unit
(** Compact the manifest (write-temp-then-rename), unmap the segments
    and close every descriptor.  A session that put nothing and dropped
    no corrupt entry leaves the manifest as it was, bytes and inode,
    whatever replay dropped or met twice.  Idempotent; operations other than {!stats}, {!flush} and
    {!close} raise [Invalid_argument] on a closed store. *)
