(** Persistent content-addressed store of extraction results.

    Every run of [wqi_batch] or [wqi_serve] used to start cold,
    re-extracting documents whose HTML and grammar had not changed and
    losing the serve cache with the process.  The store is the durable
    tier underneath both: keys are the {!Key} fingerprints the serve
    cache already uses (normalized HTML ⊕ budget spec ⊕ grammar
    name@version), values are the deterministic Export-v2 wire bytes
    ([Extractor.export ~timings:false]), so a store hit is byte-identical
    to a fresh extraction and can be served — or emitted by a resumed
    batch — without re-running the pipeline.

    {b On-disk layout.}  A store directory holds

    - [segments/seg-NNN.dat] — append-only value segments, sharded by
      key fingerprint so concurrent writers from a [Pool] rarely
      contend on one file;
    - [manifest.jsonl] — an append-only manifest, one JSON object per
      completed put: key (hash/len/spec), segment, offset, byte count,
      CRC-32 of the value bytes, plus provenance (source path or URL,
      grammar name@version, outcome, crawl-classified domain).

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
    point); segment bytes orphaned by overwrites are reclaimed only by
    [segments/*] deletion alongside a fresh manifest, which the store
    never does on its own.

    The checksum is {!Crc32}, a C stub computed by {!put} and checked
    by every {!find}: a carry-less-multiply (PCLMULQDQ) kernel on
    x86-64 CPUs that have one, slicing-by-8 tables elsewhere and for
    values under 64 bytes.  Its tables are built, and its path chosen,
    when the program is loaded, because a lazily built table raised
    when two domains made their first lookups at once.

    {b Manifest codec.}  {!open_} reads the manifest in 64 KiB blocks
    and parses each line where it lies in the block, in one pass: field
    names are matched in place into per-field slots, a string value is
    one [String.sub] unless it holds an escape, and plain integers and
    the key's 16 hex digits are decoded without a substring.  {!put}
    and {!close} write each line into one reused buffer.  The reader
    accepts and rejects exactly the lines the earlier
    [List.assoc]-based reader did, and the writer emits the same bytes
    as the earlier [Printf] one, so manifests of either build replay
    under the other ({!parse_line}, {!render_line}).

    {b Concurrency.}  All operations are safe from concurrent threads
    and domains of one process (per-segment mutexes for value I/O, one
    mutex each for the manifest and the index).  The index is a
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
    duplicated ones (the last counts). *)

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
    the manifest, and opens the segments for append.  [segments]
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

val meta : t -> Key.t -> meta option
(** Provenance without reading the value bytes. *)

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
(** Flush segment and manifest channels (puts already flush; this is a
    belt for long idle periods). *)

val close : t -> unit
(** Compact the manifest (write-temp-then-rename) and close every
    channel.  Idempotent; operations other than {!stats}, {!flush} and
    {!close} raise [Invalid_argument] on a closed store. *)
