(** Content-addressed result cache for the extraction server.

    Identical forms recur constantly in a crawl — the same search box
    is embedded on every page of a site — so the server memoizes
    serialized extractions keyed by what actually determines the
    answer: the (normalized) HTML content and the budget spec in
    force.  Keys are FNV-1a/64 fingerprints guarded by the normalized
    length and the spec string, so a lookup never touches the original
    markup.

    The cache is sharded: each shard holds an LRU list and a
    {!Wqi_store.Key.Tbl} (the store index's table type) behind its own
    mutex, so concurrent handler threads on different shards never
    contend.  The high half of a key's hash picks its shard; the table
    buckets by the low bits.  Shards are bounded by bytes (the
    serialized values dominate), not entry count, and entries can
    carry a TTL so a long-lived daemon eventually re-extracts content
    whose grammar or code may have changed under it.

    In the shared-nothing server each serving domain owns a private
    cache instance, so none of these mutexes is ever contended across
    domains on the request path.

    {b Single-flight.} Cold misses can stampede: at start-up every
    crawler replays the same popular forms at once, and without
    coordination each concurrent miss extracts the same document.
    {!begin_flight} elects exactly one leader per key; concurrent
    misses on the same key park until the leader {!end_flight}s and
    then read the published bytes instead of re-extracting.  The
    protocol is advisory and crash-safe: a leader that publishes
    [None] (shed or failed extraction) wakes its followers empty-handed
    and they retry on their own. *)

type config = {
  max_bytes : int;  (** total byte bound across all shards *)
  ttl_s : float;    (** entry lifetime in seconds; [<= 0.] = no expiry *)
  shards : int;     (** clamped to [>= 1] *)
}

val default_config : config
(** 64 MiB, no TTL, 8 shards. *)

type t

val create : ?clock:(unit -> float) -> config -> t
(** [clock] (for TTL arithmetic) defaults to the monotonic
    [Wqi_budget.Budget.now_s]; tests inject a fake clock to exercise
    expiry deterministically. *)

type key = Wqi_store.Key.t
(** Cache keys {i are} store keys — the equality is deliberate and
    load-bearing: the persistent store ({!Wqi_store.Store}) sits under
    this cache as a warm tier, and one key per request, made by
    {!Wqi_quality.Ingest.key} ({!Wqi_store.Key.make} over the
    canonical spec), addresses both. *)

val find : t -> key -> string option
(** A hit refreshes the entry's LRU position.  Expired entries are
    removed on the way and count as misses (and as expirations). *)

val add : t -> key -> string -> unit
(** Insert or replace, evicting least-recently-used entries of the
    shard until the value fits.  Values larger than a whole shard are
    not stored. *)

(** {1 Single-flight} *)

type flight =
  | Leader  (** this caller owns the extraction; it {b must} call
                {!end_flight} for the same key exactly once *)
  | Follower of string option
      (** another caller led; [Some value] is the bytes it published
          (count it as a hit), [None] means the leader gave up (shed or
          failed) — re-check the cache and try again *)

val begin_flight : t -> key -> flight
(** Join (or open) the in-flight extraction for [key].  Returns
    [Leader] immediately when no extraction is in flight; otherwise
    {b blocks} until the current leader calls {!end_flight} and returns
    its published result as [Follower].  Call only after {!find}
    missed. *)

val end_flight : t -> key -> string option -> unit
(** Publish the leader's result ([Some value] — normally also
    {!add}ed — or [None] on failure) and wake every follower.  The key
    is open for a new flight afterwards.  Idempotent for keys with no
    open flight. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;     (** entries dropped to make room *)
  expirations : int;   (** entries dropped because their TTL passed *)
  insertions : int;
  coalesced : int;     (** follower misses answered by a single-flight
                           leader instead of a duplicate extraction *)
  entries : int;       (** current entry count, all shards *)
  bytes : int;         (** current value bytes, all shards *)
  capacity : int;      (** configured [max_bytes] *)
}

val stats : t -> stats

val hit_ratio : stats -> float
(** [hits / (hits + misses)]; [0.] before any lookup. *)
