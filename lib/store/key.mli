(** Content-addressed keys shared by the serve cache and the persistent
    store.

    A key fingerprints what actually determines an extraction's wire
    bytes: the (normalized) HTML content and a [spec] string carrying
    everything else that shapes the response — export version, grammar
    name and version, source name, budget caps.  The hash chain is
    FNV-1a/64 over [spec], a zero separator byte, then the normalized
    HTML, guarded by the normalized length and the spec itself, so a
    lookup never has to touch the original markup.

    {!make} normalizes and hashes in a single pass over the HTML: it
    never builds the normalized copy, keeps the hash state unboxed, and
    allocates only the returned key, whatever the document's size.

    This module is the single definition of that keying: the serve
    cache's key type is {!t}, {!Store} indexes by it, and the fronts
    make keys through one function ([Wqi_quality.Ingest.key]), so the
    in-memory LRU tier and the on-disk warm tier can never drift apart
    — the same request hashes to the same identity in both. *)

type t = {
  hash : int64;  (** FNV-1a/64 over [spec ^ "\x00" ^ normalize html] *)
  len : int;     (** normalized-HTML length: a cheap collision guard *)
  spec : string;
}

val fingerprint : string -> int64
(** The raw FNV-1a/64 hash (offset basis 0xcbf29ce484222325, prime
    0x100000001b3). *)

val fnv_prime : int64
(** The FNV-1a/64 prime [0x100000001b3]: one step of the chain is
    [h' = (h lxor byte) * fnv_prime]. *)

val fold : int64 -> string -> int64
(** [fold h s] continues an FNV-1a/64 chain over [s] from state [h].
    Allocates only the boxed result. *)

val normalize : string -> string
(** Line-ending and outer-whitespace normalization applied to HTML
    before hashing: CRLF and lone CR become LF, leading and trailing
    ASCII whitespace is dropped.  Deliberately conservative — it only
    merges representations that tokenize identically. *)

val make : html:string -> spec:string -> t
(** [make ~html ~spec] fingerprints [normalize html] chained after
    [spec] (separated by a byte that cannot occur in either part's
    role, so [("ab","c")] and [("a","bc")] fingerprint differently):
    it equals
    [{hash = fold (fold (fingerprint spec) "\x00") (normalize html);
      len = String.length (normalize html); spec}], computed in one
    pass with no copy of [html]. *)

val spec :
  grammar_name:string ->
  grammar_version:string ->
  name:string ->
  Wqi_budget.Budget.t ->
  string
(** The canonical spec string
    [vN|grammar=<name>@<version>|name=<name>|budget=<json>] used by the
    extraction server's cache, [wqi_batch --store] and [wqi_crawl] —
    one renderer, so the three front-ends agree byte-for-byte on what a
    request is. *)

val equal : t -> t -> bool
val compare : t -> t -> int

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by {!t}: the bucket hash is the low bits of
    [hash], equality is {!equal}.  The one index definition both tiers
    use — {!Store}'s index and the serve cache's shard tables — so
    neither pays for polymorphic hashing and comparison of the spec
    string. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits of a fingerprint (manifest encoding). *)

val of_hex : string -> int64 option
