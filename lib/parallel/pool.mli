(** OCaml 5 domains for parallel work: one ordered map and one group.

    {!map_ordered} is the batch primitive: many independent items of
    broadly similar cost (the extraction of one query interface each).
    It spawns [jobs - 1] domains for the duration of one call, the
    calling domain working as the last of them; workers claim
    fixed-size index chunks from one atomic cursor, with no per-item
    locking and no stealing.  Each result is handed to a [commit]
    function on the calling domain, once, in input order, so whatever
    [commit] writes (a store, a file) comes out the same at any [jobs].

    {!Group} is for long-lived loops over state that each member owns
    (the extraction server's accept loops).

    The mapped function runs concurrently on several domains; it must
    not touch shared mutable state.  (The parser engine allocates all of
    its state per [parse] call, so parsing and extraction qualify.) *)

val map_ordered :
  jobs:int -> ('a -> 'b) -> commit:(int -> 'b -> unit) -> 'a array -> unit
(** [map_ordered ~jobs f ~commit input] computes [f input.(i)] for
    every [i] on up to [jobs] domains ([jobs <= 1] runs sequentially on
    the caller and never raises for it) and calls [commit i] on each
    result exactly once, in increasing [i], never concurrently, always
    on the calling domain: between the items the caller computes itself
    and, for what is left, after the other domains finish.

    If [f] raises on some indices, the exception of the lowest such
    index [k] is re-raised once the workers have drained, after exactly
    the indices below [k] were committed.  If [commit] raises, no
    further index is committed and no further chunk is claimed, and the
    exception is re-raised once the workers have drained. *)

val map_array : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** {!map_ordered} gathering the results in input order. *)

(** {1 Domain groups}

    One long-lived domain per core, each running its own loop over
    state it exclusively owns (the extraction server runs one accept
    loop, cache shard and telemetry arena per group member).  The group
    only knows how to spawn and join. *)
module Group : sig
  type t

  val spawn : jobs:int -> (int -> unit) -> t
  (** [spawn ~jobs f] starts [max 1 jobs] domains, running [f 0] …
      [f (jobs - 1)].  [f] receives the member's index and owns
      whatever state it indexes with it; it must arrange its own exit
      condition (the server uses a drain flag plus a self-pipe). *)

  val size : t -> int

  val join : t -> unit
  (** Block until every member's [f] has returned. *)
end
