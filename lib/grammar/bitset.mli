(** Fixed-universe bitsets over token ids.

    Instance coverage, conflict detection and subsumption checks are the
    innermost operations of the parser.  Universes of at most
    [Sys.int_size] tokens (every interface in the paper's corpus) are a
    single unboxed word; larger universes fall back to [int array]
    words.  The interface is immutable-by-default; the only mutation is
    the accumulator-owned {!union_into}. *)

type t

val universe_size : t -> int

val bits_per_word : int
(** Universes up to this size are a single unboxed word
    ([Sys.int_size]); the parser's arena keeps their covers as raw ints
    and materializes a set only when an instance is built. *)

val empty : int -> t
(** [empty n] is the empty set over universe [{0, ..., n-1}]. *)

val of_word : int -> int -> t
(** [of_word n bits] is the set over universe [n] whose members are the
    set bits of [bits].  Requires [n <= bits_per_word]; the result is
    structurally identical to building the same set by {!add}/{!union},
    so downstream {!equal}/{!hash}/{!subset} behave as if it had been. *)

val to_word : t -> int
(** Inverse of {!of_word}: the raw member word of a single-word set.
    Raises [Invalid_argument] on universes past {!bits_per_word}. *)

val singleton : int -> int -> t
(** [singleton n i] is [{i}] over a universe of size [n]. *)

val add : t -> int -> t
val mem : t -> int -> bool
val union : t -> t -> t
val inter : t -> t -> t
val cardinal : t -> int
val is_empty : t -> bool

val disjoint : t -> t -> bool
(** [disjoint a b] — no common element; the parser's conflict test. *)

val subset : t -> t -> bool
(** [subset a b] — every element of [a] is in [b]. *)

val strict_subset : t -> t -> bool

val equal : t -> t -> bool
val elements : t -> int list

val iter : (int -> unit) -> t -> unit
(** [iter f t] applies [f] to the members in increasing order, skipping
    empty words: linear in the members, not the universe. *)

val of_list : int -> int list -> t
val union_all : int -> t list -> t

val copy : t -> t
(** A set observably equal to the input that is safe to pass as the
    initial accumulator of {!union_into} (single-word sets are immutable
    and shared; multi-word sets get fresh words). *)

val union_into : into:t -> t -> t
(** [union_into ~into x] is {!union}[ into x], but mutates and returns
    [into] in place when the representation permits.  [into] must be an
    accumulator owned exclusively by the caller — start a fold from
    {!copy} or {!empty}, never from a set someone else can observe. *)

val hash : t -> int
val pp : Format.formatter -> t -> unit
