(** CRC-32 (IEEE 802.3: reflected polynomial 0xedb88320, initial value
    and final xor 0xffffffff) — the checksum {!Store} records for every
    value at {!Store.put} and verifies on every {!Store.find}.

    A C stub ([crc32_stubs.c]), slicing-by-8: eight bytes per step
    through eight 256-entry tables.  The digests are those of the
    classic byte-at-a-time algorithm, so every store written by an
    earlier build (an OCaml slicing-by-8, and before it a bytewise
    loop) reads back unchanged.

    The tables are built when the program is loaded, by a C
    constructor, not on first use.  That is for domain-safety: a
    [lazy] table forced by two domains at once raises
    [CamlinternalLazy.Undefined] in OCaml 5, and that is exactly what
    the first lookups of a resumed [wqi_batch --jobs 2] run did.  After
    loading the tables are only read, so {!digest} is safe from any
    number of domains. *)

val digest : string -> int
(** [digest s] is the CRC-32 of [s], in [0 .. 0xffffffff].  Allocates
    nothing; a [noalloc] external, so it holds its domain for the whole
    computation (about a microsecond per kilobyte).
    [digest "123456789" = 0xcbf43926]. *)
