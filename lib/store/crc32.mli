(** CRC-32 (IEEE 802.3: reflected polynomial 0xedb88320, initial value
    and final xor 0xffffffff) — the checksum {!Store} records for every
    value at {!Store.put} and verifies on every {!Store.find}.

    Slicing-by-8: eight bytes per step through eight 256-entry tables.
    The digests are those of the classic byte-at-a-time algorithm, so
    stores written by either read back under the other.

    The tables are built eagerly when the module is initialized, not on
    first use.  That is for domain-safety: a [lazy] table forced by two
    domains at once raises [CamlinternalLazy.Undefined] in OCaml 5, and
    that is exactly what the first lookups of a resumed
    [wqi_batch --jobs 2] run did.  After initialization the tables are
    only read, so {!digest} is safe from any number of domains. *)

val digest : string -> int
(** [digest s] is the CRC-32 of [s], in [0 .. 0xffffffff].  Allocates
    nothing.  [digest "123456789" = 0xcbf43926]. *)
