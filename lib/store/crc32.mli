(** CRC-32 (IEEE 802.3: reflected polynomial 0xedb88320, initial value
    and final xor 0xffffffff) — the checksum {!Store} records for every
    value at {!Store.put} and verifies on every {!Store.find}.

    A C stub ([crc32_stubs.c]) with two paths, chosen once:

    - on x86-64 with PCLMULQDQ and SSE4.1, a carry-less-multiply
      folding kernel (Gopal et al., Intel, 2009; the technique of
      zlib's [crc32_simd]) takes the largest multiple of 16 bytes of
      any value of at least 64 bytes, and slicing-by-8 tables finish
      the tail;
    - everywhere else, and for values under 64 bytes, the tables alone:
      eight bytes per step through eight 256-entry tables.

    Both give the digests of the classic byte-at-a-time algorithm, so
    every store written by an earlier build (an OCaml slicing-by-8, and
    before it a bytewise loop) reads back unchanged.

    The tables are built, and the path chosen ([__builtin_cpu_supports]),
    when the program is loaded, by a C constructor, not on first use.
    That is for domain-safety: a [lazy] table forced by two domains at
    once raises [CamlinternalLazy.Undefined] in OCaml 5, and that is
    exactly what the first lookups of a resumed [wqi_batch --jobs 2] run
    did.  After loading both are only read, so {!digest} is safe from
    any number of domains.  There is no build flag or environment
    variable to pick a path. *)

val digest : string -> int
(** [digest s] is the CRC-32 of [s], in [0 .. 0xffffffff].  Allocates
    nothing; a [noalloc] external, so it holds its domain for the whole
    computation: about 0.06 µs per KiB on the kernel path, about
    0.6 µs per KiB on the tables alone (2-vCPU Xeon host).
    [digest "123456789" = 0xcbf43926]. *)

(** {2 For tests} *)

val portable_digest : string -> int
(** [portable_digest s = digest s], always through the tables alone:
    the path of machines without the kernel, testable on any machine. *)

val accelerated : unit -> bool
(** Whether {!digest} runs the carry-less-multiply kernel in this
    process. *)
