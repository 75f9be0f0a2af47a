/* CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320).
 *
 * Two paths, chosen once when the program is loaded:
 *
 * - slicing-by-8, on every machine: table k maps a byte to its CRC
 *   contribution k bytes further down the stream, so one step folds
 *   eight input bytes with eight independent lookups instead of a chain
 *   of eight dependent ones;
 *
 * - on x86-64 with PCLMULQDQ and SSE4.1, a carry-less-multiply folding
 *   kernel (Gopal et al., "Fast CRC Computation for Generic Polynomials
 *   Using PCLMULQDQ Instruction", Intel, 2009) over the largest multiple
 *   of 16 bytes of any value of at least 64 bytes.  The tables finish
 *   the tail and take short values whole, so they stay live everywhere.
 *
 * The tables and the path are set by a constructor when the program is
 * loaded, before any OCaml code runs, so no domain ever sees them half
 * built and [wqi_crc32_digest] only reads shared memory. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

static uint32_t table[8][256];

/* Nonzero when the carry-less-multiply kernel runs; written only by
   the constructor. */
static int use_clmul;

/* Little-endian 32-bit load from any alignment; compilers fold it into
   one load on little-endian targets. */
static inline uint32_t load32(const unsigned char *p)
{
  return (uint32_t) p[0] | (uint32_t) p[1] << 8
         | (uint32_t) p[2] << 16 | (uint32_t) p[3] << 24;
}

/* Advance the running (pre-inverted) CRC [c] over [n] bytes. */
static uint32_t crc_tables(uint32_t c, const unsigned char *p, size_t n)
{
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t one = load32(p) ^ c, two = load32(p + 4);
    c = table[7][one & 0xff] ^ table[6][(one >> 8) & 0xff]
        ^ table[5][(one >> 16) & 0xff] ^ table[4][one >> 24]
        ^ table[3][two & 0xff] ^ table[2][(two >> 8) & 0xff]
        ^ table[1][(two >> 16) & 0xff] ^ table[0][two >> 24];
  }
  for (; n > 0; p++, n--)
    c = table[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)

/* Advance the running CRC [c] over [n] bytes, [n] >= 64 and a multiple
   of 16.  Four 128-bit accumulators fold 64 bytes per step; they are
   folded into one, which takes the remaining 16-byte blocks, and the
   128-bit remainder is reduced to 32 bits (fold to 64, then Barrett).
   The constants are the paper's, for P = 0x104c11db7 in the
   bit-reflected domain (the same as zlib's crc32_simd): k1, k2 fold
   across 512 bits, k3, k4 across 128, k5 takes 96 bits to 64, and
   mu = x^64 / P, with P itself, drives the Barrett step. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc_clmul(uint32_t c, const unsigned char *p, size_t n)
{
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1, x2, x3, x4, t;

#define FOLD(x, k, next)                                       \
  do {                                                          \
    __m128i lo = _mm_clmulepi64_si128((x), (k), 0x00);          \
    __m128i hi = _mm_clmulepi64_si128((x), (k), 0x11);          \
    (x) = _mm_xor_si128(_mm_xor_si128(hi, lo), (next));         \
  } while (0)

  x1 = _mm_loadu_si128((const __m128i *) p);
  x2 = _mm_loadu_si128((const __m128i *) (p + 16));
  x3 = _mm_loadu_si128((const __m128i *) (p + 32));
  x4 = _mm_loadu_si128((const __m128i *) (p + 48));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int) c));
  p += 64;
  n -= 64;

  for (; n >= 64; p += 64, n -= 64) {
    FOLD(x1, k1k2, _mm_loadu_si128((const __m128i *) p));
    FOLD(x2, k1k2, _mm_loadu_si128((const __m128i *) (p + 16)));
    FOLD(x3, k1k2, _mm_loadu_si128((const __m128i *) (p + 32)));
    FOLD(x4, k1k2, _mm_loadu_si128((const __m128i *) (p + 48)));
  }

  FOLD(x1, k3k4, x2);
  FOLD(x1, k3k4, x3);
  FOLD(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16)
    FOLD(x1, k3k4, _mm_loadu_si128((const __m128i *) p));
#undef FOLD

  /* 128 -> 64 bits. */
  t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, t);

  /* Barrett reduction to 32 bits. */
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return (uint32_t) _mm_extract_epi32(x1, 1);
}

#endif

__attribute__((constructor))
static void wqi_crc32_init(void)
{
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t prev = table[k - 1][n];
      table[k][n] = table[0][prev & 0xff] ^ (prev >> 8);
    }
#if defined(__x86_64__)
  /* Constructors may run before libgcc has probed the CPU. */
  __builtin_cpu_init();
  use_clmul = __builtin_cpu_supports("pclmul")
              && __builtin_cpu_supports("sse4.1");
#endif
}

/* The [@@noalloc] stubs below allocate nothing and never call back
   into OCaml. */

CAMLprim value wqi_crc32_digest(value s)
{
  const unsigned char *p = (const unsigned char *) String_val(s);
  size_t n = caml_string_length(s);
  uint32_t c = 0xffffffffu;
#if defined(__x86_64__)
  if (use_clmul && n >= 64) {
    size_t m = n & ~(size_t) 15;
    c = crc_clmul(c, p, m);
    p += m;
    n -= m;
  }
#endif
  c = crc_tables(c, p, n);
  return Val_long((intnat) (c ^ 0xffffffffu));
}

CAMLprim value wqi_crc32_portable_digest(value s)
{
  uint32_t c = crc_tables(0xffffffffu, (const unsigned char *) String_val(s),
                          caml_string_length(s));
  return Val_long((intnat) (c ^ 0xffffffffu));
}

CAMLprim value wqi_crc32_accelerated(value unit)
{
  (void) unit;
  return Val_bool(use_clmul);
}
