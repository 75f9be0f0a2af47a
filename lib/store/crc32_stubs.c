/* CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320), slicing-by-8.
 *
 * Table k maps a byte to its CRC contribution k bytes further down the
 * stream, so one step folds eight input bytes with eight independent
 * lookups instead of a chain of eight dependent ones.
 *
 * The tables are filled by a constructor when the program is loaded,
 * before any OCaml code runs, so no domain ever sees them half built
 * and [wqi_crc32_digest] only reads shared memory. */

#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t table[8][256];

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
}

/* Little-endian 32-bit load from any alignment; compilers fold it into
   one load on little-endian targets. */
static inline uint32_t load32(const unsigned char *p)
{
  return (uint32_t) p[0] | (uint32_t) p[1] << 8
         | (uint32_t) p[2] << 16 | (uint32_t) p[3] << 24;
}

/* [@@noalloc]: allocates nothing and never calls back into OCaml. */
CAMLprim value wqi_crc32_digest(value s)
{
  const unsigned char *p = (const unsigned char *) String_val(s);
  mlsize_t n = caml_string_length(s);
  uint32_t c = 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t one = load32(p) ^ c, two = load32(p + 4);
    c = table[7][one & 0xff] ^ table[6][(one >> 8) & 0xff]
        ^ table[5][(one >> 16) & 0xff] ^ table[4][one >> 24]
        ^ table[3][two & 0xff] ^ table[2][(two >> 8) & 0xff]
        ^ table[1][(two >> 16) & 0xff] ^ table[0][two >> 24];
  }
  for (; n > 0; p++, n--)
    c = table[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return Val_long((intnat) (c ^ 0xffffffffu));
}
