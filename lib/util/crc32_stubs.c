/* CRC-32 (IEEE 802.3, reflected) over a byte range.

   Two paths compute the same function:

   - a slicing-by-8 table loop (Kounavis & Berry), portable C, for every
     host and for the bytes a fold leaves over;
   - on x86-64 CPUs with PCLMULQDQ, a carry-less-multiply fold (Gopal et
     al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
     Instruction", Intel 2009): four 128-bit lanes folded 64 bytes at a
     time, then one lane, then a Barrett reduction to 32 bits.

   The fold is compiled with a per-function target attribute, so the
   library builds with no -m flag, and it is chosen at run time from
   CPUID. Both paths work on the pre-inverted register; the entry points
   invert on the way in and out, so a result can seed a later call.

   No entry point allocates or releases the runtime lock: the OCaml side
   declares them [@@noalloc] and passes unboxed ints. */

#include <stdint.h>
#include <caml/mlvalues.h>

#define POLY 0xEDB88320u

/* Table k advances a byte's contribution through k further zero bytes;
   table 0 is the classic byte-at-a-time table. Filled once by
   [onll_crc32_init], which the OCaml module runs at its initialisation,
   before any domain can call in. */
static uint32_t tab[8][256];

static uint32_t load32_le(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

/* One slicing-by-8 step: the register after the 8 bytes whose
   little-endian halves are [lo] and [hi]. */
static inline uint32_t step8(uint32_t crc, uint32_t lo, uint32_t hi)
{
  lo ^= crc;
  return tab[7][lo & 0xFF] ^ tab[6][(lo >> 8) & 0xFF]
         ^ tab[5][(lo >> 16) & 0xFF] ^ tab[4][lo >> 24] ^ tab[3][hi & 0xFF]
         ^ tab[2][(hi >> 8) & 0xFF] ^ tab[1][(hi >> 16) & 0xFF]
         ^ tab[0][hi >> 24];
}

static uint32_t crc_table(uint32_t crc, const unsigned char *p, size_t n)
{
  for (; n >= 8; p += 8, n -= 8)
    crc = step8(crc, load32_le(p), load32_le(p + 4));
  while (n--) crc = tab[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_FOLD 1
#include <cpuid.h>
#include <immintrin.h>

/* The fold's constants for the reflected polynomial, as x^k mod P
   (bit-reflected, shifted one place): k1/k2 fold a lane 512 bits on,
   k3/k4 fold 128 bits on, k5 folds the last 64 bits to 32, and
   (P', mu) drive the Barrett reduction. */
#define K1 0x154442bd4ull
#define K2 0x1c6e41596ull
#define K3 0x1751997d0ull
#define K4 0x0ccaa009eull
#define K5 0x163cd6124ull
#define P_PRIME 0x1db710641ull
#define MU 0x1f7011641ull

/* [x]'s low half times [k]'s low half plus [x]'s high half times [k]'s
   high half, carry-less: one lane moved on by [k]'s distance. */
__attribute__((target("pclmul,sse2"))) static inline __m128i
fold(__m128i x, __m128i k)
{
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

#define LOAD(p) _mm_loadu_si128((const __m128i *)(p))

/* The register after [n] bytes at [p]; [n] is a multiple of 16, at
   least 64. */
__attribute__((target("pclmul,sse2"))) static uint32_t
crc_fold(uint32_t crc, const unsigned char *p, size_t n)
{
  __m128i k = _mm_set_epi64x(K2, K1);
  __m128i x0 = _mm_xor_si128(LOAD(p), _mm_cvtsi32_si128((int)crc));
  __m128i x1 = LOAD(p + 16), x2 = LOAD(p + 32), x3 = LOAD(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(fold(x0, k), LOAD(p));
    x1 = _mm_xor_si128(fold(x1, k), LOAD(p + 16));
    x2 = _mm_xor_si128(fold(x2, k), LOAD(p + 32));
    x3 = _mm_xor_si128(fold(x3, k), LOAD(p + 48));
  }
  k = _mm_set_epi64x(K4, K3);
  x0 = _mm_xor_si128(fold(x0, k), x1);
  x0 = _mm_xor_si128(fold(x0, k), x2);
  x0 = _mm_xor_si128(fold(x0, k), x3);
  for (; n >= 16; p += 16, n -= 16) x0 = _mm_xor_si128(fold(x0, k), LOAD(p));

  /* 128 bits to 64: the low half times k4 onto the high half, which also
     appends the 32 zero bits the reduction expects. */
  __m128i mask = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k, 0x10));
  /* 64 bits to 32 + 32 by k5. */
  k = _mm_set_epi64x(0, K5);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask), k, 0x00));
  /* Barrett: q = (low 32 bits * mu) mod x^32, then x0 + q * P'. */
  k = _mm_set_epi64x(MU, P_PRIME);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, mask), k, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask), k, 0x00);
  return (uint32_t)_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x0, q), 4));
}

static int have_fold;

static int cpu_has_pclmul(void)
{
  unsigned a, b, c, d;
  return __get_cpuid(1, &a, &b, &c, &d) && (c & bit_PCLMUL);
}
#endif

static uint32_t crc_update(uint32_t crc, const unsigned char *p, size_t n)
{
#ifdef HAVE_FOLD
  if (have_fold && n >= 64) {
    size_t whole = n & ~(size_t)15;
    crc = crc_fold(crc, p, whole);
    p += whole;
    n -= whole;
  }
#endif
  return crc_table(crc, p, n);
}

value onll_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? POLY ^ (c >> 1) : c >> 1;
    tab[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++)
      tab[k][n] = (tab[k - 1][n] >> 8) ^ tab[0][tab[k - 1][n] & 0xFF];
#ifdef HAVE_FOLD
  have_fold = cpu_has_pclmul();
#endif
  return Val_unit;
}

/* [init] and the result are CRC values (not registers), in the low 32
   bits of an untagged int. The caller has checked the range. */
intnat onll_crc32_bytes(intnat init, value b, intnat pos, intnat len)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(b) + pos;
  return ~crc_update(~(uint32_t)init, p, (size_t)len) & 0xFFFFFFFFu;
}

/* The table path alone, whatever the CPU: the path hosts without
   PCLMULQDQ take for every range, kept callable so tests hold the two
   paths to each other on every host. */
intnat onll_crc32_bytes_table(intnat init, value b, intnat pos, intnat len)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(b) + pos;
  return ~crc_table(~(uint32_t)init, p, (size_t)len) & 0xFFFFFFFFu;
}

/* The 8 little-endian bytes of [x]. */
intnat onll_crc32_int64(intnat init, int64_t x)
{
  uint64_t u = (uint64_t)x;
  return ~step8(~(uint32_t)init, (uint32_t)u, (uint32_t)(u >> 32))
         & 0xFFFFFFFFu;
}

/* The 8 little-endian bytes of [len], then the [len] bytes at [pos] of
   [s]: one call for a log entry's checksum, so its frame is never built
   and its length is not checksummed through a call of its own. */
intnat onll_crc32_length_prefixed(value s, intnat pos, intnat len)
{
  uint64_t u = (uint64_t)len;
  uint32_t crc = step8(~0u, (uint32_t)u, (uint32_t)(u >> 32));
  const unsigned char *p = (const unsigned char *)String_val(s) + pos;
  return ~crc_update(crc, p, (size_t)len) & 0xFFFFFFFFu;
}

/* Bytecode entry points: the same functions over boxed arguments. */
value onll_crc32_bytes_byte(value init, value b, value pos, value len)
{
  return Val_long(onll_crc32_bytes(Long_val(init), b, Long_val(pos),
                                   Long_val(len)));
}

value onll_crc32_bytes_table_byte(value init, value b, value pos, value len)
{
  return Val_long(onll_crc32_bytes_table(Long_val(init), b, Long_val(pos),
                                         Long_val(len)));
}

value onll_crc32_length_prefixed_byte(value s, value pos, value len)
{
  return Val_long(onll_crc32_length_prefixed(s, Long_val(pos), Long_val(len)));
}

value onll_crc32_int64_byte(value init, value x)
{
  return Val_long(onll_crc32_int64(Long_val(init), Int64_val(x)));
}
