/* The block compressions of SHA-256, SHA-1 and MD5, the kernels under
   Block_hash (see DESIGN.md §9.6).  SHA-256 has two: a portable one in
   C and one on the x86 SHA extensions, with a CPUID probe that tells
   Block_hash which to use.

   OCaml has no 32-bit unsigned int: in OCaml the words live in 63-bit
   ints and every right shift or rotation needs a mask first.  Here
   they are uint32_t, so additions wrap and rotations are one
   instruction.

   Each function compresses one 64-byte block into the chaining state:
   - state: OCaml [bytes] of native-endian uint32 words, 8 for SHA-256,
     5 for SHA-1, 4 for MD5;
   - src, off: the block is the 64 bytes of src from the byte offset
     off (an OCaml int), read so that any offset works (a byte at a
     time, or by unaligned vector loads): big-endian words for SHA,
     little-endian for MD5.
   The caller guarantees off + 64 <= length of src.

   The SHA-256 kernels are also called from C, by the HMAC-DRBG draw
   step at the end of the SHA-256 part (see DESIGN.md §9.6), so each is
   a static function on the words and the block, under a stub that
   unpacks the OCaml values.

   No mutable state (the round constants are read-only), no allocation
   and no runtime calls: the OCaml side declares them [@@noalloc], and
   domains may call them concurrently on their own states.  With three
   value arguments each function serves as both the bytecode and the
   native entry point. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))
#define ROTL(x, n) (((x) << (n)) | ((x) >> (32 - (n))))

static inline uint32_t load_be(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
    | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline uint32_t load_le(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8)
    | ((uint32_t)p[2] << 16) | ((uint32_t)p[3] << 24);
}

/* The SHA-256 round constants, shared by both SHA-256 kernels. */
static const uint32_t sha256_k[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

static void sha256_portable(uint32_t *h, const unsigned char *p)
{
  uint32_t w[64], a, b, c, d, e, f, g, hh;
  int i;

  for (i = 0; i < 16; i++) w[i] = load_be(p + 4 * i);
  for (i = 16; i < 64; i++) {
    uint32_t w15 = w[i - 15], w2 = w[i - 2];
    w[i] = w[i - 16] + (ROTR(w15, 7) ^ ROTR(w15, 18) ^ (w15 >> 3)) + w[i - 7]
      + (ROTR(w2, 17) ^ ROTR(w2, 19) ^ (w2 >> 10));
  }
  a = h[0]; b = h[1]; c = h[2]; d = h[3];
  e = h[4]; f = h[5]; g = h[6]; hh = h[7];
  /* Eight rounds per iteration, each naming the working variables one
     place further on, so no round moves the six that only shift. */
#define ROUND(a, b, c, d, e, f, g, h, i)                                \
  {                                                                     \
    uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))          \
      + ((e & f) ^ (~e & g)) + sha256_k[i] + w[i];                      \
    d += t1;                                                            \
    h = t1 + (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))                   \
      + ((a & b) ^ (a & c) ^ (b & c));                                  \
  }
  for (i = 0; i < 64; i += 8) {
    ROUND(a, b, c, d, e, f, g, hh, i)
    ROUND(hh, a, b, c, d, e, f, g, i + 1)
    ROUND(g, hh, a, b, c, d, e, f, i + 2)
    ROUND(f, g, hh, a, b, c, d, e, i + 3)
    ROUND(e, f, g, hh, a, b, c, d, i + 4)
    ROUND(d, e, f, g, hh, a, b, c, i + 5)
    ROUND(c, d, e, f, g, hh, a, b, i + 6)
    ROUND(b, c, d, e, f, g, hh, a, i + 7)
  }
#undef ROUND
  h[0] += a; h[1] += b; h[2] += c; h[3] += d;
  h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
}

value tep_sha256_compress(value vstate, value vsrc, value voff)
{
  sha256_portable((uint32_t *)Bytes_val(vstate),
                  Bytes_val(vsrc) + Long_val(voff));
  return Val_unit;
}

/* SHA-256 on the x86 SHA extensions: the same compression as
   tep_sha256_compress, which is its test oracle.  The function alone is
   compiled for SHA, SSSE3 and SSE4.1 (the target attribute), so the
   file needs no -msha and every other function stays plain x86-64.  It
   must only run where tep_sha_ni_available says so; Block_hash checks
   once, at module initialisation.

   The state is held as two vectors, ABEF and CDGH, the order
   sha256rnds2 wants.  Each group of four rounds adds four round
   constants to four message words and runs sha256rnds2 twice.  The
   message schedule works in place on four vectors MSG[g mod 4]: in
   group g, sha256msg2 finishes words 4g+4..4g+7 (groups 3..14) and
   sha256msg1 starts words 4g+12..4g+15 (groups 1..12). */
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>

__attribute__((target("sha,ssse3,sse4.1")))
static void sha256_ni(uint32_t *h, const unsigned char *p)
{
  /* byte order within each 32-bit lane reversed: big-endian words */
  const __m128i bswap =
    _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i abef, cdgh, abef0, cdgh0, kw, tmp, m[4];

  tmp = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)h), 0xb1);
  cdgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(h + 4)), 0x1b);
  abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);
  abef0 = abef;
  cdgh0 = cdgh;

#define GROUP(g)                                                        \
  {                                                                     \
    if ((g) < 4)                                                        \
      m[(g) & 3] = _mm_shuffle_epi8(                                    \
        _mm_loadu_si128((const __m128i *)(p + 16 * (g))), bswap);       \
    kw = _mm_add_epi32(                                                 \
      m[(g) & 3], _mm_loadu_si128((const __m128i *)(sha256_k + 4 * (g)))); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, kw);                       \
    if ((g) >= 3 && (g) <= 14) {                                        \
      tmp = _mm_alignr_epi8(m[(g) & 3], m[((g) + 3) & 3], 4);           \
      m[((g) + 1) & 3] = _mm_sha256msg2_epu32(                          \
        _mm_add_epi32(m[((g) + 1) & 3], tmp), m[(g) & 3]);              \
    }                                                                   \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(kw, 0x0e)); \
    if ((g) >= 1 && (g) <= 12)                                          \
      m[((g) + 3) & 3] = _mm_sha256msg1_epu32(m[((g) + 3) & 3], m[(g) & 3]); \
  }
  GROUP(0) GROUP(1) GROUP(2) GROUP(3) GROUP(4) GROUP(5) GROUP(6) GROUP(7)
  GROUP(8) GROUP(9) GROUP(10) GROUP(11) GROUP(12) GROUP(13) GROUP(14)
  GROUP(15)
#undef GROUP

  abef = _mm_add_epi32(abef, abef0);
  cdgh = _mm_add_epi32(cdgh, cdgh0);
  tmp = _mm_shuffle_epi32(abef, 0x1b);
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128((__m128i *)h, _mm_blend_epi16(tmp, cdgh, 0xf0));
  _mm_storeu_si128((__m128i *)(h + 4), _mm_alignr_epi8(cdgh, tmp, 8));
}

value tep_sha256_compress_ni(value vstate, value vsrc, value voff)
{
  sha256_ni((uint32_t *)Bytes_val(vstate), Bytes_val(vsrc) + Long_val(voff));
  return Val_unit;
}

/* Whether this CPU has the SHA extensions and the SSSE3 and SSE4.1
   instructions the kernel above also uses: CPUID leaf 7 (subleaf 0)
   EBX bit 29, leaf 1 ECX bits 9 and 19. */
value tep_sha_ni_available(value unit)
{
  unsigned int eax, ebx, ecx, edx;
  (void)unit;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)
      || !(ecx & (1u << 9)) || !(ecx & (1u << 19)))
    return Val_false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
    return Val_false;
  return Val_bool(ebx & (1u << 29));
}
#else
/* Not x86: there are no SHA extensions to use.  The kernel exists so
   that the OCaml side links; it is never selected. */
static void sha256_ni(uint32_t *h, const unsigned char *p)
{
  sha256_portable(h, p);
}

value tep_sha256_compress_ni(value vstate, value vsrc, value voff)
{
  return tep_sha256_compress(vstate, vsrc, voff);
}

value tep_sha_ni_available(value unit)
{
  (void)unit;
  return Val_false;
}
#endif

/* The SHA-256 initial state, where the key schedule below starts. */
static const uint32_t sha256_iv[8] = {
  0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
  0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

/* The bytes after an n-byte message that starts a hash's second block
   (the first is the key block): 0x80, zeros, then the length in bits,
   (64 + n) * 8 < 2^16, big-endian in the last eight bytes. */
static inline void hmac_pad(unsigned char *blk, int n)
{
  unsigned bits = (64 + n) * 8;
  blk[n] = 0x80;
  memset(blk + n + 1, 0, 63 - n);
  blk[62] = (unsigned char)(bits >> 8);
  blk[63] = (unsigned char)bits;
}

/* Written byte by byte, so that it is right on any host; gcc merges
   the four stores into one byte-swapped store. */
static inline void store_be32(unsigned char *p, uint32_t x)
{
  p[0] = (unsigned char)(x >> 24);
  p[1] = (unsigned char)(x >> 16);
  p[2] = (unsigned char)(x >> 8);
  p[3] = (unsigned char)x;
}

/* The eight words of h as 32 big-endian bytes at p: the digest. */
static inline void store_be(unsigned char *p, const uint32_t *h)
{
  store_be32(p, h[0]); store_be32(p + 4, h[1]);
  store_be32(p + 8, h[2]); store_be32(p + 12, h[3]);
  store_be32(p + 16, h[4]); store_be32(p + 20, h[5]);
  store_be32(p + 24, h[6]); store_be32(p + 28, h[7]);
}

/* One HMAC-SHA256 of HMAC-DRBG (Drbg, DESIGN.md §9.6), whole, on the
   DRBG's own state: the 128 bytes of vstate are
   - bytes 0..31: the key's inner midstate, the SHA-256 state after the
     block key xor ipad, eight native-endian uint32 words;
   - bytes 32..63: its outer midstate, after key xor opad;
   - bytes 64..95: the key K;
   - bytes 96..127: V.
   vop (an OCaml int) says which step:
   - -1: V = HMAC(K, V);
   - 0..255: K = HMAC(K, V || the byte vop), then the key schedule;
   - -2: the key schedule alone.
   The key schedule rebuilds the two midstates from K: one compression
   of K xor ipad (0x36s past K's 32 bytes) from the SHA-256 initial
   state, one of K xor opad (0x5cs).  The message is 32 or 33 bytes,
   so with the 64 of the key block before it the inner hash is one
   padded block, and the outer hash, over the 32-byte inner digest, is
   one more: an HMAC is two compressions, a rekey four.  vni (an OCaml
   bool) picks the SHA-extension kernel; the caller passes
   Block_hash.sha_ni.  The blocks are laid out on the stack. */
value tep_hmac_drbg_step(value vstate, value vop, value vni)
{
  uint32_t *mid = (uint32_t *)Bytes_val(vstate);
  unsigned char *key = Bytes_val(vstate) + 64, *v = key + 32;
  long op = Long_val(vop);
  void (*compress)(uint32_t *, const unsigned char *) =
    Bool_val(vni) ? sha256_ni : sha256_portable;
  unsigned char blk[64];
  uint32_t h[8];
  int i, n;

  if (op != -2) {
    n = op == -1 ? 32 : 33;
    memcpy(blk, v, 32);
    blk[32] = (unsigned char)op;
    hmac_pad(blk, n);
    memcpy(h, mid, 32);
    compress(h, blk);
    store_be(blk, h);
    hmac_pad(blk, 32);
    memcpy(h, mid + 8, 32);
    compress(h, blk);
    if (op == -1) {
      store_be(v, h);
      return Val_unit;
    }
    store_be(key, h);
  }
  for (i = 0; i < 32; i++) blk[i] = key[i] ^ 0x36;
  memset(blk + 32, 0x36, 32);
  memcpy(mid, sha256_iv, 32);
  compress(mid, blk);
  for (i = 0; i < 32; i++) blk[i] = key[i] ^ 0x5c;
  memset(blk + 32, 0x5c, 32);
  memcpy(mid + 8, sha256_iv, 32);
  compress(mid + 8, blk);
  return Val_unit;
}

value tep_sha1_compress(value vstate, value vsrc, value voff)
{
  uint32_t *h = (uint32_t *)Bytes_val(vstate);
  const unsigned char *p = Bytes_val(vsrc) + Long_val(voff);
  uint32_t w[80], a, b, c, d, e;
  int i;

  for (i = 0; i < 16; i++) w[i] = load_be(p + 4 * i);
  for (i = 16; i < 80; i++)
    w[i] = ROTL(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  a = h[0]; b = h[1]; c = h[2]; d = h[3]; e = h[4];
  /* Five rounds per iteration, renaming the variables as in SHA-256
     above. */
#define STEP(a, b, c, d, e, f, k, i)                    \
  e += ROTL(a, 5) + (f) + (k) + w[i];                   \
  b = ROTL(b, 30);
#define FIVE(f, k)                                      \
  STEP(a, b, c, d, e, f(b, c, d), k, i)                 \
  STEP(e, a, b, c, d, f(a, b, c), k, i + 1)             \
  STEP(d, e, a, b, c, f(e, a, b), k, i + 2)             \
  STEP(c, d, e, a, b, f(d, e, a), k, i + 3)             \
  STEP(b, c, d, e, a, f(c, d, e), k, i + 4)
#define CH(x, y, z) (((x) & (y)) | (~(x) & (z)))
#define PARITY(x, y, z) ((x) ^ (y) ^ (z))
#define MAJ(x, y, z) (((x) & (y)) | ((x) & (z)) | ((y) & (z)))
  for (i = 0; i < 20; i += 5) { FIVE(CH, 0x5a827999) }
  for (; i < 40; i += 5) { FIVE(PARITY, 0x6ed9eba1) }
  for (; i < 60; i += 5) { FIVE(MAJ, 0x8f1bbcdc) }
  for (; i < 80; i += 5) { FIVE(PARITY, 0xca62c1d6) }
#undef STEP
#undef FIVE
#undef CH
#undef PARITY
#undef MAJ
  h[0] += a; h[1] += b; h[2] += c; h[3] += d; h[4] += e;
  return Val_unit;
}

value tep_md5_compress(value vstate, value vsrc, value voff)
{
  /* per-round shift amounts and sine-derived constants */
  static const unsigned char s[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
  };
  static const uint32_t k[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
  };
  uint32_t *h = (uint32_t *)Bytes_val(vstate);
  const unsigned char *p = Bytes_val(vsrc) + Long_val(voff);
  uint32_t m[16], a, b, c, d, f;
  int i;

  for (i = 0; i < 16; i++) m[i] = load_le(p + 4 * i);
  a = h[0]; b = h[1]; c = h[2]; d = h[3];
#define MD5_ROUNDS(lo, hi, F, G)                        \
  for (i = lo; i < hi; i++) {                           \
    f = a + (F) + k[i] + m[G];                          \
    a = d; d = c; c = b;                                \
    b = b + ROTL(f, s[i]);                              \
  }
  MD5_ROUNDS(0, 16, (b & c) | (~b & d), i)
  MD5_ROUNDS(16, 32, (d & b) | (~d & c), (5 * i + 1) & 15)
  MD5_ROUNDS(32, 48, b ^ c ^ d, (3 * i + 5) & 15)
  MD5_ROUNDS(48, 64, c ^ (b | ~d), (7 * i) & 15)
#undef MD5_ROUNDS
  h[0] += a; h[1] += b; h[2] += c; h[3] += d;
  return Val_unit;
}
