/* Montgomery multiplication, squaring and exponentiation on 64-bit
   words, the kernels under Zmod.Montgomery (see DESIGN.md §9.2).

   Every multiply computes dst <- a*b*R^{-1} mod m with R = 2^(64n),
   n = ceil(bits(m)/64), as an almost-Montgomery multiply (Gueron,
   J. Cryptographic Engineering 2012): for a and b below R the result
   is again below R, though not necessarily below m.  With U the one
   value in [0, R) that is -ab*m^{-1} mod R,
     a*b + U*m < R^2 + R*m < 2R^2,
   so (a*b + U*m)/R < R + m carries at most one bit out of n words.
   That carry, and nothing else, triggers one subtraction of m, which
   leaves a value below R.  Every kernel adds exactly U*m and subtracts
   on exactly that carry, so all of them give the same words, and a
   squaring gives the words of the multiply a*a.  The portable kernels
   are the oracle of the ADX ones.

   Operands are OCaml [bytes] of native-endian uint64 words:
   - dst, a, b: n words each; dst may alias a or b (rows write only t,
     copied to dst at the end);
   - m: n + 1 words, the modulus zero-padded to n words, then
     m' = -m^{-1} mod 2^64;
   - t: scratch, contents ignored, aliasing nothing, 2n words.

   tep_mont_pow runs a whole sliding-window exponentiation on one
   kernel: the odd-power table, b^2 and the multiply's t live in the
   caller's scratch, and the accumulator is the destination.

   No global state, no allocation, no runtime calls: the OCaml side
   declares them [@@noalloc], and domains may call them concurrently on
   their own dst and scratch.  The multiplies and squarings take at
   most five value arguments, so one function serves as the bytecode
   and the native entry point; the ladder takes six and has a separate
   bytecode entry. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

typedef unsigned __int128 u128;

/* Words of one kernel call: dst, a, b, m, t and the word count. */
typedef void (*mul_fn)(uint64_t *, const uint64_t *, const uint64_t *,
                       const uint64_t *, uint64_t *, size_t);
typedef void (*sqr_fn)(uint64_t *, const uint64_t *, const uint64_t *,
                       uint64_t *, size_t);

#define INLINE static inline __attribute__((always_inline))

/* dst <- r, or r - m when [carry] (the bit above r's n words) is set:
   r + carry*R < R + m, so the difference is below R.  A mask instead
   of a branch keeps the carry, which is set on a sizeable share of
   multiplies, out of the branch predictor. */
INLINE void sub_on_carry(uint64_t *dst, const uint64_t *r,
                         const uint64_t *m, size_t n, uint64_t carry)
{
  uint64_t mask = -carry, borrow = 0;
  size_t j;

  for (j = 0; j < n; j++) {
    uint64_t mj = m[j] & mask, rj = r[j];
    uint64_t d = rj - mj;
    uint64_t b1 = rj < mj;
    dst[j] = d - borrow;
    borrow = b1 | (d < borrow);
  }
}

/* t[0..2n) <- 2t + sum a_i^2 * 2^(128i): the doubling of the cross
   products and the diagonal of a squaring, in one pass.  The sum is
   a^2 < R^2, so nothing carries out of the top word. */
INLINE void double_add_diagonal(uint64_t *t, const uint64_t *a, size_t n)
{
  uint64_t shifted = 0, carry = 0;
  size_t i;

  for (i = 0; i < n; i++) {
    uint64_t lo = t[2 * i], hi = t[2 * i + 1];
    u128 sq = (u128)a[i] * a[i];
    u128 s = (u128)((lo << 1) | shifted) + (uint64_t)sq + carry;
    t[2 * i] = (uint64_t)s;
    s = (u128)((hi << 1) | (lo >> 63)) + (uint64_t)(sq >> 64) +
        (uint64_t)(s >> 64);
    t[2 * i + 1] = (uint64_t)s;
    carry = (uint64_t)(s >> 64);
    shifted = hi >> 63;
  }
}

/* The portable kernels, and the oracles of the ADX ones.

   OCaml has no 64x64 -> 128-bit multiply, so a pure-OCaml kernel is
   held to 31-bit limbs; unsigned __int128 gives the full product here.
   Each step adds one word product and two values below 2^64, at most
   (2^64 - 1)^2 + 2(2^64 - 1) = 2^128 - 1: nothing overflows.

   The multiply is fused operand scanning (FIOS): row i adds a_i*b and
   u*m to the running value and shifts it down a word.  For a, b < R
   the running value stays below R + m: if it is at most R + m - 1
   before a row, it is at most
     (R + m - 1 + (2^64 - 1)(R - 1) + (2^64 - 1)m) / 2^64 = R + m - 1
   after it.  So a row's state is n words plus one carry word [top]
   that is 0 or 1 between rows, and the final [top] is the carry that
   triggers the subtraction.

   The body is inlined into one kernel for each word count of a key
   size in use (4, 8, 16 and 32 words: 256- to 2048-bit moduli) with n
   a constant, and its inner loop unrolled, so that the row's carries
   and word offsets stay in registers instead of being reloaded from
   the stack; other word counts take the generic instance. */
INLINE void fios_mul(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                     const uint64_t *m, uint64_t *t, size_t n)
{
  uint64_t minv = m[n], top = 0;
  size_t i, j;

  memset(t, 0, n * sizeof(uint64_t));
  for (i = 0; i < n; i++) {
    uint64_t ai = a[i];
    u128 p = (u128)t[0] + (u128)ai * b[0];
    uint64_t u = (uint64_t)p * minv;
    /* the low word of q is zero by the choice of u: keep its carry */
    u128 q = (u128)(uint64_t)p + (u128)u * m[0];
    uint64_t c1 = (uint64_t)(p >> 64), c2 = (uint64_t)(q >> 64);
#pragma GCC unroll 8
    for (j = 1; j < n; j++) {
      p = (u128)t[j] + (u128)ai * b[j] + c1;
      q = (u128)(uint64_t)p + (u128)u * m[j] + c2;
      t[j - 1] = (uint64_t)q;
      c1 = (uint64_t)(p >> 64);
      c2 = (uint64_t)(q >> 64);
    }
    p = (u128)top + c1 + c2;
    t[n - 1] = (uint64_t)p;
    top = (uint64_t)(p >> 64);
  }
  sub_on_carry(dst, t, m, n, top);
}

/* The reduction of separated operand scanning, shared by the portable
   squaring and (with its rows in assembly) the ADX kernels: row i adds
   u*m at t + i, u = t[i]*m' mod 2^64, which zeroes t[i].  The row's
   top word is added at t[i + n], and the carry out of that add (a bit)
   is deferred to position i + n + 1, where the next row's top word
   lands.  The last deferred carry is the bit above R of
   (a*b + U*m)/R = t[n..2n). */
#define DEFER_TOP(t, i, n, top, carry)                                  \
  do {                                                                  \
    uint64_t s_ = (t)[(i) + (n)] + (top);                               \
    uint64_t c_ = s_ < (top);                                           \
    (t)[(i) + (n)] = s_ + (carry);                                      \
    (carry) = c_ + ((t)[(i) + (n)] < (carry));                          \
  } while (0)

/* The portable squaring: the cross products a_i*a_j (i < j) once, row
   i adding a_i*a[i+1..n) at t + 2i + 1 and storing its top word at
   t[i + n]; then the doubling and the diagonal; then the reduction.
   One instance serves every word count: with its loops unrolled by
   eight, it ran no faster with n a constant. */
static void portable_sqr(uint64_t *dst, const uint64_t *a, const uint64_t *m,
                         uint64_t *t, size_t n)
{
  uint64_t minv = m[n], carry = 0;
  size_t i, j;

  memset(t, 0, n * sizeof(uint64_t));
  t[2 * n - 1] = 0;
  for (i = 0; i + 1 < n; i++) {
    uint64_t ai = a[i], c = 0;
#pragma GCC unroll 8
    for (j = i + 1; j < n; j++) {
      u128 p = (u128)ai * a[j] + t[i + j] + c;
      t[i + j] = (uint64_t)p;
      c = (uint64_t)(p >> 64);
    }
    t[i + n] = c;
  }
  double_add_diagonal(t, a, n);
  for (i = 0; i < n; i++) {
    uint64_t u = t[i] * minv, c = 0;
#pragma GCC unroll 8
    for (j = 0; j < n; j++) {
      u128 p = (u128)u * m[j] + t[i + j] + c;
      t[i + j] = (uint64_t)p;
      c = (uint64_t)(p >> 64);
    }
    DEFER_TOP(t, i, n, c, carry);
  }
  sub_on_carry(dst, t + n, m, n, carry);
}

static void fios_mul_any(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                         const uint64_t *m, uint64_t *t, size_t n)
{
  fios_mul(dst, a, b, m, t, n);
}

#define PORTABLE(n)                                                     \
  static void fios_mul_##n(uint64_t *dst, const uint64_t *a,            \
                           const uint64_t *b, const uint64_t *m,        \
                           uint64_t *t, size_t n_)                      \
  {                                                                     \
    (void)n_;                                                           \
    fios_mul(dst, a, b, m, t, n);                                       \
  }

PORTABLE(4) PORTABLE(8) PORTABLE(16) PORTABLE(32)

static mul_fn portable_mul(size_t n)
{
  switch (n) {
  case 4: return fios_mul_4;
  case 8: return fios_mul_8;
  case 16: return fios_mul_16;
  case 32: return fios_mul_32;
  default: return fios_mul_any;
  }
}

/* The word count of a modulus buffer: m holds 8(n + 1) bytes, so its
   block has n + 2 words, the last one the bytes padding. */
#define WORDS_OF_MODULUS(vm) (Wosize_val(vm) - 2)
#define WORDS(v) ((uint64_t *)Bytes_val(v))

/* Bit i of the big-endian exponent e of len bytes. */
INLINE int exp_bit(const uint8_t *e, size_t len, size_t i)
{
  return (e[len - 1 - i / 8] >> (i % 8)) & 1;
}

/* acc <- base^e in Montgomery form by the left-to-right sliding window
   of Zmod.Montgomery.pow, window size k: the odd powers
   base, base^3, ..., base^(2^k - 1) are precomputed; a zero bit costs
   one squaring, and a window of up to k bits that starts and ends on a
   set bit costs its squarings and one table multiply; the first window
   loads its table entry.  e > 0, 1 <= k <= 6; acc must not alias base.
   scratch holds (2 + 2^(k-1))n words: t, base^2, then the table entries
   after base. */
static void mont_pow(mul_fn mul, sqr_fn sqr, uint64_t *acc,
                     const uint64_t *base, const uint8_t *e, size_t elen,
                     const uint64_t *m, uint64_t *scratch, int k, size_t n)
{
  const uint64_t *table[32];
  uint64_t *t = scratch, *b2 = scratch + 2 * n;
  size_t ebits, entries = (size_t)1 << (k - 1), i;
  long bit;
  int first = 1;

  while (elen > 0 && e[0] == 0) {
    e++;
    elen--;
  }
  if (elen == 0)
    return;
  ebits = 8 * elen;
  while (!exp_bit(e, elen, ebits - 1))
    ebits--;

  table[0] = base;
  if (k > 1) {
    sqr(b2, base, m, t, n);
    for (i = 1; i < entries; i++) {
      uint64_t *x = b2 + i * n;
      mul(x, table[i - 1], b2, m, t, n);
      table[i] = x;
    }
  }
  bit = (long)ebits - 1;
  while (bit >= 0) {
    if (!exp_bit(e, elen, bit)) {
      sqr(acc, acc, m, t, n);
      bit--;
    } else {
      /* the widest window e[bit..l], l > bit - k, with bit l set */
      long l = bit - k + 1 < 0 ? 0 : bit - k + 1, j;
      unsigned w = 0;
      while (!exp_bit(e, elen, l))
        l++;
      for (j = bit; j >= l; j--)
        w = (w << 1) | exp_bit(e, elen, j);
      if (first) {
        memcpy(acc, table[w >> 1], n * sizeof(uint64_t));
        first = 0;
      } else {
        for (j = l; j <= bit; j++)
          sqr(acc, acc, m, t, n);
        mul(acc, acc, table[w >> 1], m, t, n);
      }
      bit = l - 1;
    }
  }
}

/* A [string]'s length from its header and last byte, as
   caml_string_length computes it, without a runtime call. */
#define STRING_LENGTH(v) (Bosize_val(v) - 1 - Byte(v, Bosize_val(v) - 1))

value tep_mont_mul(value vdst, value va, value vb, value vm, value vt)
{
  size_t n = WORDS_OF_MODULUS(vm);
  portable_mul(n)(WORDS(vdst), WORDS(va), WORDS(vb), WORDS(vm), WORDS(vt), n);
  return Val_unit;
}

value tep_mont_sqr(value vdst, value va, value vm, value vt)
{
  size_t n = WORDS_OF_MODULUS(vm);
  portable_sqr(WORDS(vdst), WORDS(va), WORDS(vm), WORDS(vt), n);
  return Val_unit;
}

value tep_mont_pow(value vacc, value vbase, value ve, value vm,
                   value vscratch, value vk)
{
  size_t n = WORDS_OF_MODULUS(vm);
  mont_pow(portable_mul(n), portable_sqr, WORDS(vacc), WORDS(vbase),
           (const uint8_t *)String_val(ve), STRING_LENGTH(ve), WORDS(vm),
           WORDS(vscratch), (int)Long_val(vk), n);
  return Val_unit;
}

value tep_mont_pow_byte(value *argv, int argn)
{
  (void)argn;
  return tep_mont_pow(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* The kernels on the x86-64 BMI2 and ADX instructions, for n <= 17
   words (moduli up to 1,088 bits).  They must only run where
   tep_mont_adx_available says so; Zmod checks once, at module
   initialisation.

   A u128 kernel tops out on instruction count: each word product
   needs its carries folded through ordinary add/adc, which share the
   one carry flag, so the two chains of a row serialise.  mulx leaves
   the flags alone, adcx carries through CF only and adox through OF
   only, so a row r[0..n) += x[0..n)*y runs as two independent carry
   chains, one per flag: adcx adds r[j], adox adds the high half of
   the previous word product.

   Separated operand scanning, built from that one row:
   - multiply: t[0..2n) = a*b, n rows, row i adding a[i]*b at t + i
     and storing its top word at t[i + n];
   - squaring: t[0..2n) = a^2, the cross products in n - 1 rows of
     n - 1, ..., 1 words, row i adding a[i]*a[i+1..n) at t + 2i + 1 and
     storing its top word at t[i + n], then the doubling and the
     diagonal in one pass (double_add_diagonal);
   - reduction: n rows as in the portable squaring (DEFER_TOP), then
     the subtraction on the last carry.

   Each row is one asm block, fully unrolled by the preprocessor: ROW_N
   is ROW_{N-1} and one more step.  Step j multiplies into r8 (low) and
   r9 or r10 (high, alternating, so that the previous high half is
   still there for adox). */
#if defined(__x86_64__)
#include <cpuid.h>

#define STEP_0                                                          \
  "mulx (%[x]), %%r8, %%r9\n\t"                                         \
  "adcx (%[r]), %%r8\n\t"                                               \
  "movq %%r8, (%[r])\n\t"
#define STEP(j, hi, prev)                                               \
  "mulx 8*" #j "(%[x]), %%r8, %%" hi "\n\t"                             \
  "adcx 8*" #j "(%[r]), %%r8\n\t"                                       \
  "adox %%" prev ", %%r8\n\t"                                           \
  "movq %%r8, 8*" #j "(%[r])\n\t"
/* step j writes its high half to r9 for even j, r10 for odd j */
#define STEP_EVEN(j) STEP(j, "r9", "r10")
#define STEP_ODD(j) STEP(j, "r10", "r9")
/* the top word: the last high half plus both chains' carries; the
   row's value r + x*y < 2^(64(n+1)) keeps it from wrapping */
#define TOP(hi)                                                         \
  "adcx %[zero], %%" hi "\n\t"                                          \
  "adox %[zero], %%" hi "\n\t"                                          \
  "movq %%" hi ", %[top]\n\t"

#define ROW_1 STEP_0
#define ROW_2 ROW_1 STEP_ODD(1)
#define ROW_3 ROW_2 STEP_EVEN(2)
#define ROW_4 ROW_3 STEP_ODD(3)
#define ROW_5 ROW_4 STEP_EVEN(4)
#define ROW_6 ROW_5 STEP_ODD(5)
#define ROW_7 ROW_6 STEP_EVEN(6)
#define ROW_8 ROW_7 STEP_ODD(7)
#define ROW_9 ROW_8 STEP_EVEN(8)
#define ROW_10 ROW_9 STEP_ODD(9)
#define ROW_11 ROW_10 STEP_EVEN(10)
#define ROW_12 ROW_11 STEP_ODD(11)
#define ROW_13 ROW_12 STEP_EVEN(12)
#define ROW_14 ROW_13 STEP_ODD(13)
#define ROW_15 ROW_14 STEP_EVEN(14)
#define ROW_16 ROW_15 STEP_ODD(15)
#define ROW_17 ROW_16 STEP_EVEN(16)
#define TOP_ODD_N TOP("r9")   /* n odd: the last step, n - 1, is even */
#define TOP_EVEN_N TOP("r10")

#define ADDMUL(n, tail)                                                 \
  static inline uint64_t addmul_##n(uint64_t *r, const uint64_t *x,     \
                                    uint64_t y)                         \
  {                                                                     \
    uint64_t top, zero;                                                 \
    /* xor clears CF and OF as well as the zero register */             \
    __asm__("xorl %k[zero], %k[zero]\n\t" ROW_##n tail                  \
            : [top] "=&r"(top), [zero] "=&r"(zero)                      \
            : [r] "r"(r), [x] "r"(x), "d"(y)                            \
            : "r8", "r9", "r10", "cc", "memory");                       \
    return top;                                                         \
  }

ADDMUL(1, TOP_ODD_N)
ADDMUL(2, TOP_EVEN_N)
ADDMUL(3, TOP_ODD_N)
ADDMUL(4, TOP_EVEN_N)
ADDMUL(5, TOP_ODD_N)
ADDMUL(6, TOP_EVEN_N)
ADDMUL(7, TOP_ODD_N)
ADDMUL(8, TOP_EVEN_N)
ADDMUL(9, TOP_ODD_N)
ADDMUL(10, TOP_EVEN_N)
ADDMUL(11, TOP_ODD_N)
ADDMUL(12, TOP_EVEN_N)
ADDMUL(13, TOP_ODD_N)
ADDMUL(14, TOP_EVEN_N)
ADDMUL(15, TOP_ODD_N)
ADDMUL(16, TOP_EVEN_N)
ADDMUL(17, TOP_ODD_N)

typedef uint64_t (*addmul_fn)(uint64_t *, const uint64_t *, uint64_t);

/* The doubling and the diagonal of a squaring on the same two carry
   chains: step i squares a_i into r8 (low) and r9 (high), adcx doubles
   t[2i] and t[2i+1] through CF (the bit shifted out of one word enters
   the next), and adox adds the square through OF.  a^2 < R^2, so both
   chains end with a zero carry. */
#define DIAG(i)                                                         \
  "movq 8*" #i "(%[a]), %%rdx\n\t"                                       \
  "mulx %%rdx, %%r8, %%r9\n\t"                                          \
  "movq 16*" #i "(%[t]), %%r10\n\t"                                     \
  "movq 16*" #i "+8(%[t]), %%r11\n\t"                                   \
  "adcx %%r10, %%r10\n\t"                                               \
  "adcx %%r11, %%r11\n\t"                                               \
  "adox %%r8, %%r10\n\t"                                                \
  "adox %%r9, %%r11\n\t"                                                \
  "movq %%r10, 16*" #i "(%[t])\n\t"                                     \
  "movq %%r11, 16*" #i "+8(%[t])\n\t"

#define DIAG_1 DIAG(0)
#define DIAG_2 DIAG_1 DIAG(1)
#define DIAG_3 DIAG_2 DIAG(2)
#define DIAG_4 DIAG_3 DIAG(3)
#define DIAG_5 DIAG_4 DIAG(4)
#define DIAG_6 DIAG_5 DIAG(5)
#define DIAG_7 DIAG_6 DIAG(6)
#define DIAG_8 DIAG_7 DIAG(7)
#define DIAG_9 DIAG_8 DIAG(8)
#define DIAG_10 DIAG_9 DIAG(9)
#define DIAG_11 DIAG_10 DIAG(10)
#define DIAG_12 DIAG_11 DIAG(11)
#define DIAG_13 DIAG_12 DIAG(12)
#define DIAG_14 DIAG_13 DIAG(13)
#define DIAG_15 DIAG_14 DIAG(14)
#define DIAG_16 DIAG_15 DIAG(15)
#define DIAG_17 DIAG_16 DIAG(16)

#define DOUBLE_ADD_DIAGONAL(n)                                          \
  static inline void double_add_diagonal_##n(uint64_t *t,               \
                                             const uint64_t *a)         \
  {                                                                     \
    /* without outputs the block is volatile, so it is kept although */ \
    /* it writes t only through memory */                               \
    __asm__("xorl %%r8d, %%r8d\n\t" DIAG_##n                            \
            :                                                           \
            : [t] "r"(t), [a] "r"(a)                                    \
            : "rdx", "r8", "r9", "r10", "r11", "cc", "memory");         \
  }

/* Inlined into each word count's kernels with its row as a constant. */
INLINE void adx_reduce(uint64_t *dst, uint64_t *t, const uint64_t *m,
                       size_t n, addmul_fn row)
{
  uint64_t minv = m[n], carry = 0;
  size_t i;

  for (i = 0; i < n; i++) {
    uint64_t top = row(t + i, m, t[i] * minv);
    DEFER_TOP(t, i, n, top, carry);
  }
  sub_on_carry(dst, t + n, m, n, carry);
}

INLINE void adx_mul(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                    const uint64_t *m, uint64_t *t, size_t n, addmul_fn row)
{
  size_t i;

  memset(t, 0, n * sizeof(uint64_t));
  for (i = 0; i < n; i++)
    t[i + n] = row(t + i, b, a[i]);
  adx_reduce(dst, t, m, n, row);
}

/* Cross-product row i = n - L - 1, of L words; with n a constant, the
   switch below starts at row 0 and falls through to the last row. */
#define CROSS(L)                                                        \
  case L + 1:                                                           \
    t[i + n] = addmul_##L(t + 2 * i + 1, a + i + 1, a[i]);              \
    i++;                                                                \
    __attribute__((fallthrough));

INLINE void adx_sqr(uint64_t *dst, const uint64_t *a, const uint64_t *m,
                    uint64_t *t, size_t n, addmul_fn row,
                    void (*diagonal)(uint64_t *, const uint64_t *))
{
  size_t i = 0;

  memset(t, 0, n * sizeof(uint64_t));
  t[2 * n - 1] = 0;
  switch (n) {
    CROSS(16) CROSS(15) CROSS(14) CROSS(13) CROSS(12) CROSS(11)
    CROSS(10) CROSS(9) CROSS(8) CROSS(7) CROSS(6) CROSS(5) CROSS(4)
    CROSS(3) CROSS(2) CROSS(1)
  default:
    break;
  }
  diagonal(t, a);
  adx_reduce(dst, t, m, n, row);
}

#define KERNEL(n)                                                       \
  DOUBLE_ADD_DIAGONAL(n)                                                \
  static void adx_mul_##n(uint64_t *dst, const uint64_t *a,             \
                          const uint64_t *b, const uint64_t *m,         \
                          uint64_t *t, size_t n_)                       \
  {                                                                     \
    (void)n_;                                                           \
    adx_mul(dst, a, b, m, t, n, addmul_##n);                            \
  }                                                                     \
  static void adx_sqr_##n(uint64_t *dst, const uint64_t *a,             \
                          const uint64_t *m, uint64_t *t, size_t n_)    \
  {                                                                     \
    (void)n_;                                                           \
    adx_sqr(dst, a, m, t, n, addmul_##n, double_add_diagonal_##n);      \
  }

KERNEL(1) KERNEL(2) KERNEL(3) KERNEL(4) KERNEL(5) KERNEL(6) KERNEL(7)
KERNEL(8) KERNEL(9) KERNEL(10) KERNEL(11) KERNEL(12) KERNEL(13)
KERNEL(14) KERNEL(15) KERNEL(16) KERNEL(17)

static const mul_fn adx_muls[18] = {
  NULL, adx_mul_1, adx_mul_2, adx_mul_3, adx_mul_4, adx_mul_5,
  adx_mul_6, adx_mul_7, adx_mul_8, adx_mul_9, adx_mul_10,
  adx_mul_11, adx_mul_12, adx_mul_13, adx_mul_14, adx_mul_15,
  adx_mul_16, adx_mul_17
};

static const sqr_fn adx_sqrs[18] = {
  NULL, adx_sqr_1, adx_sqr_2, adx_sqr_3, adx_sqr_4, adx_sqr_5,
  adx_sqr_6, adx_sqr_7, adx_sqr_8, adx_sqr_9, adx_sqr_10,
  adx_sqr_11, adx_sqr_12, adx_sqr_13, adx_sqr_14, adx_sqr_15,
  adx_sqr_16, adx_sqr_17
};

/* Above 17 words the portable kernels run. */
static mul_fn adx_or_portable_mul(size_t n)
{
  return n <= 17 ? adx_muls[n] : portable_mul(n);
}

static sqr_fn adx_or_portable_sqr(size_t n)
{
  return n <= 17 ? adx_sqrs[n] : portable_sqr;
}

/* Whether this CPU has BMI2 (mulx) and ADX (adcx, adox): CPUID leaf 7
   (subleaf 0) EBX bits 8 and 19. */
value tep_mont_adx_available(value unit)
{
  unsigned int eax, ebx, ecx, edx;
  (void)unit;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
    return Val_false;
  return Val_bool((ebx & (1u << 8)) && (ebx & (1u << 19)));
}
#else
/* Not x86-64: there are no ADX kernels.  The entry points exist so
   that the OCaml side links; they are never selected. */
#define adx_or_portable_mul portable_mul
#define adx_or_portable_sqr(n) portable_sqr

value tep_mont_adx_available(value unit)
{
  (void)unit;
  return Val_false;
}
#endif

value tep_mont_mul_adx(value vdst, value va, value vb, value vm, value vt)
{
  size_t n = WORDS_OF_MODULUS(vm);
  adx_or_portable_mul(n)(WORDS(vdst), WORDS(va), WORDS(vb), WORDS(vm),
                         WORDS(vt), n);
  return Val_unit;
}

value tep_mont_sqr_adx(value vdst, value va, value vm, value vt)
{
  size_t n = WORDS_OF_MODULUS(vm);
  adx_or_portable_sqr(n)(WORDS(vdst), WORDS(va), WORDS(vm), WORDS(vt), n);
  return Val_unit;
}

value tep_mont_pow_adx(value vacc, value vbase, value ve, value vm,
                       value vscratch, value vk)
{
  size_t n = WORDS_OF_MODULUS(vm);
  mont_pow(adx_or_portable_mul(n), adx_or_portable_sqr(n), WORDS(vacc),
           WORDS(vbase), (const uint8_t *)String_val(ve), STRING_LENGTH(ve),
           WORDS(vm), WORDS(vscratch), (int)Long_val(vk), n);
  return Val_unit;
}

value tep_mont_pow_adx_byte(value *argv, int argn)
{
  (void)argn;
  return tep_mont_pow_adx(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5]);
}
