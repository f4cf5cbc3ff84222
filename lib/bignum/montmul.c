/* Montgomery multiplication on 64-bit words, the kernels under
   Zmod.Montgomery (see DESIGN.md §9.2).

   Both compute dst <- a*b*R^{-1} mod m with R = 2^(64n), lazily: for a
   and b in [0, 2m) the result is again in [0, 2m).  The caller
   guarantees 4m < R, so that
     (a*b + u*m) / R < 4m^2/R + m < 2m
   and no multiply ever compares or subtracts.  U = -ab*m^{-1} mod R
   has one value in [0, R), and both kernels add exactly U*m, so their
   outputs are equal word for word.

   Operands are OCaml [bytes] of native-endian uint64 words:
   - dst, a, b: n words each; dst may alias a or b (rows write only t,
     copied to dst at the end);
   - m: n + 1 words, the modulus zero-padded to n words, then
     m' = -m^{-1} mod 2^64;
   - t: scratch, contents ignored, aliasing nothing: n words for the
     portable kernel, 2n for the ADX one.

   No global state, no allocation, no runtime calls: the OCaml side
   declares them [@@noalloc], and domains may call them concurrently on
   their own dst and t.  With five value arguments the same function
   serves as the bytecode and the native entry point. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

typedef unsigned __int128 u128;

/* The portable kernel, and the oracle of the ADX one.

   OCaml has no 64x64 -> 128-bit multiply, so a pure-OCaml kernel is
   held to 31-bit limbs; unsigned __int128 gives the full product here.
   Fused operand scanning (FIOS): during a row the running value stays
   below t/2^64 + 3m < 4m < R, so it fits in n words and the top word
   c1 + c2 cannot wrap.  Every step is at most
   (2^64 - 1) + (2^64 - 1)^2 + (2^64 - 1) = 2^128 - 1: nothing
   overflows. */
value tep_mont_mul(value vdst, value va, value vb, value vm, value vt)
{
  const uint64_t *a = (const uint64_t *)Bytes_val(va);
  const uint64_t *b = (const uint64_t *)Bytes_val(vb);
  const uint64_t *m = (const uint64_t *)Bytes_val(vm);
  uint64_t *t = (uint64_t *)Bytes_val(vt);
  /* m holds 8(n + 1) bytes, so its block has n + 2 words: the last
     one is the bytes padding */
  size_t n = Wosize_val(vm) - 2;
  uint64_t minv = m[n];
  size_t i, j;

  memset(t, 0, n * sizeof(uint64_t));
  for (i = 0; i < n; i++) {
    uint64_t ai = a[i];
    u128 p = (u128)t[0] + (u128)ai * b[0];
    uint64_t u = (uint64_t)p * minv;
    /* the low word of q is zero by the choice of u: keep its carry */
    u128 q = (u128)(uint64_t)p + (u128)u * m[0];
    uint64_t c1 = (uint64_t)(p >> 64), c2 = (uint64_t)(q >> 64);
    for (j = 1; j < n; j++) {
      p = (u128)t[j] + (u128)ai * b[j] + c1;
      q = (u128)(uint64_t)p + (u128)u * m[j] + c2;
      t[j - 1] = (uint64_t)q;
      c1 = (uint64_t)(p >> 64);
      c2 = (uint64_t)(q >> 64);
    }
    t[n - 1] = c1 + c2;
  }
  memcpy(Bytes_val(vdst), t, n * sizeof(uint64_t));
  return Val_unit;
}

/* The kernel on the x86-64 BMI2 and ADX instructions, for n <= 17
   words (moduli up to 1,086 bits).  It must only run where
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
   - product: t[0..2n) = a*b, n rows, row i adding a[i]*b at t + i and
     storing its top word at t[i + n];
   - reduction: n rows, row i adding u*m at t + i, u = t[i]*m' mod 2^64,
     so that t[i] becomes zero.  Its top word is added at t[i + n]; the
     carry out of that add (a bit) is deferred to position i + n + 1,
     where the next row's top word lands.
   The sum a*b + U*m < 4m^2 + R*m < 2R*m < R^2/2 fits in 2n words, so
   the last deferred carry is zero, and t[n..2n) is the result.

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

/* Inlined into each word count's kernel with its row as a constant. */
static inline __attribute__((always_inline)) void
mont_mul_sos(uint64_t *dst, const uint64_t *a, const uint64_t *b,
             const uint64_t *m, uint64_t *t, size_t n, addmul_fn row)
{
  uint64_t minv = m[n], carry = 0;
  size_t i;

  memset(t, 0, n * sizeof(uint64_t));
  for (i = 0; i < n; i++)
    t[i + n] = row(t + i, b, a[i]);
  for (i = 0; i < n; i++) {
    uint64_t top = row(t + i, m, t[i] * minv);
    uint64_t s = t[i + n] + top;
    uint64_t c = s < top;
    t[i + n] = s + carry;
    carry = c + (t[i + n] < carry);
  }
  memcpy(dst, t + n, n * sizeof(uint64_t));
}

#define KERNEL(n)                                                       \
  static void mont_mul_##n(uint64_t *dst, const uint64_t *a,            \
                           const uint64_t *b, const uint64_t *m,        \
                           uint64_t *t)                                 \
  {                                                                     \
    mont_mul_sos(dst, a, b, m, t, n, addmul_##n);                       \
  }

KERNEL(1) KERNEL(2) KERNEL(3) KERNEL(4) KERNEL(5) KERNEL(6) KERNEL(7)
KERNEL(8) KERNEL(9) KERNEL(10) KERNEL(11) KERNEL(12) KERNEL(13)
KERNEL(14) KERNEL(15) KERNEL(16) KERNEL(17)

typedef void (*kernel_fn)(uint64_t *, const uint64_t *, const uint64_t *,
                          const uint64_t *, uint64_t *);

static const kernel_fn adx_kernels[18] = {
  NULL, mont_mul_1, mont_mul_2, mont_mul_3, mont_mul_4, mont_mul_5,
  mont_mul_6, mont_mul_7, mont_mul_8, mont_mul_9, mont_mul_10,
  mont_mul_11, mont_mul_12, mont_mul_13, mont_mul_14, mont_mul_15,
  mont_mul_16, mont_mul_17
};

/* Above 17 words the portable kernel runs (it needs only n words of
   the 2n-word scratch). */
value tep_mont_mul_adx(value vdst, value va, value vb, value vm, value vt)
{
  size_t n = Wosize_val(vm) - 2; /* as in tep_mont_mul */

  if (n > 17)
    return tep_mont_mul(vdst, va, vb, vm, vt);
  adx_kernels[n]((uint64_t *)Bytes_val(vdst), (const uint64_t *)Bytes_val(va),
                 (const uint64_t *)Bytes_val(vb),
                 (const uint64_t *)Bytes_val(vm), (uint64_t *)Bytes_val(vt));
  return Val_unit;
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
/* Not x86-64: there is no ADX kernel.  The entry point exists so that
   the OCaml side links; it is never selected. */
value tep_mont_mul_adx(value vdst, value va, value vb, value vm, value vt)
{
  return tep_mont_mul(vdst, va, vb, vm, vt);
}

value tep_mont_adx_available(value unit)
{
  (void)unit;
  return Val_false;
}
#endif
