/* Montgomery multiplication on 64-bit words, the one kernel under
   Zmod.Montgomery (see DESIGN.md §9.2).

   OCaml has no 64x64 -> 128-bit multiply, so the pure-OCaml kernel is
   held to 31-bit limbs; unsigned __int128 gives the full product here
   and cuts the limb products of a 512-bit multiply from 17x17 to 9x9.

   Fused operand scanning (FIOS), lazily reduced: dst <- a*b*R^{-1}
   mod m with R = 2^(64n), for a and b in [0, 2m), and the result is
   again in [0, 2m).  The caller guarantees 4m < R, so that
     (a*b + u*m) / R < 4m^2/R + m < 2m
   and no multiply ever compares or subtracts.  During a row the
   running value stays below t/2^64 + 3m < 4m < R, so it fits in n
   words and the top word c1 + c2 cannot wrap.  Every step is at most
   (2^64 - 1) + (2^64 - 1)^2 + (2^64 - 1) = 2^128 - 1: nothing
   overflows.

   Operands are OCaml [bytes] of native-endian uint64 words:
   - dst, a, b: n words each; dst may alias a or b (rows write only t,
     copied to dst at the end);
   - m: n + 1 words, the modulus zero-padded to n words, then
     m' = -m^{-1} mod 2^64;
   - t: n words of scratch, contents ignored, aliasing nothing.

   No global state, no allocation, no runtime calls: the OCaml side
   declares it [@@noalloc], and domains may call it concurrently on
   their own dst and t.  With five value arguments the same function
   serves as the bytecode and the native entry point. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

typedef unsigned __int128 u128;

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
