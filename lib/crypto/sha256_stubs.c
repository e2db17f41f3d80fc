/* SHA-256 block compression (FIPS 180-4), the one native kernel under
   every digest and MAC in the simulator.

   [caml_bft_sha256_compress h s off n] compresses the [n] consecutive
   64-byte blocks of [s] starting at [off] into the eight-word state [h]
   (an OCaml int array holding 32-bit values). The OCaml caller has
   already checked the range; this file trusts it.

   Two kernels compute the same function:
   - SHA-NI (x86-64 SHA extensions: sha256rnds2/msg1/msg2), used when
     cpuid reports SHA, SSE4.1 and SSSE3;
   - portable C, everywhere else.
   The choice is made once, from cpuid alone, on first use.
   [caml_bft_sha256_force] exists only so tests can run each kernel on
   one host (Sha256.For_testing.with_kernel).

   [caml_bft_hmac_digest] is the whole one-block HMAC over a 32-byte
   message digest -- padding and both compressions -- in one call, the
   MAC every authenticator entry and signature costs. */

#include <stdint.h>
#include <stddef.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define HAVE_SHANI_KERNEL 1
#include <cpuid.h>
#include <immintrin.h>
#endif

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* --- portable kernel ------------------------------------------------- */

#define ROR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))
#define BSIG0(x) (ROR(x, 2) ^ ROR(x, 13) ^ ROR(x, 22))
#define BSIG1(x) (ROR(x, 6) ^ ROR(x, 11) ^ ROR(x, 25))
#define SSIG0(x) (ROR(x, 7) ^ ROR(x, 18) ^ ((x) >> 3))
#define SSIG1(x) (ROR(x, 17) ^ ROR(x, 19) ^ ((x) >> 10))

static inline uint32_t load_be32(const uint8_t *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) | ((uint32_t)p[2] << 8) | p[3];
}

/* Fully unrolled, the a..h rotation is pure register renaming. */
static void compress_portable(uint32_t st[8], const uint8_t *p, size_t n)
{
  uint32_t w[64];
  for (; n > 0; n--, p += 64) {
    for (int t = 0; t < 16; t++) w[t] = load_be32(p + 4 * t);
#pragma GCC unroll 48
    for (int t = 16; t < 64; t++)
      w[t] = SSIG1(w[t - 2]) + w[t - 7] + SSIG0(w[t - 15]) + w[t - 16];
    uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    uint32_t e = st[4], f = st[5], g = st[6], h = st[7];
#pragma GCC unroll 64
    for (int t = 0; t < 64; t++) {
      uint32_t t1 = h + BSIG1(e) + (g ^ (e & (f ^ g))) + K[t] + w[t];
      uint32_t t2 = BSIG0(a) + ((a & b) | (c & (a | b)));
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d;
    st[4] += e; st[5] += f; st[6] += g; st[7] += h;
  }
}

/* --- SHA-NI kernel ----------------------------------------------------- */

#ifdef HAVE_SHANI_KERNEL
/* The SHA extensions keep the state as two lanes, ABEF and CDGH; each
   sha256rnds2 runs two rounds, and msg1/msg2 extend the message schedule
   four words at a time: X[j+4] = msg2(msg1(X[j], X[j+1]) + X[j+3:j+2]>>32,
   X[j+3]) for the four-word groups X[j] = W[4j..4j+3]. */
__attribute__((target("sha,sse4.1,ssse3")))
static void compress_shani(uint32_t st[8], const uint8_t *p, size_t n)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128((const __m128i *)&st[0]);
  __m128i hgfe = _mm_loadu_si128((const __m128i *)&st[4]);
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; n > 0; n--, p += 64) {
    __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i x[4];
    for (int j = 0; j < 4; j++)
      x[j] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16 * j)), bswap);
#pragma GCC unroll 16
    for (int j = 0; j < 16; j++) {
      __m128i m = _mm_add_epi32(x[j & 3], _mm_loadu_si128((const __m128i *)&K[4 * j]));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, m);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(m, 0x0E));
      if (j < 12) {
        __m128i w7 = _mm_alignr_epi8(x[(j + 3) & 3], x[(j + 2) & 3], 4);
        x[j & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(x[j & 3], x[(j + 1) & 3]), w7), x[(j + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(dchg, feba, 8));
}

static int cpu_has_shani(void)
{
  unsigned a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  int sse41 = (c >> 19) & 1, ssse3 = (c >> 9) & 1;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return sse41 && ssse3 && ((b >> 29) & 1);
}
#else
static int cpu_has_shani(void) { return 0; }
#endif

/* --- dispatch ---------------------------------------------------------- */

enum { KERNEL_UNSET = -1, KERNEL_PORTABLE = 0, KERNEL_SHANI = 1 };

static int kernel = KERNEL_UNSET;

static int active_kernel(void)
{
  if (kernel == KERNEL_UNSET) kernel = cpu_has_shani() ? KERNEL_SHANI : KERNEL_PORTABLE;
  return kernel;
}

static void compress(uint32_t st[8], const uint8_t *p, size_t n)
{
#ifdef HAVE_SHANI_KERNEL
  if (active_kernel() == KERNEL_SHANI) compress_shani(st, p, n);
  else
#endif
    compress_portable(st, p, n);
}

static void load_words(uint32_t st[8], value h)
{
  for (int i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
}

value caml_bft_sha256_compress(value h, value s, value off, value n)
{
  uint32_t st[8];
  load_words(st, h);
  compress(st, (const uint8_t *)String_val(s) + Long_val(off), Long_val(n));
  /* immediates need no write barrier */
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
  return Val_unit;
}

/* --- one-block HMAC over a 32-byte digest ------------------------------ */

static void store_be32(uint8_t *p, const uint32_t st[8])
{
  for (int i = 0; i < 8; i++) {
    p[4 * i] = (uint8_t)(st[i] >> 24);
    p[4 * i + 1] = (uint8_t)(st[i] >> 16);
    p[4 * i + 2] = (uint8_t)(st[i] >> 8);
    p[4 * i + 3] = (uint8_t)st[i];
  }
}

/* [caml_bft_hmac_digest inner outer d buf off len verify]: HMAC-SHA256
   of the 32-byte [d], resumed from the key-block midstates [inner] and
   [outer] (eight-word int arrays, each having absorbed exactly one
   64-byte pad block). After the key block, the inner hash has the 32
   digest bytes left and the outer hash the 32-byte inner digest, so each
   is one compression of a block whose padding never changes: 0x80, zeros
   and the 768-bit length. With [verify] false, the first [len] tag bytes
   are written into [buf] at [off] and the result is true; with [verify]
   true, they are compared with [buf]'s bytes at [off] without an early
   exit. The OCaml caller has checked every length and range. */
value caml_bft_hmac_digest(value inner, value outer, value d, value buf, value off,
                           value len, value verify)
{
  uint8_t block[64] = { 0 };
  uint8_t mac[32];
  uint32_t st[8];
  memcpy(block, String_val(d), 32);
  block[32] = 0x80;
  block[62] = 0x03; /* (64 + 32) * 8 = 0x300 bits */
  load_words(st, inner);
  compress(st, block, 1);
  store_be32(block, st);
  load_words(st, outer);
  compress(st, block, 1);
  store_be32(mac, st);
  size_t n = (size_t)Long_val(len);
  unsigned char *t = Bytes_val(buf) + Long_val(off);
  if (!Bool_val(verify)) {
    memcpy(t, mac, n);
    return Val_true;
  }
  uint8_t acc = 0;
  for (size_t i = 0; i < n; i++) acc |= mac[i] ^ t[i];
  return Val_bool(acc == 0);
}

value caml_bft_hmac_digest_byte(value *argv, int argn)
{
  (void)argn;
  return caml_bft_hmac_digest(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]);
}

value caml_bft_sha256_kernel(value unit)
{
  (void)unit;
  return Val_int(active_kernel());
}

/* Tests only: run the given kernel (0 portable, 1 SHA-NI) or, on -1, go
   back to the cpuid choice. Returns false, changing nothing, when this
   CPU cannot run the kernel asked for. */
value caml_bft_sha256_force(value k)
{
  int want = Int_val(k);
  if (want == KERNEL_SHANI && !cpu_has_shani()) return Val_false;
  kernel = want;
  return Val_true;
}
