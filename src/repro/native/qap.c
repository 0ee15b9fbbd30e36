/* The Groth16 quotient h = (u v - w) / t over the BN254 scalar field Fr,
 * in one call: the six number-theoretic transforms of
 * repro.snark.qap.compute_h (three inverse, two on the coset gH, one
 * inverse on the coset), the pointwise product and the division by the
 * vanishing polynomial's constant value on the coset.
 *
 * Built with the package's other C sources into one library by
 * repro/native (`cc -O2 -shared -fPIC`, on first use) and called through
 * ctypes.  Plain C99 plus
 * `unsigned __int128`: no CPython API, no global state, nothing kept
 * between calls.  Fr elements are mont.h's limbs.
 *
 * The data never enters Montgomery form: with mont(a, b) = a b / 2^256
 * the Montgomery product and M(x) = x 2^256 mod r, mont(x, M(c)) = x c,
 * so a transform whose twiddles are M(w^j) maps plain values to plain
 * values.  The caller folds every other constant into the tables, 1/n
 * and 1/t included, and the one product of two data values (u v, which
 * carries a stray 1/2^256) is undone by the last table; the output comes
 * out canonical with no conversion.
 *
 * Byte layout, all little-endian, 32 bytes per element, each < 2^256:
 *   evals   3 * m values: u, v and w on the domain H = {w^k}, rows k < m
 *           (rows m .. n-1 are zero);
 *   tables  the domain's constants, with g the coset shift and t = g^n - 1
 *           the vanishing polynomial's value on gH, in this order:
 *             n/2  M(w^j)                       forward twiddles, j < n/2
 *             n/2  M(w^-j)                      inverse twiddles
 *             n    M(g^i / n)                   coset shift, 1/n folded in
 *             n    M(M(g^-i / (n t)))           inverse shift, 1/(n t) and
 *                                               the product's 2^256 folded in
 *             1    M(1 / (n t))                 w's scale
 *   out     n values: h's coefficients, each < r.
 * n is the domain size, a power of two; m <= n.
 */

#include <stdlib.h>

#define FIELD fr
#define M0 0x43e1f593f0000001ULL
#define M1 0x2833e84879b97091ULL
#define M2 0xb85045b68181585dULL
#define M3 0x30644e72e131a029ULL
#define M_INV 0xc2e1f593efffffffULL
#define M_R2 {0x1bb8e645ae216da7ULL, 0x53fe3ab1e35c59e3ULL, \
              0x8c49833d53bb8085ULL, 0x0216d0b17f4e44a5ULL}
#define M_ONE {0xac96341c4ffffffbULL, 0x36fc76959f60cd29ULL, \
               0x666ea36f7879462eULL, 0x0e0a77c19a07df2fULL}
#include "mont.h"

static int bad_size(size_t n)
{
    return n == 0 || (n & (n - 1)) != 0;
}

/* Canonical residues, not in Montgomery form. */
static void load_many(fr *dst, const uint8_t *src, size_t count)
{
    for (size_t i = 0; i < count; i++)
        fr_load_reduced(&dst[i], src + 32 * i);
}

/* The bit-reversal permutation, in place. */
static void bit_reverse(fr *a, size_t n)
{
    for (size_t i = 1, j = 0; i < n; i++) {
        size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j |= bit;
        if (i < j) {
            fr t = a[i];
            a[i] = a[j];
            a[j] = t;
        }
    }
}

/* In-order radix-2 NTT in place, the butterflies of repro.field.ntt.ntt:
 * top[j] = M(w^j) for j < n/2 with w a primitive n-th root of unity, and
 * the stage of block length L reads every (n/L)-th entry.  The first
 * butterfly of each block has twiddle one and skips its product. */
static void ntt(fr *a, size_t n, const fr *top)
{
    bit_reverse(a, n);
    for (size_t len = 2; len <= n; len <<= 1) {
        size_t half = len >> 1, stride = n / len;
        for (size_t start = 0; start < n; start += len) {
            fr *lo = a + start, *hi = lo + half, odd = *hi;
            fr_sub(hi, lo, &odd);
            fr_add(lo, lo, &odd);
            for (size_t j = 1; j < half; j++) {
                fr_mul(&odd, &hi[j], &top[j * stride]);
                fr_sub(&hi[j], &lo[j], &odd);
                fr_add(&lo[j], &lo[j], &odd);
            }
        }
    }
}

/* h = (u v - w) / t; returns 0, -1 (out of memory) or 2 (n not a power
 * of two, or m > n). */
int zk_qap_h(size_t n, size_t m, const uint8_t *evals,
             const uint8_t *tables, uint8_t *out)
{
    if (bad_size(n) || m > n)
        return 2;
    size_t half = n / 2;
    fr *buf = malloc(6 * n * sizeof *buf);
    if (!buf)
        return -1;
    fr *u = buf, *v = u + n, *w = v + n;
    fr *fwd = w + n, *inv = fwd + half, *shift = inv + half;
    fr *unshift = shift + n;
    fr w_scale;
    size_t count = 2 * half + 2 * n; /* fwd, inv, shift, unshift */
    load_many(fwd, tables, count);
    fr_load_reduced(&w_scale, tables + 32 * count);

    fr *vectors[3] = {u, v, w};
    for (int k = 0; k < 3; k++) {
        load_many(vectors[k], evals + 32 * m * (size_t)k, m);
        for (size_t i = m; i < n; i++)
            vectors[k][i] = fr_zero;
    }
    /* u and v: interpolate, then evaluate on gH. */
    for (int k = 0; k < 2; k++) {
        ntt(vectors[k], n, inv);
        for (size_t i = 0; i < n; i++)
            fr_mul(&vectors[k][i], &vectors[k][i], &shift[i]);
        ntt(vectors[k], n, fwd);
    }
    /* w never visits the coset: interpolation is linear, so its
     * coefficients are subtracted from the product's directly. */
    ntt(w, n, inv);
    for (size_t i = 0; i < n; i++)
        fr_mul(&u[i], &u[i], &v[i]);
    ntt(u, n, inv);
    for (size_t i = 0; i < n; i++) {
        fr_mul(&u[i], &u[i], &unshift[i]);
        fr_mul(&w[i], &w[i], &w_scale);
        fr_sub(&u[i], &u[i], &w[i]);
        fr_store(out + 32 * i, &u[i]);
    }
    free(buf);
    return 0;
}

/* One forward NTT of n canonical values in place, with twiddles[j] = w^j
 * (canonical, not M(w^j)) for j < n/2; returns 0, -1 (out of memory) or 2
 * (n not a power of two).  For the tests and the sanitizer driver. */
int zk_fr_ntt(size_t n, uint8_t *values, const uint8_t *twiddles)
{
    if (bad_size(n))
        return 2;
    fr *a = malloc((n + n / 2) * sizeof *a);
    if (!a)
        return -1;
    fr *top = a + n;
    load_many(a, values, n);
    for (size_t j = 0; j < n / 2; j++)
        fr_from_bytes(&top[j], twiddles + 32 * j);
    ntt(a, n, top);
    for (size_t i = 0; i < n; i++)
        fr_store(values + 32 * i, &a[i]);
    free(a);
    return 0;
}
