/* Variable-base multi-scalar multiplication over BN254 G1.
 *
 * Built with the package's other C sources into one library by
 * repro/native (`cc -O2 -shared -fPIC`, on first use) and called through
 * ctypes.  Plain C99 plus `unsigned __int128`: no CPython API, no global
 * state, nothing kept between calls.
 *
 * Fp elements are mont.h's four little-endian 64-bit limbs in Montgomery
 * form (a * 2^256 mod p).  Points are Jacobian (X, Y, Z), Z = 0 being the
 * identity, added with jacobian.h's laws.  The MSM is textbook
 * signed-digit bucket Pippenger: every scalar is recoded into base-2^c
 * digits in [-2^(c-1) + 1, 2^(c-1)], each window's points are mixed-added
 * into 2^(c-1) Jacobian buckets, the buckets are summed with the
 * running-sum trick and the windows combined with c doublings each.  Every exceptional case of the addition laws
 * (equal points, opposite points, the identity) is handled, so inputs may
 * repeat and cancel.
 *
 * Before recoding, each scalar is reduced below the group order r and its
 * sign folded into its point: s > (r - 1) / 2 becomes (r - s, -P), the
 * same product.  Every magnitude is then at most (r - 1) / 2, and a small
 * negative (a witness value -k, stored as r - k) is small, so the window
 * count follows the largest magnitude rather than 254 bits.
 *
 * Byte layout, all little-endian:
 *   points   n * 64 bytes, x then y: finite points on the curve, each
 *            coordinate < 2^256 (values >= p are reduced);
 *   scalars  n * 32 bytes, any value < 2^256 (reduced mod r here);
 *   out      64 bytes, x then y of the affine sum, each < p.
 */

#include <stdlib.h>

#include "bn254.h"

/* -- G1, y^2 = x^3 + 3 ---------------------------------------------------- */

#define COORD fp
#define COORD_BYTES 32
#define CURVE g1
#include "jacobian.h"

/* -- Pippenger -------------------------------------------------------------- */

/* (r - 1) / 2, least significant limb first. */
static const uint64_t HALF_ORDER[4] = {
    0xa1f0fac9f8000000ULL, 0x9419f4243cdcb848ULL,
    0xdc2822db40c0ac2eULL, 0x183227397098d014ULL,
};

/* Fold the sign of s < r: s > (r - 1) / 2 becomes r - s, and the caller
 * negates the point.  Returns whether it did. */
static int fold_scalar(uint64_t s[4])
{
    uint64_t t[4];
    if (!sub4(t, HALF_ORDER, s))
        return 0;
    sub4(s, ORDER, s);
    return 1;
}

static unsigned bit_length(const uint64_t s[4])
{
    for (int i = 3; i >= 0; i--)
        if (s[i])
            return 64 * (unsigned)i + 64 - (unsigned)__builtin_clzll(s[i]);
    return 0;
}

/* Digit windows for `bits`-bit scalars at width c: one spare window takes
 * the signed recoding's final carry. */
static unsigned window_count(unsigned bits, unsigned c)
{
    return (bits + c - 1) / c + 1;
}

/* The window width minimising the bucket work, counted in field
 * multiplications: a mixed add (~11) per point per window, plus two full
 * adds (~16 each) per bucket per window for the running sums. */
static unsigned window_width(size_t n, unsigned bits)
{
    unsigned best = 2;
    double best_cost = 0;
    for (unsigned c = 2; c <= 15; c++) {
        double cost = (double)window_count(bits, c)
                      * (11.0 * (double)n + 32.0 * (double)(1u << (c - 1)));
        if (c == 2 || cost < best_cost) {
            best = c;
            best_cost = cost;
        }
    }
    return best;
}

/* sum_i scalars[i] * points[i]; returns 0 (finite sum written to out),
 * 1 (the identity; out untouched) or -1 (out of memory). */
int zk_g1_msm(size_t n, const uint8_t *points, const uint8_t *scalars,
              uint8_t *out)
{
    if (n == 0)
        return 1;
    g1_affine *pts = malloc(n * sizeof *pts);
    uint64_t (*sc)[4] = malloc(n * sizeof *sc);
    if (!pts || !sc) {
        free(pts);
        free(sc);
        return -1;
    }
    unsigned bits = 0;
    for (size_t i = 0; i < n; i++) {
        fp_from_bytes(&pts[i].x, points + 64 * i);
        fp_from_bytes(&pts[i].y, points + 64 * i + 32);
        load_scalar(sc[i], scalars + 32 * i);
        if (fold_scalar(sc[i]))
            fp_neg(&pts[i].y, &pts[i].y);
        unsigned b = bit_length(sc[i]);
        if (b > bits)
            bits = b;
    }
    if (bits == 0) {
        free(pts);
        free(sc);
        return 1;
    }

    unsigned c = window_width(n, bits);
    unsigned windows = window_count(bits, c);
    int half = 1 << (c - 1), full = 1 << c;
    /* digits[w * n + i]: the signed digit of scalar i in window w. */
    int16_t *digits = malloc((size_t)windows * n * sizeof *digits);
    g1_jacobian *buckets = malloc((size_t)half * sizeof *buckets);
    if (!digits || !buckets) {
        free(pts);
        free(sc);
        free(digits);
        free(buckets);
        return -1;
    }
    for (size_t i = 0; i < n; i++) {
        int carry = 0;
        for (unsigned w = 0; w < windows; w++) {
            int d = (int)scalar_bits(sc[i], w * c, c) + carry;
            carry = d > half;
            digits[(size_t)w * n + i] = (int16_t)(carry ? d - full : d);
        }
    }

    g1_jacobian total = {fp_zero, fp_zero, fp_zero};
    for (int w = (int)windows - 1; w >= 0; w--) {
        if (!fp_is_zero(&total.z))
            for (unsigned k = 0; k < c; k++)
                g1_double(&total, &total);
        for (int b = 0; b < half; b++)
            buckets[b].z = fp_zero;
        const int16_t *dw = digits + (size_t)w * n;
        for (size_t i = 0; i < n; i++) {
            int d = dw[i];
            if (d > 0) {
                g1_add_affine(&buckets[d - 1], &buckets[d - 1], &pts[i]);
            } else if (d < 0) {
                g1_affine q;
                q.x = pts[i].x;
                fp_neg(&q.y, &pts[i].y);
                g1_add_affine(&buckets[-d - 1], &buckets[-d - 1], &q);
            }
        }
        /* sum_b (b + 1) * buckets[b] as a sum of suffix sums. */
        g1_jacobian running = {fp_zero, fp_zero, fp_zero};
        g1_jacobian sum = {fp_zero, fp_zero, fp_zero};
        for (int b = half - 1; b >= 0; b--) {
            g1_add(&running, &running, &buckets[b]);
            g1_add(&sum, &sum, &running);
        }
        g1_add(&total, &total, &sum);
    }
    free(pts);
    free(sc);
    free(digits);
    free(buckets);

    if (fp_is_zero(&total.z))
        return 1;
    fp zi, zi2, x, y;
    fp_inv(&zi, &total.z);
    fp_sqr(&zi2, &zi);
    fp_mul(&x, &total.x, &zi2);
    fp_mul(&y, &total.y, &zi2);
    fp_mul(&y, &y, &zi);
    fp_to_bytes(out, &x);
    fp_to_bytes(out + 32, &y);
    return 0;
}
