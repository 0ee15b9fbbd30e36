/* Variable-base multi-scalar multiplication over BN254 G1.
 *
 * Built with qap.c into one library by repro/native (`cc -O2 -shared
 * -fPIC`, on first use) and called through ctypes.  Plain C99 plus
 * `unsigned __int128`: no CPython API, no global state, nothing kept
 * between calls.
 *
 * Fp elements are mont.h's four little-endian 64-bit limbs in Montgomery
 * form (a * 2^256 mod p).  Points are Jacobian (X, Y, Z), Z = 0 being the
 * identity.  The MSM is textbook signed-digit bucket Pippenger: every
 * scalar is recoded into base-2^c digits in [-2^(c-1) + 1, 2^(c-1)], each
 * window's points are mixed-added into 2^(c-1) Jacobian buckets, the
 * buckets are summed with the running-sum trick and the windows combined
 * with c doublings each.  Every exceptional case of the addition laws
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

#define FIELD fp
#define M0 0x3c208c16d87cfd47ULL
#define M1 0x97816a916871ca8dULL
#define M2 0xb85045b68181585dULL
#define M3 0x30644e72e131a029ULL
#define M_INV 0x87d20782e4866389ULL
#define M_R2 {0xf32cfc5b538afa89ULL, 0xb5e71911d44501fbULL, \
              0x47ab1eff0a417ff6ULL, 0x06d89f71cab8351fULL}
#define M_ONE {0xd35d438dc58f0d9dULL, 0x0a78eb28f5c70b3dULL, \
               0x666ea36f7879462cULL, 0x0e0a77c19a07df2fULL}
#include "mont.h"

typedef struct { fp x, y; } affine;
typedef struct { fp x, y, z; } jacobian;

/* -- G1, y^2 = x^3 + 3 ---------------------------------------------------- */

/* dbl-2009-l (a = 0).  r may alias p. */
static void jac_double(jacobian *r, const jacobian *p)
{
    if (fp_is_zero(&p->z) || fp_is_zero(&p->y)) {
        r->z = fp_zero;
        return;
    }
    fp a, b, c, d, e, f, t, x3, y3, z3;
    fp_sqr(&a, &p->x);
    fp_sqr(&b, &p->y);
    fp_sqr(&c, &b);
    fp_add(&t, &p->x, &b);
    fp_sqr(&t, &t);
    fp_sub(&t, &t, &a);
    fp_sub(&t, &t, &c);
    fp_add(&d, &t, &t);
    fp_add(&e, &a, &a);
    fp_add(&e, &e, &a);
    fp_sqr(&f, &e);
    fp_mul(&z3, &p->y, &p->z);
    fp_add(&z3, &z3, &z3);
    fp_sub(&x3, &f, &d);
    fp_sub(&x3, &x3, &d);
    fp_sub(&t, &d, &x3);
    fp_mul(&y3, &e, &t);
    fp_add(&c, &c, &c);
    fp_add(&c, &c, &c);
    fp_add(&c, &c, &c);
    fp_sub(&y3, &y3, &c);
    r->x = x3;
    r->y = y3;
    r->z = z3;
}

/* madd-2007-bl: Jacobian p plus finite affine q.  r may alias p. */
static void jac_add_affine(jacobian *r, const jacobian *p, const affine *q)
{
    if (fp_is_zero(&p->z)) {
        r->x = q->x;
        r->y = q->y;
        r->z = fp_one;
        return;
    }
    fp z1z1, u2, s2, h, hh, i, j, rr, v, t, x3, y3, z3;
    fp_sqr(&z1z1, &p->z);
    fp_mul(&u2, &q->x, &z1z1);
    fp_mul(&s2, &q->y, &p->z);
    fp_mul(&s2, &s2, &z1z1);
    fp_sub(&h, &u2, &p->x);
    fp_sub(&rr, &s2, &p->y);
    if (fp_is_zero(&h)) {
        if (fp_is_zero(&rr))
            jac_double(r, p);
        else
            r->z = fp_zero;
        return;
    }
    fp_sqr(&hh, &h);
    fp_add(&i, &hh, &hh);
    fp_add(&i, &i, &i);
    fp_mul(&j, &h, &i);
    fp_add(&rr, &rr, &rr);
    fp_mul(&v, &p->x, &i);
    fp_sqr(&x3, &rr);
    fp_sub(&x3, &x3, &j);
    fp_sub(&x3, &x3, &v);
    fp_sub(&x3, &x3, &v);
    fp_sub(&t, &v, &x3);
    fp_mul(&y3, &rr, &t);
    fp_mul(&t, &p->y, &j);
    fp_add(&t, &t, &t);
    fp_sub(&y3, &y3, &t);
    fp_add(&z3, &p->z, &h);
    fp_sqr(&z3, &z3);
    fp_sub(&z3, &z3, &z1z1);
    fp_sub(&z3, &z3, &hh);
    r->x = x3;
    r->y = y3;
    r->z = z3;
}

/* add-2007-bl.  r may alias p or q. */
static void jac_add(jacobian *r, const jacobian *p, const jacobian *q)
{
    if (fp_is_zero(&q->z)) {
        *r = *p;
        return;
    }
    if (fp_is_zero(&p->z)) {
        *r = *q;
        return;
    }
    fp z1z1, z2z2, u1, u2, s1, s2, h, i, j, rr, v, t, x3, y3, z3;
    fp_sqr(&z1z1, &p->z);
    fp_sqr(&z2z2, &q->z);
    fp_mul(&u1, &p->x, &z2z2);
    fp_mul(&u2, &q->x, &z1z1);
    fp_mul(&s1, &p->y, &q->z);
    fp_mul(&s1, &s1, &z2z2);
    fp_mul(&s2, &q->y, &p->z);
    fp_mul(&s2, &s2, &z1z1);
    fp_sub(&h, &u2, &u1);
    fp_sub(&rr, &s2, &s1);
    if (fp_is_zero(&h)) {
        if (fp_is_zero(&rr))
            jac_double(r, p);
        else
            r->z = fp_zero;
        return;
    }
    fp_add(&i, &h, &h);
    fp_sqr(&i, &i);
    fp_mul(&j, &h, &i);
    fp_add(&rr, &rr, &rr);
    fp_mul(&v, &u1, &i);
    fp_sqr(&x3, &rr);
    fp_sub(&x3, &x3, &j);
    fp_sub(&x3, &x3, &v);
    fp_sub(&x3, &x3, &v);
    fp_sub(&t, &v, &x3);
    fp_mul(&y3, &rr, &t);
    fp_mul(&t, &s1, &j);
    fp_add(&t, &t, &t);
    fp_sub(&y3, &y3, &t);
    fp_add(&z3, &p->z, &q->z);
    fp_sqr(&z3, &z3);
    fp_sub(&z3, &z3, &z1z1);
    fp_sub(&z3, &z3, &z2z2);
    fp_mul(&z3, &z3, &h);
    r->x = x3;
    r->y = y3;
    r->z = z3;
}

/* -- Pippenger -------------------------------------------------------------- */

/* The group order r and (r - 1) / 2, least significant limb first. */
static const uint64_t ORDER[4] = {
    0x43e1f593f0000001ULL, 0x2833e84879b97091ULL,
    0xb85045b68181585dULL, 0x30644e72e131a029ULL,
};
static const uint64_t HALF_ORDER[4] = {
    0xa1f0fac9f8000000ULL, 0x9419f4243cdcb848ULL,
    0xdc2822db40c0ac2eULL, 0x183227397098d014ULL,
};

/* d = a - b over four limbs; returns the borrow (1 when a < b).  d may
 * alias a or b. */
static uint64_t sub4(uint64_t d[4], const uint64_t a[4], const uint64_t b[4])
{
    uint64_t borrow = 0;
    for (int k = 0; k < 4; k++)
        d[k] = sub_borrow(a[k], b[k], &borrow);
    return borrow;
}

/* Reduce s below r (s < 2^256 < 6r: at most five subtractions), then fold
 * its sign: s > (r - 1) / 2 becomes r - s, and the caller negates the
 * point.  Returns whether it did. */
static int fold_scalar(uint64_t s[4])
{
    uint64_t t[4];
    while (!sub4(t, s, ORDER))
        for (int k = 0; k < 4; k++)
            s[k] = t[k];
    if (!sub4(t, HALF_ORDER, s))
        return 0;
    sub4(s, ORDER, s);
    return 1;
}

/* Bits [off, off + c) of a 256-bit scalar (c <= 16). */
static unsigned scalar_bits(const uint64_t s[4], unsigned off, unsigned c)
{
    unsigned limb = off / 64, shift = off % 64;
    if (limb >= 4)
        return 0;
    uint64_t v = s[limb] >> shift;
    if (shift + c > 64 && limb + 1 < 4)
        v |= s[limb + 1] << (64 - shift);
    return (unsigned)(v & ((1u << c) - 1));
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
    affine *pts = malloc(n * sizeof *pts);
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
        fp s;
        fp_load(&s, scalars + 32 * i);
        for (int k = 0; k < 4; k++)
            sc[i][k] = s.l[k];
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
    jacobian *buckets = malloc((size_t)half * sizeof *buckets);
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

    jacobian total = {fp_zero, fp_zero, fp_zero};
    for (int w = (int)windows - 1; w >= 0; w--) {
        if (!fp_is_zero(&total.z))
            for (unsigned k = 0; k < c; k++)
                jac_double(&total, &total);
        for (int b = 0; b < half; b++)
            buckets[b].z = fp_zero;
        const int16_t *dw = digits + (size_t)w * n;
        for (size_t i = 0; i < n; i++) {
            int d = dw[i];
            if (d > 0) {
                jac_add_affine(&buckets[d - 1], &buckets[d - 1], &pts[i]);
            } else if (d < 0) {
                affine q;
                q.x = pts[i].x;
                fp_neg(&q.y, &pts[i].y);
                jac_add_affine(&buckets[-d - 1], &buckets[-d - 1], &q);
            }
        }
        /* sum_b (b + 1) * buckets[b] as a sum of suffix sums. */
        jacobian running = {fp_zero, fp_zero, fp_zero};
        jacobian sum = {fp_zero, fp_zero, fp_zero};
        for (int b = half - 1; b >= 0; b--) {
            jac_add(&running, &running, &buckets[b]);
            jac_add(&sum, &sum, &running);
        }
        jac_add(&total, &total, &sum);
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
