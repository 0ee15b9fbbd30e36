/* Variable-base multi-scalar multiplication over BN254 G1.
 *
 * Built and loaded by repro/curves/native.py (`cc -O2 -shared -fPIC`, on
 * first use) and called through ctypes.  Plain C99 plus `unsigned
 * __int128`: no CPython API, no global state, nothing kept between calls.
 *
 * Fp elements are four little-endian 64-bit limbs in Montgomery form
 * (a * 2^256 mod p).  Points are Jacobian (X, Y, Z), Z = 0 being the
 * identity.  The MSM is textbook signed-digit bucket Pippenger: every
 * scalar is recoded into base-2^c digits in [-2^(c-1) + 1, 2^(c-1)], each
 * window's points are mixed-added into 2^(c-1) Jacobian buckets, the
 * buckets are summed with the running-sum trick and the windows combined
 * with c doublings each.  Every exceptional case of the addition laws
 * (equal points, opposite points, the identity) is handled, so inputs may
 * repeat and cancel.
 *
 * Byte layout, all little-endian:
 *   points   n * 64 bytes, x then y: finite points on the curve, each
 *            coordinate < 2^256 (values >= p are reduced);
 *   scalars  n * 32 bytes, any value < 2^256 (callers reduce mod r);
 *   out      64 bytes, x then y of the affine sum, each < p.
 */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

typedef unsigned __int128 u128;
typedef struct { uint64_t l[4]; } fp;
typedef struct { fp x, y; } affine;
typedef struct { fp x, y, z; } jacobian;

#define P0 0x3c208c16d87cfd47ULL
#define P1 0x97816a916871ca8dULL
#define P2 0xb85045b68181585dULL
#define P3 0x30644e72e131a029ULL
static const fp P = {{P0, P1, P2, P3}};
/* -p^-1 mod 2^64 */
static const uint64_t P_INV = 0x87d20782e4866389ULL;
/* 2^512 mod p: multiplying by it enters Montgomery form. */
static const fp R2 = {{0xf32cfc5b538afa89ULL, 0xb5e71911d44501fbULL,
                       0x47ab1eff0a417ff6ULL, 0x06d89f71cab8351fULL}};
/* 2^256 mod p: one in Montgomery form. */
static const fp ONE = {{0xd35d438dc58f0d9dULL, 0x0a78eb28f5c70b3dULL,
                        0x666ea36f7879462cULL, 0x0e0a77c19a07df2fULL}};
static const fp ZERO = {{0, 0, 0, 0}};

/* -- Fp ----------------------------------------------------------------- */
/* Every loop over the four limbs is written out: the compiler does not
 * unroll them at -O2, and the unrolled kernel is ~25% faster. */

static int fp_is_zero(const fp *a)
{
    return (a->l[0] | a->l[1] | a->l[2] | a->l[3]) == 0;
}

static inline uint64_t add_carry(uint64_t a, uint64_t b, uint64_t *carry)
{
    u128 s = (u128)a + b + *carry;
    *carry = (uint64_t)(s >> 64);
    return (uint64_t)s;
}

static inline uint64_t sub_borrow(uint64_t a, uint64_t b, uint64_t *borrow)
{
    u128 d = (u128)a - b - *borrow;
    *borrow = (uint64_t)(d >> 64) & 1;
    return (uint64_t)d;
}

/* r = t - p if t >= p, else t.  Requires t < 2p. */
static inline void fp_reduce_once(fp *r, uint64_t t0, uint64_t t1,
                                  uint64_t t2, uint64_t t3)
{
    uint64_t borrow = 0;
    uint64_t s0 = sub_borrow(t0, P0, &borrow);
    uint64_t s1 = sub_borrow(t1, P1, &borrow);
    uint64_t s2 = sub_borrow(t2, P2, &borrow);
    uint64_t s3 = sub_borrow(t3, P3, &borrow);
    if (borrow) {
        r->l[0] = t0, r->l[1] = t1, r->l[2] = t2, r->l[3] = t3;
    } else {
        r->l[0] = s0, r->l[1] = s1, r->l[2] = s2, r->l[3] = s3;
    }
}

/* a + b for a, b < p: p < 2^254, so the sum cannot leave four limbs. */
static void fp_add(fp *r, const fp *a, const fp *b)
{
    uint64_t carry = 0;
    uint64_t t0 = add_carry(a->l[0], b->l[0], &carry);
    uint64_t t1 = add_carry(a->l[1], b->l[1], &carry);
    uint64_t t2 = add_carry(a->l[2], b->l[2], &carry);
    uint64_t t3 = add_carry(a->l[3], b->l[3], &carry);
    fp_reduce_once(r, t0, t1, t2, t3);
}

static void fp_sub(fp *r, const fp *a, const fp *b)
{
    uint64_t borrow = 0;
    uint64_t t0 = sub_borrow(a->l[0], b->l[0], &borrow);
    uint64_t t1 = sub_borrow(a->l[1], b->l[1], &borrow);
    uint64_t t2 = sub_borrow(a->l[2], b->l[2], &borrow);
    uint64_t t3 = sub_borrow(a->l[3], b->l[3], &borrow);
    if (borrow) {
        uint64_t carry = 0;
        t0 = add_carry(t0, P0, &carry);
        t1 = add_carry(t1, P1, &carry);
        t2 = add_carry(t2, P2, &carry);
        t3 = add_carry(t3, P3, &carry);
    }
    r->l[0] = t0, r->l[1] = t1, r->l[2] = t2, r->l[3] = t3;
}

static void fp_neg(fp *r, const fp *a)
{
    fp_sub(r, &ZERO, a);
}

/* One CIOS round: t = (t + a * bi + m * p) / 2^64 with m making the low
 * limb vanish.  p's top limb is below 2^62, so t stays within four limbs
 * (the "no-carry" variant) and ends below 2p. */
#define MONT_ROUND(bi)                                                     \
    do {                                                                   \
        u128 z = (u128)a0 * (bi) + t0;                                     \
        uint64_t hi = (uint64_t)(z >> 64), c, m;                           \
        t0 = (uint64_t)z;                                                  \
        m = t0 * P_INV;                                                    \
        c = (uint64_t)(((u128)m * P0 + t0) >> 64);                         \
        z = (u128)a1 * (bi) + t1 + hi;                                     \
        hi = (uint64_t)(z >> 64);                                          \
        z = (u128)m * P1 + (uint64_t)z + c;                                \
        t0 = (uint64_t)z;                                                  \
        c = (uint64_t)(z >> 64);                                           \
        z = (u128)a2 * (bi) + t2 + hi;                                     \
        hi = (uint64_t)(z >> 64);                                          \
        z = (u128)m * P2 + (uint64_t)z + c;                                \
        t1 = (uint64_t)z;                                                  \
        c = (uint64_t)(z >> 64);                                           \
        z = (u128)a3 * (bi) + t3 + hi;                                     \
        hi = (uint64_t)(z >> 64);                                          \
        z = (u128)m * P3 + (uint64_t)z + c;                                \
        t2 = (uint64_t)z;                                                  \
        t3 = (uint64_t)(z >> 64) + hi;                                     \
    } while (0)

/* Montgomery product a * b / 2^256 mod p, for a, b < p. */
static void fp_mul(fp *r, const fp *a, const fp *b)
{
    uint64_t a0 = a->l[0], a1 = a->l[1], a2 = a->l[2], a3 = a->l[3];
    uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    MONT_ROUND(b->l[0]);
    MONT_ROUND(b->l[1]);
    MONT_ROUND(b->l[2]);
    MONT_ROUND(b->l[3]);
    fp_reduce_once(r, t0, t1, t2, t3);
}

static void fp_sqr(fp *r, const fp *a)
{
    fp_mul(r, a, a);
}

/* a^(p-2) = a^-1 for a != 0 (Fermat), left to right. */
static void fp_inv(fp *r, const fp *a)
{
    fp e = P, acc = ONE;
    e.l[0] -= 2; /* p's low limb is odd and > 2: no borrow */
    for (int i = 3; i >= 0; i--)
        for (int bit = 63; bit >= 0; bit--) {
            fp_sqr(&acc, &acc);
            if ((e.l[i] >> bit) & 1)
                fp_mul(&acc, &acc, a);
        }
    *r = acc;
}

static void fp_load(fp *r, const uint8_t *in)
{
    for (int i = 0; i < 4; i++) {
        uint64_t v = 0;
        for (int k = 7; k >= 0; k--)
            v = (v << 8) | in[8 * i + k];
        r->l[i] = v;
    }
}

static void fp_store(uint8_t *out, const fp *a)
{
    for (int i = 0; i < 4; i++)
        for (int k = 0; k < 8; k++)
            out[8 * i + k] = (uint8_t)(a->l[i] >> (8 * k));
}

/* Bytes -> Montgomery form.  Any value < 2^256 is below 6p, so five
 * conditional subtractions make it canonical first. */
static void fp_from_bytes(fp *r, const uint8_t *in)
{
    fp a;
    fp_load(&a, in);
    for (int k = 0; k < 5; k++)
        fp_reduce_once(&a, a.l[0], a.l[1], a.l[2], a.l[3]);
    fp_mul(r, &a, &R2);
}

static void fp_to_bytes(uint8_t *out, const fp *a)
{
    static const fp UNIT = {{1, 0, 0, 0}};
    fp c;
    fp_mul(&c, a, &UNIT);
    fp_store(out, &c);
}

/* -- G1, y^2 = x^3 + 3 ---------------------------------------------------- */

/* dbl-2009-l (a = 0).  r may alias p. */
static void jac_double(jacobian *r, const jacobian *p)
{
    if (fp_is_zero(&p->z) || fp_is_zero(&p->y)) {
        r->z = ZERO;
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
        r->z = ONE;
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
            r->z = ZERO;
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
            r->z = ZERO;
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

    jacobian total = {ZERO, ZERO, ZERO};
    for (int w = (int)windows - 1; w >= 0; w--) {
        if (!fp_is_zero(&total.z))
            for (unsigned k = 0; k < c; k++)
                jac_double(&total, &total);
        for (int b = 0; b < half; b++)
            buckets[b].z = ZERO;
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
        jacobian running = {ZERO, ZERO, ZERO}, sum = {ZERO, ZERO, ZERO};
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

/* Single field operations on canonical 32-byte values, for the limb
 * tests: each enters Montgomery form, operates and leaves it. */
void zk_fp_mul(const uint8_t *a, const uint8_t *b, uint8_t *out)
{
    fp x, y;
    fp_from_bytes(&x, a);
    fp_from_bytes(&y, b);
    fp_mul(&x, &x, &y);
    fp_to_bytes(out, &x);
}

void zk_fp_add(const uint8_t *a, const uint8_t *b, uint8_t *out)
{
    fp x, y;
    fp_from_bytes(&x, a);
    fp_from_bytes(&y, b);
    fp_add(&x, &x, &y);
    fp_to_bytes(out, &x);
}

void zk_fp_sub(const uint8_t *a, const uint8_t *b, uint8_t *out)
{
    fp x, y;
    fp_from_bytes(&x, a);
    fp_from_bytes(&y, b);
    fp_sub(&x, &x, &y);
    fp_to_bytes(out, &x);
}
