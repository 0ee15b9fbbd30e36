/* The quadratic extension Fp2 = Fp[u] / (u^2 + 1) over bn254.h's Fp, as
 * repro.field.tower.Fp2Element defines it: G2's coordinate field.
 *
 * An element is c0 + c1 u, each coefficient mont.h's Fp limbs in
 * Montgomery form.  Bytes in and out are 64: c0 then c1, each 32
 * little-endian bytes.  Every function may alias its output with an input.
 *
 * Include in one translation unit per library (comb.c): it defines the
 * zk_fp2_* entry points the limb tests drive.
 */

#ifndef ZK_FP2_H
#define ZK_FP2_H

#include "bn254.h"

typedef struct { fp c0, c1; } fp2;

static const fp2 fp2_zero = {{{0, 0, 0, 0}}, {{0, 0, 0, 0}}};
static const fp2 fp2_one = {{M_ONE}, {{0, 0, 0, 0}}};

MONT_FN int fp2_is_zero(const fp2 *a)
{
    return fp_is_zero(&a->c0) && fp_is_zero(&a->c1);
}

MONT_FN void fp2_add(fp2 *r, const fp2 *a, const fp2 *b)
{
    fp_add(&r->c0, &a->c0, &b->c0);
    fp_add(&r->c1, &a->c1, &b->c1);
}

MONT_FN void fp2_sub(fp2 *r, const fp2 *a, const fp2 *b)
{
    fp_sub(&r->c0, &a->c0, &b->c0);
    fp_sub(&r->c1, &a->c1, &b->c1);
}

MONT_FN void fp2_neg(fp2 *r, const fp2 *a)
{
    fp_neg(&r->c0, &a->c0);
    fp_neg(&r->c1, &a->c1);
}

/* Karatsuba: (a0 b0 - a1 b1) + ((a0 + a1)(b0 + b1) - a0 b0 - a1 b1) u,
 * three base-field products. */
MONT_FN void fp2_mul(fp2 *r, const fp2 *a, const fp2 *b)
{
    fp t0, t1, s, t;
    fp_mul(&t0, &a->c0, &b->c0);
    fp_mul(&t1, &a->c1, &b->c1);
    fp_add(&s, &a->c0, &a->c1);
    fp_add(&t, &b->c0, &b->c1);
    fp_mul(&s, &s, &t);
    fp_sub(&r->c0, &t0, &t1);
    fp_sub(&s, &s, &t0);
    fp_sub(&r->c1, &s, &t1);
}

/* (a0 + a1)(a0 - a1) + 2 a0 a1 u: two base-field products. */
MONT_FN void fp2_sqr(fp2 *r, const fp2 *a)
{
    fp s, d, p;
    fp_add(&s, &a->c0, &a->c1);
    fp_sub(&d, &a->c0, &a->c1);
    fp_mul(&p, &a->c0, &a->c1);
    fp_mul(&r->c0, &s, &d);
    fp_add(&r->c1, &p, &p);
}

/* (a0 - a1 u) / (a0^2 + a1^2), through the norm's one Fp inversion.
 * inv(0) is 0 (fp_inv's Fermat power of zero), not an error: the caller
 * decides what a zero means. */
MONT_FN void fp2_inv(fp2 *r, const fp2 *a)
{
    fp n, t;
    fp_sqr(&n, &a->c0);
    fp_sqr(&t, &a->c1);
    fp_add(&n, &n, &t);
    fp_inv(&n, &n);
    fp_mul(&t, &a->c1, &n);
    fp_mul(&r->c0, &a->c0, &n);
    fp_neg(&r->c1, &t);
}

MONT_FN void fp2_from_bytes(fp2 *r, const uint8_t *in)
{
    fp_from_bytes(&r->c0, in);
    fp_from_bytes(&r->c1, in + 32);
}

MONT_FN void fp2_to_bytes(uint8_t *out, const fp2 *a)
{
    fp_to_bytes(out, &a->c0);
    fp_to_bytes(out + 32, &a->c1);
}

/* Single Fp2 operations on 64-byte values (each coefficient below 2^256),
 * for the limb tests: each enters Montgomery form, operates and leaves
 * it. */
void zk_fp2_mul(const uint8_t *a, const uint8_t *b, uint8_t *out)
{
    fp2 x, y;
    fp2_from_bytes(&x, a);
    fp2_from_bytes(&y, b);
    fp2_mul(&x, &x, &y);
    fp2_to_bytes(out, &x);
}

void zk_fp2_sqr(const uint8_t *a, uint8_t *out)
{
    fp2 x;
    fp2_from_bytes(&x, a);
    fp2_sqr(&x, &x);
    fp2_to_bytes(out, &x);
}

void zk_fp2_inv(const uint8_t *a, uint8_t *out)
{
    fp2 x;
    fp2_from_bytes(&x, a);
    fp2_inv(&x, &x);
    fp2_to_bytes(out, &x);
}

#endif
