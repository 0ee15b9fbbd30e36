/* Points of a short-Weierstrass curve y^2 = x^3 + b in Jacobian
 * coordinates (X, Y, Z) -> (X / Z^2, Y / Z^3), Z = 0 being the identity:
 * the doubling, mixed-add and add laws with every exceptional case, batch
 * normalisation to affine bytes, and the fixed-base comb.  Written once
 * and instantiated at compile time for one coordinate field per group
 * (G1 over Fp, G2 over Fp2), the way mont.h is for its moduli.  Nothing
 * here reads b: the formulas are the a = 0 ones, valid on any such curve.
 *
 * Define before including (bn254.h first, fp2.h too for Fp2):
 *   COORD        the coordinate field's prefix: its element type and its
 *                _add, _sub, _mul, _sqr, _inv, _neg, _is_zero,
 *                _from_bytes, _to_bytes and _zero, _one (fp, fp2);
 *   COORD_BYTES  one coordinate's byte length (32, 64);
 *   CURVE        the prefix of every type and function defined here
 *                (g1 -> g1_affine, g1_jacobian, g1_double, ...).
 * All three are undefined at the end, so the next group can include it
 * again.
 *
 * Affine bytes are x then y, COORD_BYTES each, in the field's byte layout.
 */

#include <stdlib.h>
#include <string.h>

#ifndef ZK_JACOBIAN_MACROS
#define ZK_JACOBIAN_MACROS
/* K(mul) -> fp_mul (the coordinate field); G(double) -> g1_double. */
#define K(name) MONT_CAT(COORD, name)
#define G(name) MONT_CAT(CURVE, name)
#endif

typedef struct { COORD x, y; } G(affine);
typedef struct { COORD x, y, z; } G(jacobian);

/* dbl-2009-l (a = 0).  r may alias p. */
MONT_FN void G(double)(G(jacobian) *r, const G(jacobian) *p)
{
    if (K(is_zero)(&p->z) || K(is_zero)(&p->y)) {
        r->z = K(zero);
        return;
    }
    COORD a, b, c, d, e, f, t, x3, y3, z3;
    K(sqr)(&a, &p->x);
    K(sqr)(&b, &p->y);
    K(sqr)(&c, &b);
    K(add)(&t, &p->x, &b);
    K(sqr)(&t, &t);
    K(sub)(&t, &t, &a);
    K(sub)(&t, &t, &c);
    K(add)(&d, &t, &t);
    K(add)(&e, &a, &a);
    K(add)(&e, &e, &a);
    K(sqr)(&f, &e);
    K(mul)(&z3, &p->y, &p->z);
    K(add)(&z3, &z3, &z3);
    K(sub)(&x3, &f, &d);
    K(sub)(&x3, &x3, &d);
    K(sub)(&t, &d, &x3);
    K(mul)(&y3, &e, &t);
    K(add)(&c, &c, &c);
    K(add)(&c, &c, &c);
    K(add)(&c, &c, &c);
    K(sub)(&y3, &y3, &c);
    r->x = x3;
    r->y = y3;
    r->z = z3;
}

/* madd-2007-bl: Jacobian p plus finite affine q.  r may alias p. */
MONT_FN void G(add_affine)(G(jacobian) *r, const G(jacobian) *p,
                           const G(affine) *q)
{
    if (K(is_zero)(&p->z)) {
        r->x = q->x;
        r->y = q->y;
        r->z = K(one);
        return;
    }
    COORD z1z1, u2, s2, h, hh, i, j, rr, v, t, x3, y3, z3;
    K(sqr)(&z1z1, &p->z);
    K(mul)(&u2, &q->x, &z1z1);
    K(mul)(&s2, &q->y, &p->z);
    K(mul)(&s2, &s2, &z1z1);
    K(sub)(&h, &u2, &p->x);
    K(sub)(&rr, &s2, &p->y);
    if (K(is_zero)(&h)) {
        if (K(is_zero)(&rr))
            G(double)(r, p);
        else
            r->z = K(zero);
        return;
    }
    K(sqr)(&hh, &h);
    K(add)(&i, &hh, &hh);
    K(add)(&i, &i, &i);
    K(mul)(&j, &h, &i);
    K(add)(&rr, &rr, &rr);
    K(mul)(&v, &p->x, &i);
    K(sqr)(&x3, &rr);
    K(sub)(&x3, &x3, &j);
    K(sub)(&x3, &x3, &v);
    K(sub)(&x3, &x3, &v);
    K(sub)(&t, &v, &x3);
    K(mul)(&y3, &rr, &t);
    K(mul)(&t, &p->y, &j);
    K(add)(&t, &t, &t);
    K(sub)(&y3, &y3, &t);
    K(add)(&z3, &p->z, &h);
    K(sqr)(&z3, &z3);
    K(sub)(&z3, &z3, &z1z1);
    K(sub)(&z3, &z3, &hh);
    r->x = x3;
    r->y = y3;
    r->z = z3;
}

/* add-2007-bl.  r may alias p or q. */
MONT_FN void G(add)(G(jacobian) *r, const G(jacobian) *p, const G(jacobian) *q)
{
    if (K(is_zero)(&q->z)) {
        *r = *p;
        return;
    }
    if (K(is_zero)(&p->z)) {
        *r = *q;
        return;
    }
    COORD z1z1, z2z2, u1, u2, s1, s2, h, i, j, rr, v, t, x3, y3, z3;
    K(sqr)(&z1z1, &p->z);
    K(sqr)(&z2z2, &q->z);
    K(mul)(&u1, &p->x, &z2z2);
    K(mul)(&u2, &q->x, &z1z1);
    K(mul)(&s1, &p->y, &q->z);
    K(mul)(&s1, &s1, &z2z2);
    K(mul)(&s2, &q->y, &p->z);
    K(mul)(&s2, &s2, &z1z1);
    K(sub)(&h, &u2, &u1);
    K(sub)(&rr, &s2, &s1);
    if (K(is_zero)(&h)) {
        if (K(is_zero)(&rr))
            G(double)(r, p);
        else
            r->z = K(zero);
        return;
    }
    K(add)(&i, &h, &h);
    K(sqr)(&i, &i);
    K(mul)(&j, &h, &i);
    K(add)(&rr, &rr, &rr);
    K(mul)(&v, &u1, &i);
    K(sqr)(&x3, &rr);
    K(sub)(&x3, &x3, &j);
    K(sub)(&x3, &x3, &v);
    K(sub)(&x3, &x3, &v);
    K(sub)(&t, &v, &x3);
    K(mul)(&y3, &rr, &t);
    K(mul)(&t, &s1, &j);
    K(add)(&t, &t, &t);
    K(sub)(&y3, &y3, &t);
    K(add)(&z3, &p->z, &q->z);
    K(sqr)(&z3, &z3);
    K(sub)(&z3, &z3, &z1z1);
    K(sub)(&z3, &z3, &z2z2);
    K(mul)(&z3, &z3, &h);
    r->x = x3;
    r->y = y3;
    r->z = z3;
}

/* Affine bytes -> a point (coordinates < 2^256; values >= p are reduced). */
MONT_FN void G(load)(G(affine) *r, const uint8_t *in)
{
    K(from_bytes)(&r->x, in);
    K(from_bytes)(&r->y, in + COORD_BYTES);
}

/* Each p[i] to affine bytes, the identity as all zeros, with one
 * inversion: Montgomery's trick over the non-zero Z's.  Returns 0, or -1
 * when out of memory (out untouched). */
MONT_FN int G(store_many)(uint8_t *out, const G(jacobian) *p, size_t n)
{
    COORD *prefix = malloc((n ? n : 1) * sizeof *prefix);
    if (!prefix)
        return -1;
    COORD acc = K(one), inv, zi, zi2, x, y;
    for (size_t i = 0; i < n; i++) {
        prefix[i] = acc;
        if (!K(is_zero)(&p[i].z))
            K(mul)(&acc, &acc, &p[i].z);
    }
    K(inv)(&inv, &acc);
    for (size_t i = n; i-- > 0;) {
        uint8_t *at = out + 2 * COORD_BYTES * i;
        if (K(is_zero)(&p[i].z)) {
            memset(at, 0, 2 * COORD_BYTES);
            continue;
        }
        K(mul)(&zi, &inv, &prefix[i]);
        K(mul)(&inv, &inv, &p[i].z);
        K(sqr)(&zi2, &zi);
        K(mul)(&x, &p[i].x, &zi2);
        K(mul)(&y, &p[i].y, &zi2);
        K(mul)(&y, &y, &zi);
        K(to_bytes)(at, &x);
        K(to_bytes)(at + COORD_BYTES, &y);
    }
    free(prefix);
    return 0;
}

/* Scalars per tile of the comb's lockstep walk. */
#define COMB_TILE 256

/* The fixed-base comb: out[i] = scalars[i] * base off a table of W =
 * ceil(SCALAR_BITS / window) rows, row k holding d * 2^(window k) * base
 * for d = 1 .. 2^window - 1 as affine bytes (comb.c has the layout).  Each
 * scalar, reduced mod r, is the sum of its base-2^window digits' entries:
 * one mixed addition per non-zero digit into a Jacobian accumulator.  A
 * tile of scalars walks the rows in lockstep, so one row is in cache while
 * the tile reads it; all results are normalised with one inversion.
 * Returns 0, -1 when out of memory, 2 for a window outside [1, 16]. */
MONT_FN int G(comb)(size_t n, unsigned window, const uint8_t *table,
                    const uint8_t *scalars, uint8_t *out)
{
    if (window < 1 || window > 16)
        return 2;
    size_t rows = (SCALAR_BITS + window - 1) / window;
    size_t digits = ((size_t)1 << window) - 1;
    G(affine) *entries = malloc(rows * digits * sizeof *entries);
    G(jacobian) *acc = malloc((n ? n : 1) * sizeof *acc);
    uint64_t (*sc)[4] = malloc((n ? n : 1) * sizeof *sc);
    int rc = -1;
    if (!entries || !acc || !sc)
        goto done;
    for (size_t e = 0; e < rows * digits; e++)
        G(load)(&entries[e], table + 2 * COORD_BYTES * e);
    for (size_t i = 0; i < n; i++) {
        load_scalar(sc[i], scalars + 32 * i);
        acc[i].z = K(zero);
    }
    for (size_t lo = 0; lo < n; lo += COMB_TILE) {
        size_t hi = n - lo < COMB_TILE ? n : lo + COMB_TILE;
        for (size_t k = 0; k < rows; k++) {
            const G(affine) *row = entries + k * digits;
            for (size_t i = lo; i < hi; i++) {
                unsigned d = scalar_bits(sc[i], (unsigned)(k * window), window);
                if (d)
                    G(add_affine)(&acc[i], &acc[i], &row[d - 1]);
            }
        }
    }
    rc = G(store_many)(out, acc, n);
done:
    free(entries);
    free(acc);
    free(sc);
    return rc;
}

#undef COORD
#undef COORD_BYTES
#undef CURVE
