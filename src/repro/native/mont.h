/* Montgomery arithmetic on four 64-bit limbs, written once and
 * instantiated at compile time for one modulus per translation unit
 * (bn254.h: the BN254 base field Fp, for g1msm.c and comb.c; qap.c: the
 * scalar field Fr).
 *
 * Define before including:
 *   FIELD             the element type, also every function's prefix
 *                     (fp -> fp_add, fp_mul, ..., zk_fp_mul);
 *   M0 .. M3          the modulus' limbs, least significant first: an odd
 *                     modulus below 2^254 (both BN254 fields are);
 *   M_INV             -modulus^-1 mod 2^64;
 *   M_R2              2^512 mod modulus, as a braced limb list: multiplying
 *                     by it enters Montgomery form;
 *   M_ONE             2^256 mod modulus, likewise: one in Montgomery form.
 *
 * Define MONT_NO_EXPORTS as well in a translation unit whose field another
 * unit of the same library already instantiates: the zk_<field>_* entry
 * points below must be defined once per library.
 *
 * The modulus is a compile-time constant in every instruction, as it was
 * when Fp was the only field: nothing is read through a pointer.
 *
 * Elements are little-endian limbs in Montgomery form (a * 2^256 mod m),
 * always canonical (< m).  Bytes in and out are 32 little-endian bytes.
 * Every loop over the four limbs is written out: the compiler does not
 * unroll them at -O2, and the unrolled kernel is ~25% faster.
 */

#include <stddef.h>
#include <stdint.h>

#define MONT_CAT2(a, b) a##_##b
#define MONT_CAT(a, b) MONT_CAT2(a, b)
/* F(mul) -> fp_mul; ZK(mul) -> zk_fp_mul. */
#define F(name) MONT_CAT(FIELD, name)
#define ZK(name) MONT_CAT(MONT_CAT(zk, FIELD), name)
/* Not every user needs every operation. */
#define MONT_FN static __attribute__((unused))

typedef unsigned __int128 u128;
typedef struct { uint64_t l[4]; } FIELD;

static const FIELD F(modulus) = {{M0, M1, M2, M3}};
static const FIELD F(r2) = {M_R2};
static const FIELD F(one) = {M_ONE};
static const FIELD F(zero) = {{0, 0, 0, 0}};

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

MONT_FN int F(is_zero)(const FIELD *a)
{
    return (a->l[0] | a->l[1] | a->l[2] | a->l[3]) == 0;
}

/* r = t - m if t >= m, else t.  Requires t < 2m. */
static inline void F(reduce_once)(FIELD *r, uint64_t t0, uint64_t t1,
                                  uint64_t t2, uint64_t t3)
{
    uint64_t borrow = 0;
    uint64_t s0 = sub_borrow(t0, M0, &borrow);
    uint64_t s1 = sub_borrow(t1, M1, &borrow);
    uint64_t s2 = sub_borrow(t2, M2, &borrow);
    uint64_t s3 = sub_borrow(t3, M3, &borrow);
    if (borrow) {
        r->l[0] = t0, r->l[1] = t1, r->l[2] = t2, r->l[3] = t3;
    } else {
        r->l[0] = s0, r->l[1] = s1, r->l[2] = s2, r->l[3] = s3;
    }
}

/* a + b for a, b < m: m < 2^254, so the sum cannot leave four limbs. */
MONT_FN void F(add)(FIELD *r, const FIELD *a, const FIELD *b)
{
    uint64_t carry = 0;
    uint64_t t0 = add_carry(a->l[0], b->l[0], &carry);
    uint64_t t1 = add_carry(a->l[1], b->l[1], &carry);
    uint64_t t2 = add_carry(a->l[2], b->l[2], &carry);
    uint64_t t3 = add_carry(a->l[3], b->l[3], &carry);
    F(reduce_once)(r, t0, t1, t2, t3);
}

MONT_FN void F(sub)(FIELD *r, const FIELD *a, const FIELD *b)
{
    uint64_t borrow = 0;
    uint64_t t0 = sub_borrow(a->l[0], b->l[0], &borrow);
    uint64_t t1 = sub_borrow(a->l[1], b->l[1], &borrow);
    uint64_t t2 = sub_borrow(a->l[2], b->l[2], &borrow);
    uint64_t t3 = sub_borrow(a->l[3], b->l[3], &borrow);
    if (borrow) {
        uint64_t carry = 0;
        t0 = add_carry(t0, M0, &carry);
        t1 = add_carry(t1, M1, &carry);
        t2 = add_carry(t2, M2, &carry);
        t3 = add_carry(t3, M3, &carry);
    }
    r->l[0] = t0, r->l[1] = t1, r->l[2] = t2, r->l[3] = t3;
}

MONT_FN void F(neg)(FIELD *r, const FIELD *a)
{
    F(sub)(r, &F(zero), a);
}

/* One CIOS round: t = (t + a * bi + q * m) / 2^64 with q making the low
 * limb vanish.  m's top limb is below 2^62, so t stays within four limbs
 * (the "no-carry" variant) and ends below 2m. */
#define MONT_ROUND(bi)                                                     \
    do {                                                                   \
        u128 z = (u128)a0 * (bi) + t0;                                     \
        uint64_t hi = (uint64_t)(z >> 64), c, q;                           \
        t0 = (uint64_t)z;                                                  \
        q = t0 * M_INV;                                                    \
        c = (uint64_t)(((u128)q * M0 + t0) >> 64);                         \
        z = (u128)a1 * (bi) + t1 + hi;                                     \
        hi = (uint64_t)(z >> 64);                                          \
        z = (u128)q * M1 + (uint64_t)z + c;                                \
        t0 = (uint64_t)z;                                                  \
        c = (uint64_t)(z >> 64);                                           \
        z = (u128)a2 * (bi) + t2 + hi;                                     \
        hi = (uint64_t)(z >> 64);                                          \
        z = (u128)q * M2 + (uint64_t)z + c;                                \
        t1 = (uint64_t)z;                                                  \
        c = (uint64_t)(z >> 64);                                           \
        z = (u128)a3 * (bi) + t3 + hi;                                     \
        hi = (uint64_t)(z >> 64);                                          \
        z = (u128)q * M3 + (uint64_t)z + c;                                \
        t2 = (uint64_t)z;                                                  \
        t3 = (uint64_t)(z >> 64) + hi;                                     \
    } while (0)

/* Montgomery product a * b / 2^256 mod m, for a, b < m. */
MONT_FN void F(mul)(FIELD *r, const FIELD *a, const FIELD *b)
{
    uint64_t a0 = a->l[0], a1 = a->l[1], a2 = a->l[2], a3 = a->l[3];
    uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    MONT_ROUND(b->l[0]);
    MONT_ROUND(b->l[1]);
    MONT_ROUND(b->l[2]);
    MONT_ROUND(b->l[3]);
    F(reduce_once)(r, t0, t1, t2, t3);
}

MONT_FN void F(sqr)(FIELD *r, const FIELD *a)
{
    F(mul)(r, a, a);
}

/* a^(m-2) = a^-1 for a != 0 (Fermat), left to right. */
MONT_FN void F(inv)(FIELD *r, const FIELD *a)
{
    FIELD e = F(modulus), acc = F(one);
    e.l[0] -= 2; /* both moduli's low limbs are odd and > 2: no borrow */
    for (int i = 3; i >= 0; i--)
        for (int bit = 63; bit >= 0; bit--) {
            F(sqr)(&acc, &acc);
            if ((e.l[i] >> bit) & 1)
                F(mul)(&acc, &acc, a);
        }
    *r = acc;
}

MONT_FN void F(load)(FIELD *r, const uint8_t *in)
{
    for (int i = 0; i < 4; i++) {
        uint64_t v = 0;
        for (int k = 7; k >= 0; k--)
            v = (v << 8) | in[8 * i + k];
        r->l[i] = v;
    }
}

MONT_FN void F(store)(uint8_t *out, const FIELD *a)
{
    for (int i = 0; i < 4; i++)
        for (int k = 0; k < 8; k++)
            out[8 * i + k] = (uint8_t)(a->l[i] >> (8 * k));
}

/* Bytes -> the canonical residue, not in Montgomery form.  Any value
 * < 2^256 is below 6m, so five conditional subtractions suffice. */
MONT_FN void F(load_reduced)(FIELD *r, const uint8_t *in)
{
    F(load)(r, in);
    for (int k = 0; k < 5; k++)
        F(reduce_once)(r, r->l[0], r->l[1], r->l[2], r->l[3]);
}

/* Bytes -> Montgomery form. */
MONT_FN void F(from_bytes)(FIELD *r, const uint8_t *in)
{
    FIELD a;
    F(load_reduced)(&a, in);
    F(mul)(r, &a, &F(r2));
}

MONT_FN void F(to_bytes)(uint8_t *out, const FIELD *a)
{
    static const FIELD unit = {{1, 0, 0, 0}};
    FIELD c;
    F(mul)(&c, a, &unit);
    F(store)(out, &c);
}

#ifndef MONT_NO_EXPORTS
/* Single field operations on 32-byte values below 2^256, for the limb
 * tests: each enters Montgomery form, operates and leaves it. */
void ZK(mul)(const uint8_t *a, const uint8_t *b, uint8_t *out)
{
    FIELD x, y;
    F(from_bytes)(&x, a);
    F(from_bytes)(&y, b);
    F(mul)(&x, &x, &y);
    F(to_bytes)(out, &x);
}

void ZK(add)(const uint8_t *a, const uint8_t *b, uint8_t *out)
{
    FIELD x, y;
    F(from_bytes)(&x, a);
    F(from_bytes)(&y, b);
    F(add)(&x, &x, &y);
    F(to_bytes)(out, &x);
}

void ZK(sub)(const uint8_t *a, const uint8_t *b, uint8_t *out)
{
    FIELD x, y;
    F(from_bytes)(&x, a);
    F(from_bytes)(&y, b);
    F(sub)(&x, &x, &y);
    F(to_bytes)(out, &x);
}
#endif
