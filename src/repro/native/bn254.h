/* BN254's constants for the curve kernels (g1msm.c, comb.c): the base
 * field Fp as an instance of mont.h, and the group order r with the
 * scalar helpers both kernels share.
 *
 * Scalars are four 64-bit limbs, least significant first, loaded from 32
 * little-endian bytes and reduced below r.
 */

#ifndef ZK_BN254_H
#define ZK_BN254_H

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

/* Every scalar below r fits in this many bits. */
#define SCALAR_BITS 254

/* The group order r, least significant limb first. */
static const uint64_t ORDER[4] = {
    0x43e1f593f0000001ULL, 0x2833e84879b97091ULL,
    0xb85045b68181585dULL, 0x30644e72e131a029ULL,
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

/* 32 bytes -> s mod r (s < 2^256 < 6r: at most five subtractions). */
static void load_scalar(uint64_t s[4], const uint8_t *in)
{
    fp v;
    uint64_t t[4];
    fp_load(&v, in);
    for (int k = 0; k < 4; k++)
        s[k] = v.l[k];
    while (!sub4(t, s, ORDER))
        for (int k = 0; k < 4; k++)
            s[k] = t[k];
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

#endif
