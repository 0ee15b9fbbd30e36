/* A standalone driver for the compiled kernels of src/repro/native, for
 * builds under the sanitizers.  It calls only the library's exported
 * entry points, the way ctypes does, and checks:
 *
 *   - limb known answers for both moduli (Fp: zk_fp_*, Fr: zk_fr_*),
 *     including a 2^256 - 1 input that must be reduced;
 *   - the G1 MSM's exceptional cases: n = 0, n = 1, a repeated point, P
 *     next to -P, and the scalars 0, 1, r - 1 and >= r;
 *   - the sign fold on each side of (r - 1) / 2: the scalars (r +- 1) / 2,
 *     and vectors of small negatives (r - k), alone and beside a positive;
 *   - an NTT -> inverse NTT round trip at every size 2^0 .. 2^13;
 *   - the quotient on rows where u v - w vanishes on H (so h's top
 *     coefficient is zero, and all of h when the rows are constant) at
 *     sizes 1, 16 and 2^13, and the refused arguments of both transforms;
 *   - Fp2 known answers (zk_fp2_*): (-1 - u)^2 = 2u, u^-1 = -u, the
 *     inverse of zero is zero, and coefficients >= p are reduced;
 *   - both fixed-base combs (zk_g1_comb, zk_g2_comb) at two windows: n = 0,
 *     n = 1, an all-zero batch, repeated scalars, the scalars 0, 1,
 *     (r +- 1) / 2, r - 1, r, r + 5 and 2^256 - 1, batches across the
 *     comb's tile, a batch equal to its scalars one by one, and refused
 *     windows.  G1 answers come from the MSM; G2 ones from group-law
 *     relations (r - 1 gives -H, twice (r + 1) / 2 gives H, ...).
 *
 * Build and run from the repository root:
 *
 *   cc -std=c99 -g -O1 -fsanitize=address,undefined -fno-omit-frame-pointer \
 *      -fno-sanitize-recover=all tests/native/driver.c \
 *      $(find src/repro/native -name '*.c') -o driver && ./driver
 *
 * It prints one line per failed check and "ok" at the end, exiting 0
 * only when every check passed.  tests/test_native_sanitized.py does the
 * same from tier-1.
 */

#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

void zk_fp_mul(const uint8_t *, const uint8_t *, uint8_t *);
void zk_fp_add(const uint8_t *, const uint8_t *, uint8_t *);
void zk_fp_sub(const uint8_t *, const uint8_t *, uint8_t *);
void zk_fr_mul(const uint8_t *, const uint8_t *, uint8_t *);
void zk_fr_add(const uint8_t *, const uint8_t *, uint8_t *);
void zk_fr_sub(const uint8_t *, const uint8_t *, uint8_t *);
int zk_g1_msm(size_t, const uint8_t *, const uint8_t *, uint8_t *);
int zk_fr_ntt(size_t, uint8_t *, const uint8_t *);
int zk_qap_h(size_t, size_t, const uint8_t *, const uint8_t *, uint8_t *);
void zk_fp2_mul(const uint8_t *, const uint8_t *, uint8_t *);
void zk_fp2_sqr(const uint8_t *, uint8_t *);
void zk_fp2_inv(const uint8_t *, uint8_t *);
int zk_g1_comb(size_t, unsigned, const uint8_t *, const uint8_t *, uint8_t *);
int zk_g2_comb(size_t, unsigned, const uint8_t *, const uint8_t *, uint8_t *);

typedef void (*field_op)(const uint8_t *, const uint8_t *, uint8_t *);
typedef struct { uint8_t b[32]; } elem;

static int failures;

static void check(int ok, const char *what, long detail)
{
    if (!ok) {
        fprintf(stderr, "FAIL: %s (%ld)\n", what, detail);
        failures++;
    }
}

static elem E(uint64_t l0, uint64_t l1, uint64_t l2, uint64_t l3)
{
    uint64_t l[4] = {l0, l1, l2, l3};
    elem e;
    for (int i = 0; i < 4; i++)
        for (int k = 0; k < 8; k++)
            e.b[8 * i + k] = (uint8_t)(l[i] >> (8 * k));
    return e;
}

static elem small(uint64_t v)
{
    return E(v, 0, 0, 0);
}

static int same(elem a, elem b)
{
    return memcmp(a.b, b.b, 32) == 0;
}

static elem op(field_op f, elem a, elem b)
{
    elem r;
    f(a.b, b.b, r.b);
    return r;
}

/* -- limbs ----------------------------------------------------------------- */

typedef struct {
    const char *name;
    field_op mul, add, sub;
    elem modulus_minus_1, a, b, ab, a_plus_b, a_minus_b, all_ones_reduced;
} field_case;

static void check_field(const field_case *f)
{
    elem zero = small(0), one = small(1), m1 = f->modulus_minus_1;
    elem all_ones;
    memset(all_ones.b, 0xff, 32);
    check(same(op(f->mul, m1, m1), one), f->name, 1);
    check(same(op(f->add, m1, one), zero), f->name, 2);
    check(same(op(f->sub, zero, one), m1), f->name, 3);
    check(same(op(f->mul, f->a, f->b), f->ab), f->name, 4);
    check(same(op(f->add, f->a, f->b), f->a_plus_b), f->name, 5);
    check(same(op(f->sub, f->a, f->b), f->a_minus_b), f->name, 6);
    check(same(op(f->mul, all_ones, one), f->all_ones_reduced), f->name, 7);
    check(same(op(f->mul, zero, f->a), zero), f->name, 8);
}

static void check_limbs(void)
{
    const elem a = E(0x1234567890abcdefULL, 0x1234567890abcdefULL,
                     0x1234567890abcdefULL, 0x1234567890abcdefULL);
    const elem b = E(0xd239fd974cf450beULL, 0x0955a5327d2c4e5fULL,
                     0x654b5d78ffde894eULL, 0x0ce731cb216d2251ULL);
    const field_case fp = {
        "fp limbs", zk_fp_mul, zk_fp_add, zk_fp_sub,
        E(0x3c208c16d87cfd46ULL, 0x97816a916871ca8dULL,
          0xb85045b68181585dULL, 0x30644e72e131a029ULL),
        a, b,
        E(0x8bbe78beb66616adULL, 0xf66711133b2f73d9ULL,
          0x8590100d302a0d68ULL, 0x200eb66c4b654300ULL),
        E(0xe46e540fdda01eadULL, 0x1b89fbab0dd81c4eULL,
          0x777fb3f1908a573dULL, 0x1f1b8843b218f040ULL),
        E(0x3ffa58e143b77d31ULL, 0x08deb146137f7f8fULL,
          0xace8f8ff90cd44a1ULL, 0x054d24ad6f3eab9dULL),
        E(0xd35d438dc58f0d9cULL, 0x0a78eb28f5c70b3dULL,
          0x666ea36f7879462cULL, 0x0e0a77c19a07df2fULL),
    };
    const field_case fr = {
        "fr limbs", zk_fr_mul, zk_fr_add, zk_fr_sub,
        E(0x43e1f593f0000000ULL, 0x2833e84879b97091ULL,
          0xb85045b68181585dULL, 0x30644e72e131a029ULL),
        a, b,
        E(0x57e78f6c389c1246ULL, 0x6abdb588f6903630ULL,
          0xaf8f3223bbb027c1ULL, 0x0f8e0e17d29c52f0ULL),
        E(0xe46e540fdda01eadULL, 0x1b89fbab0dd81c4eULL,
          0x777fb3f1908a573dULL, 0x1f1b8843b218f040ULL),
        E(0x3ffa58e143b77d31ULL, 0x08deb146137f7f8fULL,
          0xace8f8ff90cd44a1ULL, 0x054d24ad6f3eab9dULL),
        E(0xac96341c4ffffffaULL, 0x36fc76959f60cd29ULL,
          0x666ea36f7879462eULL, 0x0e0a77c19a07df2fULL),
    };
    check_field(&fp);
    check_field(&fr);
}

/* -- G1 MSM ---------------------------------------------------------------- */

typedef struct { elem x, y; } point;

/* k * G for the k the cases below use; G = (1, 2). */
static point multiple(int k)
{
    switch (k) {
    case 1:
        return (point){small(1), small(2)};
    case 2:
        return (point){E(0xd3c208c16d87cfd3ULL, 0xd97816a916871ca8ULL,
                         0x9b85045b68181585ULL, 0x030644e72e131a02ULL),
                       E(0xff3ebf7a5a18a2c4ULL, 0x68a6a449e3538fc7ULL,
                         0xe7845f96b2ae9c0aULL, 0x15ed738c0e0a7c92ULL)};
    case 5:
        return (point){E(0xe849a8a7fa163fa9ULL, 0x62e4ded88953a39cULL,
                         0x66bc0204762b7743ULL, 0x17c139df0efee0f7ULL),
                       E(0x3ffc5718c6d4cc7cULL, 0x0baa9258e0b95927ULL,
                         0x4764a357af8a9fe7ULL, 0x01e0559bacb16066ULL)};
    case 6:
        return (point){E(0x2afe3d5b8c684af9ULL, 0x56719215d3b32a76ULL,
                         0xe0792fd9e7927798ULL, 0x09f4ca411a3f52f4ULL),
                       E(0x9d0f64583474d9c8ULL, 0x5273aa59429e2692ULL,
                         0x5d4366ab22e4ad33ULL, 0x0d8ef3d795acd4b3ULL)};
    case 7:
        return (point){E(0x983a6b86abffe078ULL, 0xcb6fc6ecb801bd76ULL,
                         0x9a5325f477629386ULL, 0x17072b2ed3bb8d75ULL),
                       E(0x77809f7f60d4af9eULL, 0xadfe3bf05d18f41bULL,
                         0x017bb54bfa19377aULL, 0x168ada6cd130dd52ULL)};
    case 30:
        return (point){E(0x876e93848625f5aeULL, 0x18b019feb45f833aULL,
                         0x4c11f66a3cffd553ULL, 0x036083bfa420b15aULL),
                       E(0xd56ca8b36adc9e36ULL, 0xaae9621988223514ULL,
                         0xb74fe62a7e921361ULL, 0x2630c348c019c3edULL)};
    default: /* -1: -G = (1, p - 2) */
        return (point){small(1),
                       E(0x3c208c16d87cfd45ULL, 0x97816a916871ca8dULL,
                         0xb85045b68181585dULL, 0x30644e72e131a029ULL)};
    }
}

/* r + k, for small k of either sign. */
static elem r_plus(int64_t k)
{
    return E(0x43e1f593f0000001ULL + (uint64_t)k, 0x2833e84879b97091ULL,
             0xb85045b68181585dULL, 0x30644e72e131a029ULL);
}

/* (r - 1) / 2 + k, for k in {0, 1}. */
static elem half_r_plus(uint64_t k)
{
    return E(0xa1f0fac9f8000000ULL + k, 0x9419f4243cdcb848ULL,
             0xdc2822db40c0ac2eULL, 0x183227397098d014ULL);
}

/* sum_i scalars[i] * points[i] == want (want_k 0: the identity). */
static void check_msm(const char *what, size_t n, const point *points,
                      const elem *scalars, int want_k)
{
    /* Exact-size heap copies, so the sanitizer sees any overread. */
    uint8_t *pts = malloc(64 * n + 1), *sc = malloc(32 * n + 1), out[64];
    for (size_t i = 0; i < n; i++) {
        memcpy(pts + 64 * i, points[i].x.b, 32);
        memcpy(pts + 64 * i + 32, points[i].y.b, 32);
        memcpy(sc + 32 * i, scalars[i].b, 32);
    }
    int rc = zk_g1_msm(n, pts, sc, out);
    if (want_k == 0) {
        check(rc == 1, what, rc);
    } else {
        point want = multiple(want_k);
        check(rc == 0 && memcmp(out, want.x.b, 32) == 0
                  && memcmp(out + 32, want.y.b, 32) == 0,
              what, rc);
    }
    free(pts);
    free(sc);
}

static void check_msm_cases(void)
{
    point g = multiple(1), g2 = multiple(2), g5 = multiple(5);
    point neg_g = multiple(-1);
    check_msm("n = 0", 0, NULL, NULL, 0);
    check_msm("n = 1", 1, (point[]){g}, (elem[]){small(7)}, 7);
    check_msm("repeated point", 2, (point[]){g, g},
              (elem[]){small(3), small(3)}, 6);
    check_msm("P next to -P", 2, (point[]){g, neg_g},
              (elem[]){small(9), small(9)}, 0);
    check_msm("P next to -P, then more", 3, (point[]){g, neg_g, g},
              (elem[]){small(9), small(9), small(30)}, 30);
    check_msm("scalars 0", 2, (point[]){g, g2},
              (elem[]){small(0), small(0)}, 0);
    check_msm("scalar 1", 1, (point[]){g5}, (elem[]){small(1)}, 5);
    check_msm("scalar r - 1", 1, (point[]){g}, (elem[]){r_plus(-1)}, -1);
    check_msm("scalar r", 1, (point[]){g2}, (elem[]){r_plus(0)}, 0);
    check_msm("scalar r + 5", 1, (point[]){g}, (elem[]){r_plus(5)}, 5);
    /* 2G * (r + 1) / 2 = G, which the fold reaches as 2G * -((r - 1) / 2). */
    check_msm("scalar (r + 1) / 2", 1, (point[]){g2},
              (elem[]){half_r_plus(1)}, 1);
    check_msm("scalar (r - 1) / 2", 1, (point[]){g2},
              (elem[]){half_r_plus(0)}, -1);
    check_msm("(r - 1) / 2 and (r + 1) / 2 on one point", 2, (point[]){g, g},
              (elem[]){half_r_plus(0), half_r_plus(1)}, 0);
    check_msm("small negatives only", 2, (point[]){neg_g, neg_g},
              (elem[]){r_plus(-20), r_plus(-10)}, 30);
    check_msm("small negatives and a positive", 4,
              (point[]){g, g2, neg_g, g5},
              (elem[]){r_plus(-1), r_plus(-2), r_plus(-12), small(0)}, 7);
}

/* -- Fp2 --------------------------------------------------------------------- */

static elem p_minus_1(void)
{
    return E(0x3c208c16d87cfd46ULL, 0x97816a916871ca8dULL,
             0xb85045b68181585dULL, 0x30644e72e131a029ULL);
}

/* c0 + c1 u as 64 bytes. */
static void fp2_bytes(uint8_t out[64], elem c0, elem c1)
{
    memcpy(out, c0.b, 32);
    memcpy(out + 32, c1.b, 32);
}

static void check_fp2(void)
{
    uint8_t a[64], b[64], out[64], want[64];
    fp2_bytes(a, p_minus_1(), p_minus_1()); /* -1 - u */
    fp2_bytes(want, small(0), small(2));
    zk_fp2_sqr(a, out);
    check(memcmp(out, want, 64) == 0, "fp2 (-1 - u)^2", 0);
    zk_fp2_mul(a, a, out);
    check(memcmp(out, want, 64) == 0, "fp2 (-1 - u)(-1 - u)", 0);
    fp2_bytes(b, small(0), small(1)); /* u */
    fp2_bytes(want, small(0), p_minus_1());
    zk_fp2_inv(b, out);
    check(memcmp(out, want, 64) == 0, "fp2 1/u", 0);
    zk_fp2_mul(b, b, out); /* u^2 = -1 */
    fp2_bytes(want, p_minus_1(), small(0));
    check(memcmp(out, want, 64) == 0, "fp2 u^2", 0);
    fp2_bytes(b, small(0), small(0));
    zk_fp2_inv(b, out);
    check(memcmp(out, b, 64) == 0, "fp2 1/0 = 0", 0);
    /* 2^256 - 1 in each coefficient, times one: both reduced mod p. */
    memset(a, 0xff, 64);
    fp2_bytes(b, small(1), small(0));
    elem reduced = E(0xd35d438dc58f0d9cULL, 0x0a78eb28f5c70b3dULL,
                     0x666ea36f7879462cULL, 0x0e0a77c19a07df2fULL);
    fp2_bytes(want, reduced, reduced);
    zk_fp2_mul(a, b, out);
    check(memcmp(out, want, 64) == 0, "fp2 reduces inputs >= p", 0);
}

/* -- fixed-base combs --------------------------------------------------------- */

static elem random_element(void);

typedef int (*comb_fn)(size_t, unsigned, const uint8_t *, const uint8_t *,
                       uint8_t *);

typedef struct {
    const char *name;
    comb_fn comb;
    size_t width; /* bytes per affine point: 64 (G1), 128 (G2) */
} group;

static size_t comb_rows(unsigned window)
{
    return (254 + window - 1) / window;
}

static size_t comb_entries(unsigned window)
{
    return comb_rows(window) * (((size_t)1 << window) - 1);
}

/* The comb over exact-size heap copies of the table and the scalars; the
 * n results land in out.  Returns the entry's code. */
static int comb_call(const group *g, unsigned window, const uint8_t *table,
                     const elem *scalars, size_t n, uint8_t *out)
{
    size_t tb = window >= 1 && window <= 16 ? comb_entries(window) * g->width : 0;
    uint8_t *t = malloc(tb ? tb : 1), *sc = malloc(n ? 32 * n : 1),
            *o = malloc(n ? g->width * n : 1);
    if (tb)
        memcpy(t, table, tb);
    for (size_t i = 0; i < n; i++)
        memcpy(sc + 32 * i, scalars[i].b, 32);
    int rc = g->comb(n, window, t, sc, o);
    if (rc == 0 && n)
        memcpy(out, o, g->width * n);
    free(t);
    free(sc);
    free(o);
    return rc;
}

/* d * 2^bits for d < 2^16, bits < 240. */
static elem shifted(uint64_t d, unsigned bits)
{
    uint64_t l[4] = {0, 0, 0, 0};
    l[bits / 64] = d << (bits % 64);
    if (bits % 64 && bits / 64 + 1 < 4)
        l[bits / 64 + 1] = d >> (64 - bits % 64);
    return E(l[0], l[1], l[2], l[3]);
}

/* The window-w table from the window-1 one (row k = 2^k base): all its
 * entries d * 2^(w k) * base in one batch, which crosses the comb's tile. */
static uint8_t *table_for(const group *g, const uint8_t *pow2, unsigned w)
{
    size_t digits = ((size_t)1 << w) - 1, n = comb_entries(w);
    elem *sc = malloc(n * sizeof *sc);
    uint8_t *table = malloc(n * g->width);
    for (size_t k = 0; k < comb_rows(w); k++)
        for (size_t d = 1; d <= digits; d++)
            sc[k * digits + d - 1] = shifted(d, (unsigned)(w * k));
    check(comb_call(g, 1, pow2, sc, n, table) == 0, g->name, 100 + (long)w);
    free(sc);
    return table;
}

/* (2^256 - 1) mod r. */
static elem ones_mod_r(void)
{
    return E(0xac96341c4ffffffaULL, 0x36fc76959f60cd29ULL,
             0x666ea36f7879462eULL, 0x0e0a77c19a07df2fULL);
}

enum { B_ZERO, B_ONE, B_HALF, B_HALF_UP, B_R_1, B_R, B_R_5, B_ONES,
       B_FIVE, B_ONES_MOD_R, B_COUNT };

static void boundaries(elem *b)
{
    memset(b[B_ONES].b, 0xff, 32);
    b[B_ZERO] = small(0);
    b[B_ONE] = small(1);
    b[B_HALF] = half_r_plus(0);
    b[B_HALF_UP] = half_r_plus(1);
    b[B_R_1] = r_plus(-1);
    b[B_R] = r_plus(0);
    b[B_R_5] = r_plus(5);
    b[B_FIVE] = small(5);
    b[B_ONES_MOD_R] = ones_mod_r();
}

static int is_zero_point(const uint8_t *p, size_t width)
{
    for (size_t i = 0; i < width; i++)
        if (p[i])
            return 0;
    return 1;
}

/* What both groups share, at window w over the window-1 table pow2; the
 * boundary scalars' points are left in out (B_COUNT * width bytes). */
static void check_comb_group(const group *g, const uint8_t *pow2, unsigned w,
                             uint8_t *out)
{
    size_t width = g->width;
    uint8_t *table = table_for(g, pow2, w);
    /* 2r < 2^256 is zero mod r too. */
    elem b[B_COUNT], zeros[3] = {
        small(0), r_plus(0),
        E(0x87c3eb27e0000002ULL, 0x5067d090f372e122ULL,
          0x70a08b6d0302b0baULL, 0x60c89ce5c2634053ULL),
    };
    boundaries(b);
    uint8_t *batch = malloc(B_COUNT * width), *one = malloc(width),
            *other = malloc(B_COUNT * width), *zero_out = malloc(3 * width);
    check(comb_call(g, w, table, b, B_COUNT, batch) == 0, g->name, 1);
    check(comb_call(g, 1, pow2, b, B_COUNT, other) == 0, g->name, 2);
    check(memcmp(batch, other, B_COUNT * width) == 0,
          "comb: the same points at two windows", (long)w);
    for (size_t i = 0; i < B_COUNT; i++) {
        check(comb_call(g, w, table, &b[i], 1, one) == 0, g->name, 3);
        check(memcmp(one, batch + i * width, width) == 0,
              "comb: n = 1 agrees with the batch", (long)i);
    }
    check(is_zero_point(batch + B_ZERO * width, width), "comb: 0 -> identity", 0);
    check(is_zero_point(batch + B_R * width, width), "comb: r -> identity", 0);
    check(!is_zero_point(batch + B_ONE * width, width), "comb: 1 is finite", 0);
    check(memcmp(batch + B_R_5 * width, batch + B_FIVE * width, width) == 0,
          "comb: r + 5 -> 5", 0);
    check(memcmp(batch + B_ONES * width, batch + B_ONES_MOD_R * width, width) == 0,
          "comb: 2^256 - 1 reduced mod r", 0);
    check(comb_call(g, w, table, zeros, 3, zero_out) == 0, g->name, 4);
    check(is_zero_point(zero_out, 3 * width), "comb: an all-zero batch", 0);
    elem repeated[4] = {b[B_HALF], b[B_HALF], b[B_HALF], b[B_HALF]};
    uint8_t *rep = malloc(4 * width);
    check(comb_call(g, w, table, repeated, 4, rep) == 0, g->name, 5);
    for (int i = 0; i < 4; i++)
        check(memcmp(rep + i * width, batch + B_HALF * width, width) == 0,
              "comb: repeated scalars", i);
    check(comb_call(g, w, table, NULL, 0, NULL) == 0, "comb: n = 0", 0);
    check(comb_call(g, 0, table, b, 1, one) == 2, "comb: window 0 refused", 0);
    check(comb_call(g, 17, table, b, 1, one) == 2, "comb: window 17 refused", 0);
    /* Across the tile: 300 random scalars, against the window-1 table. */
    size_t n = 300;
    elem *sc = malloc(n * sizeof *sc);
    uint8_t *x = malloc(n * width), *y = malloc(n * width);
    for (size_t i = 0; i < n; i++)
        sc[i] = random_element();
    check(comb_call(g, w, table, sc, n, x) == 0, g->name, 6);
    check(comb_call(g, 1, pow2, sc, n, y) == 0, g->name, 7);
    check(memcmp(x, y, n * width) == 0, "comb: a batch across the tile", (long)w);
    memcpy(out, batch, B_COUNT * width);
    free(table);
    free(batch);
    free(one);
    free(other);
    free(zero_out);
    free(rep);
    free(sc);
    free(x);
    free(y);
}

static void check_g1_comb(void)
{
    static const group g1 = {"g1 comb", zk_g1_comb, 64};
    uint8_t g[64] = {0}, *pow2 = malloc(254 * 64), out[B_COUNT * 64], want[64];
    g[0] = 1, g[32] = 2;
    for (unsigned k = 0; k < 254; k++)
        check(zk_g1_msm(1, g, shifted(1, k).b, pow2 + 64 * k) == 0, "g1 2^k", k);
    check_comb_group(&g1, pow2, 4, out);
    /* Every boundary against the MSM, the identity as zeros. */
    elem b[B_COUNT];
    boundaries(b);
    for (int i = 0; i < B_COUNT; i++) {
        if (zk_g1_msm(1, g, b[i].b, want) == 1)
            memset(want, 0, 64);
        check(memcmp(out + 64 * i, want, 64) == 0, "g1 comb against the MSM", i);
    }
    free(pow2);
}

/* -q for a G2 point's 128 bytes. */
static void g2_negate(uint8_t *q)
{
    uint8_t minus_one[64];
    fp2_bytes(minus_one, p_minus_1(), small(0));
    zk_fp2_mul(q + 64, minus_one, q + 64);
}

/* 2q, through a window-1 table every row of which is q: comb(3) = q + q. */
static void g2_double(const group *g, const uint8_t *q, uint8_t *out)
{
    uint8_t *flat = malloc(254 * 128);
    for (int k = 0; k < 254; k++)
        memcpy(flat + 128 * k, q, 128);
    elem three = small(3);
    check(comb_call(g, 1, flat, &three, 1, out) == 0, "g2 doubling", 0);
    free(flat);
}

static void check_g2_comb(void)
{
    static const group g2 = {"g2 comb", zk_g2_comb, 128};
    uint8_t h[128], *pow2 = malloc(254 * 128), out[B_COUNT * 128], t[128];
    fp2_bytes(h, E(0x46debd5cd992f6edULL, 0x674322d4f75edaddULL,
                   0x426a00665e5c4479ULL, 0x1800deef121f1e76ULL),
              E(0x97e485b7aef312c2ULL, 0xf1aa493335a9e712ULL,
                0x7260bfb731fb5d25ULL, 0x198e9393920d483aULL));
    fp2_bytes(h + 64, E(0x4ce6cc0166fa7daaULL, 0xe3d1e7690c43d37bULL,
                        0x4aab71808dcb408fULL, 0x12c85ea5db8c6debULL),
              E(0x55acdadcd122975bULL, 0xbc4b313370b38ef3ULL,
                0xec9e99ad690c3395ULL, 0x090689d0585ff075ULL));
    memcpy(pow2, h, 128);
    for (int k = 1; k < 254; k++)
        g2_double(&g2, pow2 + 128 * (k - 1), pow2 + 128 * k);
    check_comb_group(&g2, pow2, 3, out);
    check(memcmp(out + 128 * B_ONE, h, 128) == 0, "g2 comb: 1 -> H", 0);
    memcpy(t, h, 128);
    g2_negate(t);
    check(memcmp(out + 128 * B_R_1, t, 128) == 0, "g2 comb: r - 1 -> -H", 0);
    memcpy(t, out + 128 * B_HALF_UP, 128);
    g2_negate(t);
    check(memcmp(out + 128 * B_HALF, t, 128) == 0,
          "g2 comb: (r - 1) / 2 -> -((r + 1) / 2)", 0);
    g2_double(&g2, out + 128 * B_HALF_UP, t);
    check(memcmp(t, h, 128) == 0, "g2 comb: 2 ((r + 1) / 2) -> H", 0);
    /* 5H off a window-1 table every row of which is H: five set bits. */
    uint8_t *flat = malloc(254 * 128);
    for (int k = 0; k < 254; k++)
        memcpy(flat + 128 * k, h, 128);
    elem popcount5 = small(31);
    check(comb_call(&g2, 1, flat, &popcount5, 1, t) == 0, "g2 5H", 0);
    check(memcmp(out + 128 * B_FIVE, t, 128) == 0, "g2 comb: 5 -> 5H", 0);
    free(flat);
    free(pow2);
}

/* -- Fr transforms ------------------------------------------------------------ */

static elem fr_mul(elem a, elem b)
{
    return op(zk_fr_mul, a, b);
}

/* base^e for e < 2^256 given as four limbs, most significant first. */
static elem fr_pow(elem base, const uint64_t e[4])
{
    elem acc = small(1);
    for (int i = 0; i < 4; i++)
        for (int bit = 63; bit >= 0; bit--) {
            acc = fr_mul(acc, acc);
            if ((e[i] >> bit) & 1)
                acc = fr_mul(acc, base);
        }
    return acc;
}

/* M(x) = x 2^256 mod r: the form qap.c's tables take. */
static elem mont(elem x)
{
    return fr_mul(x, E(0xac96341c4ffffffbULL, 0x36fc76959f60cd29ULL,
                       0x666ea36f7879462eULL, 0x0e0a77c19a07df2fULL));
}

static elem fr_inverse(elem a)
{
    static const uint64_t r_minus_2[4] = {
        0x30644e72e131a029ULL, 0xb85045b68181585dULL,
        0x2833e84879b97091ULL, 0x43e1f593efffffffULL,
    };
    return fr_pow(a, r_minus_2);
}

/* A primitive 2^13-th root of unity: Fr.root_of_unity(8192). */
static elem root_2_13(void)
{
    return E(0x4aa49b8d9bbdd310ULL, 0xd31bf3e28e3a2d76ULL,
             0x001deac878b2667bULL, 0x006fab49b869ae62ULL);
}

/* pw[j] = w^j for j < n. */
static elem *powers(elem w, size_t n)
{
    elem *pw = malloc(n * sizeof *pw);
    pw[0] = small(1);
    for (size_t j = 1; j < n; j++)
        pw[j] = fr_mul(pw[j - 1], w);
    return pw;
}

static uint64_t rng_state = 0x9e3779b97f4a7c15ULL;

static elem random_element(void)
{
    uint64_t l[4];
    for (int i = 0; i < 4; i++) {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        l[i] = rng_state;
    }
    return E(l[0], l[1], l[2], l[3] >> 4); /* below 2^252 < r: canonical */
}

static void check_round_trips(void)
{
    const elem inv2 = E(0xa1f0fac9f8000001ULL, 0x9419f4243cdcb848ULL,
                        0xdc2822db40c0ac2eULL, 0x183227397098d014ULL);
    for (int log_n = 0; log_n <= 13; log_n++) {
        size_t n = (size_t)1 << log_n;
        elem w = root_2_13(), n_inv = small(1);
        for (int k = log_n; k < 13; k++)
            w = fr_mul(w, w);
        for (int k = 0; k < log_n; k++)
            n_inv = fr_mul(n_inv, inv2);
        elem *pw = powers(w, n);
        /* w^-j = w^(n - j); exact-size twiddle tables (at least one byte,
         * so malloc never sees zero). */
        uint8_t *fwd = malloc(32 * (n / 2) + 1), *inv = malloc(32 * (n / 2) + 1);
        for (size_t j = 0; j < n / 2; j++) {
            memcpy(fwd + 32 * j, pw[j].b, 32);
            memcpy(inv + 32 * j, (j ? pw[n - j] : pw[0]).b, 32);
        }
        elem *orig = malloc(n * sizeof *orig);
        uint8_t *values = malloc(32 * n);
        for (size_t i = 0; i < n; i++) {
            orig[i] = random_element();
            memcpy(values + 32 * i, orig[i].b, 32);
        }
        check(zk_fr_ntt(n, values, fwd) == 0, "ntt", log_n);
        check(zk_fr_ntt(n, values, inv) == 0, "inverse ntt", log_n);
        int back = 1;
        for (size_t i = 0; i < n; i++) {
            elem v;
            memcpy(v.b, values + 32 * i, 32);
            back &= same(fr_mul(v, n_inv), orig[i]);
        }
        check(back, "ntt -> inverse ntt round trip", log_n);
        free(pw);
        free(fwd);
        free(inv);
        free(orig);
        free(values);
    }
}

/* u = a and v = b on rows k < m, w = a b there, all zero beyond: u v - w
 * vanishes on H, so deg h <= n - 2 and h's top coefficient is zero; with
 * m = n, u and v are constants, u v - w = 0 and all of h is zero. */
static void check_quotient(int log_n, size_t m)
{
    size_t n = (size_t)1 << log_n;
    elem w = root_2_13(), g = small(5), one = small(1);
    const elem inv2 = E(0xa1f0fac9f8000001ULL, 0x9419f4243cdcb848ULL,
                        0xdc2822db40c0ac2eULL, 0x183227397098d014ULL);
    elem n_inv = one;
    for (int k = log_n; k < 13; k++)
        w = fr_mul(w, w);
    for (int k = 0; k < log_n; k++)
        n_inv = fr_mul(n_inv, inv2);
    elem *pw = powers(w, n), *gp = powers(g, n), *gip = powers(fr_inverse(g), n);
    elem g_n = fr_mul(gp[n - 1], g);
    elem nt_inv = fr_mul(n_inv, fr_inverse(op(zk_fr_sub, g_n, one)));

    /* qap.c's layout: M(x) = x 2^256 mod r on every entry. */
    size_t count = 2 * (n / 2) + 2 * n;
    uint8_t *tables = malloc(32 * (count + 1)), *at = tables;
    for (size_t j = 0; j < n / 2; j++, at += 32)
        memcpy(at, mont(pw[j]).b, 32);
    for (size_t j = 0; j < n / 2; j++, at += 32)
        memcpy(at, mont(j ? pw[n - j] : pw[0]).b, 32);
    for (size_t i = 0; i < n; i++, at += 32)
        memcpy(at, mont(fr_mul(gp[i], n_inv)).b, 32);
    for (size_t i = 0; i < n; i++, at += 32)
        memcpy(at, mont(mont(fr_mul(gip[i], nt_inv))).b, 32);
    memcpy(at, mont(nt_inv).b, 32);

    elem a = random_element(), b = random_element(), ab = fr_mul(a, b);
    uint8_t *evals = malloc(3 * 32 * m + 1), *out = malloc(32 * n);
    for (size_t k = 0; k < m; k++) {
        memcpy(evals + 32 * k, a.b, 32);
        memcpy(evals + 32 * (m + k), b.b, 32);
        memcpy(evals + 32 * (2 * m + k), ab.b, 32);
    }
    check(zk_qap_h(n, m, evals, tables, out) == 0, "quotient", log_n);
    int zero = 1;
    for (size_t i = m == n ? 0 : 32 * (n - 1); i < 32 * n; i++)
        zero &= out[i] == 0;
    check(zero, "quotient's known zeros", log_n);
    check(zk_qap_h(n, n + 1, evals, tables, out) == 2, "m > n refused", log_n);
    free(pw);
    free(gp);
    free(gip);
    free(tables);
    free(evals);
    free(out);
}

int main(void)
{
    uint8_t scratch[96] = {0};
    check_limbs();
    check_msm_cases();
    check_fp2();
    check_g1_comb();
    check_g2_comb();
    check_round_trips();
    check_quotient(0, 1);
    check_quotient(4, 11);
    check_quotient(4, 16);
    check_quotient(13, 4683);
    check(zk_fr_ntt(0, scratch, scratch) == 2, "ntt of size 0 refused", 0);
    check(zk_fr_ntt(3, scratch, scratch) == 2, "ntt of size 3 refused", 3);
    check(zk_qap_h(6, 1, scratch, scratch, scratch) == 2,
          "quotient of size 6 refused", 6);
    if (failures) {
        fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    puts("ok");
    return 0;
}
