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
 *     sizes 1, 16 and 2^13, and the refused arguments of both transforms.
 *
 * Build and run from the repository root:
 *
 *   cc -std=c99 -g -O1 -fsanitize=address,undefined -fno-omit-frame-pointer \
 *      -fno-sanitize-recover=all tests/native/driver.c \
 *      src/repro/native/g1msm.c src/repro/native/qap.c -o driver && ./driver
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
