/* Fixed-base multiplication for the trusted setup: thousands of s * G
 * for the G1 generator and s * H for the G2 one, off the comb tables
 * repro.curves.msm._FixedBaseTable builds once per process.
 *
 * Built with the package's other C sources into one library by
 * repro/native (`cc -O2 -shared -fPIC`, on first use) and called through
 * ctypes.  Plain C99 plus `unsigned __int128`: no CPython API, no global
 * state, nothing kept between calls.  The comb itself (jacobian.h's
 * _comb) is written once and instantiated here for G1 over Fp and for G2
 * over Fp2 (fp2.h, u^2 = -1).
 *
 * Byte layout, all little-endian, 32 bytes per Fp coordinate (an Fp2 one
 * is c0 then c1, 64 bytes):
 *   table    ceil(254 / window) rows of 2^window - 1 affine entries, row
 *            k holding d * 2^(window k) * base for d = 1, 2, ...: x then
 *            y, finite points, coordinates < 2^256 (values >= p are
 *            reduced); 64 bytes per G1 entry, 128 per G2 entry;
 *   scalars  n * 32 bytes, any value < 2^256 (reduced mod r here);
 *   out      n affine points in the table's entry layout, coordinates
 *            < p; the identity (a scalar = 0 mod r) is all zeros, which
 *            lies on neither curve.
 * Each entry returns 0, -1 when out of memory (out untouched) or 2 for a
 * window outside [1, 16].
 */

#define MONT_NO_EXPORTS /* g1msm.c defines zk_fp_* */
#include "bn254.h"
#include "fp2.h"

#define COORD fp
#define COORD_BYTES 32
#define CURVE g1
#include "jacobian.h"

#define COORD fp2
#define COORD_BYTES 64
#define CURVE g2
#include "jacobian.h"

int zk_g1_comb(size_t n, unsigned window, const uint8_t *table,
               const uint8_t *scalars, uint8_t *out)
{
    return g1_comb(n, window, table, scalars, out);
}

int zk_g2_comb(size_t n, unsigned window, const uint8_t *table,
               const uint8_t *scalars, uint8_t *out)
{
    return g2_comb(n, window, table, scalars, out);
}
