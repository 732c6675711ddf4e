/* The two loops of the package that run in compiled code, bit for bit:
 * one trajectory of chain.run_chain (chain_run) and one run of the random
 * Fibonacci recursion of recursion.run_fibonacci (fib_run).
 *
 * Both draw the same Philox-4x64-10 words as laws.RngStream (key (seed,
 * stream), word 4j+i of row t is word i of the block at counter
 * t*2^30 + j + 1) and a sign from the top bit, looked up as laws._signs
 * does. The chain also draws a normal from scipy's ndtri of the uniform of
 * the top 53 bits, as laws._uniforms, and runs the same float operations
 * in the same order as chain._step and chain._truncate: every sum runs
 * term by term from x[0], as chain._seq_sum does.
 *
 * A chain step draws its row ROW_CHUNK coordinates at a time, the Philox
 * blocks first and then their signs (a table lookup, not a branch on a
 * random bit) or normals, and only then adds row[i] * v[i] into g, carried
 * from chunk to chunk in index order: the blocks and ndtri calls,
 * independent of one another, overlap out of order instead of waiting on
 * the adds.
 *
 * Built with -O3 -ffp-contract=off and no fast-math: no product and sum
 * fuse into one rounding, and GCC reorders a floating-point sum only
 * under -fassociative-math. -O3 vectorizes the elementwise loops (the
 * divides, the |z| tail sums), exact per lane, and the products of the
 * sums, whose terms it still adds one by one in index order (an in-order,
 * "fold-left", reduction). log, log1p and sqrt are libm's, as Python's
 * math module takes them.
 *
 * Chain: z holds the state newest first in z[front .. front+k-1] of a
 * buffer of cap entries; a step prepends at front - 1. The caller decides
 * the bookkeeping: the weighted norm is stored after every stride-th step,
 * and |z| is summed into tail after every step past half. The run resumes
 * from the state in ist = {t, front, k, tail_len} and dst = {log_norm,
 * dropped} and returns the step it stopped at: n, or an earlier step when
 * the buffer must grow, after which the caller moves the block into a
 * larger buffer and calls again.
 *
 * Fibonacci: step k reads words 0 and 1 of row k, one Philox block, and
 * is the loop of recursion._fibonacci_reference written out in C.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef double (*ndtri_fn)(double, int);

#define ROW_CHUNK 256 /* coordinates drawn at a time; a multiple of the 4 words of a block */

static const double sign_of_top_bit[2] = {1.0, -1.0};

static void philox(uint64_t c0, uint64_t k0, uint64_t k1, uint64_t out[4])
{
    uint64_t c1 = 0, c2 = 0, c3 = 0;
    for (int r = 0; r < 10; r++) {
        __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93ULL * c0;
        __uint128_t p1 = (__uint128_t)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15ULL;
        k1 += 0xBB67AE8584CAA73BULL;
    }
    out[0] = c0, out[1] = c1, out[2] = c2, out[3] = c3;
}

static double uniform(uint64_t w)  /* laws._uniforms: 2^53 - 1 would round up to 1.0 */
{
    double u = (double)(w >> 11) * 0x1p-53 + 0x1p-54;
    return u < 0x1.fffffffffffffp-1 ? u : 0x1.fffffffffffffp-1;
}

/* coordinates i0 .. i0+m-1 of row t, i0 a multiple of 4, m <= ROW_CHUNK */
static void draw_row(uint64_t t, int64_t i0, int64_t m, uint64_t seed, uint64_t stream, ndtri_fn ndtri,
                     double *row)
{
    uint64_t word[ROW_CHUNK];
    for (int64_t b = 0; b < m; b += 4)
        philox((t << 30) + (uint64_t)((i0 + b) >> 2) + 1, seed, stream, word + b);
    if (ndtri)
        for (int64_t i = 0; i < m; i++)
            row[i] = ndtri(uniform(word[i]), 0);
    else
        for (int64_t i = 0; i < m; i++)
            row[i] = sign_of_top_bit[word[i] >> 63];
}

static double sum_squares(const double *v, int64_t k, const double *weights)
{
    double s = weights ? weights[0] * (v[0] * v[0]) : v[0] * v[0];
    for (int64_t i = 1; i < k; i++)
        s += weights ? weights[i] * (v[i] * v[i]) : v[i] * v[i];
    return s;
}

static void divide(double *v, int64_t k, double d)
{
    for (int64_t i = 0; i < k; i++)
        v[i] /= d;
}

int64_t chain_run(uint64_t seed, uint64_t stream, ndtri_fn ndtri, int64_t n, int64_t half, double tol,
                  const double *weights, int64_t stride, double *z, double *tail, int64_t cap,
                  double *increments, double *norms, int64_t *ist, double *dst)
{
    int64_t t = ist[0], front = ist[1], k = ist[2], tail_len = ist[3];
    double log_norm = dst[0], dropped = dst[1];
    for (; t < n; t++) {
        if (front == 0) {  /* move the live block to the end, or stop for a larger buffer */
            if (2 * (k + 1) > cap)
                break;
            memmove(z + cap - k, z, k * sizeof(double));
            front = cap - k;
        }
        const double *v = z + front;
        double row[ROW_CHUNK], g = -0.0;  /* -0.0 + x is x for every x, -0.0 too */
        for (int64_t i0 = 0; i0 < k; i0 += ROW_CHUNK) {
            int64_t m = k - i0 < ROW_CHUNK ? k - i0 : ROW_CHUNK;
            draw_row((uint64_t)t, i0, m, seed, stream, ndtri, row);
            for (int64_t i = 0; i < m; i++)
                g += row[i] * v[i0 + i];
        }
        double inc = 0.5 * log1p(g * g);
        increments[t] = inc;
        log_norm += inc;

        double *u = z + --front;
        u[0] = g;
        k++;
        divide(u, k, sqrt(sum_squares(u, k, NULL)));

        double t2 = tol * tol, tail_sq = 0.0;  /* chain._truncate */
        int64_t j = 0;
        for (int64_t idx = k - 1; idx > 0; idx--) {
            double grown = tail_sq + u[idx] * u[idx];
            if (grown >= t2)
                break;
            tail_sq = grown;
            j++;
        }
        if (j) {
            dropped += sqrt(tail_sq);
            k -= j;
            if (1.0 - tail_sq < 1.0)
                divide(u, k, sqrt(sum_squares(u, k, NULL)));
        }

        int64_t step = t + 1;
        if (step % stride == 0)
            norms[step / stride - 1] = sqrt(sum_squares(u, k, weights));
        if (step > half) {
            if (k > tail_len)
                tail_len = k;
            for (int64_t i = 0; i < k; i++)
                tail[i] += fabs(u[i]);
        }
    }
    ist[0] = t, ist[1] = front, ist[2] = k, ist[3] = tail_len;
    dst[0] = log_norm, dst[1] = dropped;
    return t;
}

void fib_run(uint64_t seed, uint64_t stream, int64_t n, double *out)
{
    double a = 1.0, b = 1.0, log_scale = 0.0;  /* (f[k], f[k-1]), renormalized */
    for (int64_t k = 1; k < n; k++) {
        uint64_t word[4];
        philox(((uint64_t)k << 30) + 1, seed, stream, word);
        double e0 = sign_of_top_bit[word[0] >> 63], e1 = sign_of_top_bit[word[1] >> 63];
        double next = e0 * a + e1 * b;
        b = a;
        a = next;
        double aa = fabs(a), ab = fabs(b);
        out[k + 1] = log_scale + (aa > 0.0 ? log(aa) : -INFINITY);
        double m = ab > aa ? ab : aa;
        if (m > 0x1p64 || m < 0x1p-64) {
            a /= m;
            b /= m;
            log_scale += log(m);
        }
    }
}
