/* One trajectory of chain.run_chain in compiled code, bit for bit.
 *
 * Same Philox-4x64-10 words as laws.RngStream (key (seed, stream), word
 * 4j+i of row t is word i of the block at counter t*2^30 + j + 1), same
 * draws (a sign from the top bit, a normal from scipy's ndtri of the top
 * 53 bits), and the same float operations in the same order as
 * chain._step and chain._truncate: every sum runs term by term from x[0],
 * as chain._seq_sum does. Built with -ffp-contract=off so that no product
 * and sum fuse into one rounding.
 *
 * z holds the state newest first in z[front .. front+k-1] of a buffer of
 * cap entries; a step prepends at front - 1. The run resumes from the
 * state in ist = {t, front, k, tail_len} and dst = {log_norm, comp,
 * dropped} and returns the step it stopped at: n, or an earlier step when
 * the buffer must grow, after which the caller moves the block into a
 * larger buffer and calls again.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef double (*ndtri_fn)(double, int);

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

int64_t chain_run(uint64_t seed, uint64_t stream, ndtri_fn ndtri, int64_t n, double tol,
                  const double *weights, int64_t stride, double *z, double *tail, int64_t cap,
                  double *increments, double *norms, int64_t *ist, double *dst)
{
    int64_t t = ist[0], front = ist[1], k = ist[2], tail_len = ist[3];
    double log_norm = dst[0], comp = dst[1], dropped = dst[2];
    for (; t < n; t++) {
        if (front == 0) {  /* move the live block to the end, or stop for a larger buffer */
            if (2 * (k + 1) > cap)
                break;
            memmove(z + cap - k, z, k * sizeof(double));
            front = cap - k;
        }
        const double *v = z + front;
        uint64_t word[4];
        double g = 0.0;
        for (int64_t i = 0; i < k; i++) {
            if ((i & 3) == 0)
                philox(((uint64_t)t << 30) + (uint64_t)(i >> 2) + 1, seed, stream, word);
            uint64_t w = word[i & 3];
            double r = ndtri ? ndtri((double)(w >> 11) * 0x1p-53 + 0x1p-54, 0) : (w >> 63 ? -1.0 : 1.0);
            g = i ? g + r * v[i] : r * v[i];
        }
        double inc = 0.5 * log1p(g * g);
        increments[t] = inc;
        double sum = log_norm + inc;  /* util.neumaier_add */
        comp += fabs(log_norm) >= fabs(inc) ? (log_norm - sum) + inc : (inc - sum) + log_norm;
        log_norm = sum;

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
        if (step > n / 2) {
            if (k > tail_len)
                tail_len = k;
            for (int64_t i = 0; i < k; i++)
                tail[i] += fabs(u[i]);
        }
    }
    ist[0] = t, ist[1] = front, ist[2] = k, ist[3] = tail_len;
    dst[0] = log_norm, dst[1] = comp, dst[2] = dropped;
    return t;
}
