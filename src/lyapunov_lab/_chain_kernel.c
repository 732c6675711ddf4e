/* The loops of the package that run in compiled code, bit for bit: one
 * trajectory of chain.run_chain (chain_run), one run of the exact integer
 * recursion of recursion.run_exact (exact_run), one run of the random
 * Fibonacci recursion of recursion.run_fibonacci (fib_run), one run of the
 * division recursion of recursion.run_vt (vt_run), a block of Gaussian rows
 * as laws.sample_rows draws them (normal_rows), the inverse normal CDF
 * of words (normals), and rows of CSV numbers in the bytes of
 * cli._cell_rule, str(v) and f"{v:.17g}" (csv_rows), byte for byte.
 *
 * Every loop draws the Philox-4x64-10 words of numpy's generator, which
 * laws.RngStream reads: key (seed, stream), and word 4j+i of row t is word i
 * of block row_block(t, j). A sign comes from the top bit, looked up as
 * laws._signs does. A normal is ndtri of the uniform of the top 53 bits, as
 * laws.draws computes it with scipy.special.ndtri; normals() is cephes
 * ndtri, the algorithm behind scipy's, with the same constants and the same
 * order of operations, so it gives the same bits (see normals below). The
 * chain runs the same float operations in the same order as chain._step and
 * chain._truncate, and vt those of recursion._vt_reference: every sum runs
 * term by term from x[0], as chain._seq_sum does.
 *
 * A chain or vt step draws its row DRAW_CHUNK coordinates at a time, the
 * Philox blocks first and then their signs (a table lookup, not a branch on
 * a random bit) or normals, and only then adds row[i] * v[i] into the dot
 * product, carried from chunk to chunk in index order: the blocks and the
 * normals, independent of one another, overlap out of order instead of
 * waiting on the adds.
 *
 * Built with -O3 -ffp-contract=off and no fast-math: no product and sum
 * fuse into one rounding, and GCC reorders a floating-point sum only
 * under -fassociative-math. -O3 vectorizes the elementwise loops (the
 * divides, the |z| tail sums, the passes of normals), exact per lane, and
 * the products of the sums, whose terms it still adds one by one in index
 * order (an in-order, "fold-left", reduction). log, log1p and sqrt are
 * libm's, as Python's math module and scipy take them.
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
 * Fibonacci and vt: step k reads words 0 and 1 of row k, one Philox block,
 * or the k normals of row k, and is the loop of _fibonacci_reference or of
 * _vt_reference in recursion written out in C.
 *
 * Exact: step k reads the k + 1 sign words of row k, from the same blocks
 * as draw_row, and forms x[k+1] = 2 P - S_k, P the sum of the x[j] whose
 * sign is +1 and S_k the sum of the history, as recursion._exact_reference
 * does in Python integers; here they are integers of 64-bit limbs in two's
 * complement, stored limb-major so that limb l of every x[j] is contiguous.
 * A sign becomes the mask (word >> 63) - 1, all ones for +1, and P adds the
 * 32-bit halves of x & mask in 64-bit sums, one carry per limb: a loop with
 * no branch, which vectorizes. It adds only the limbs live so far and one
 * more, where the sum may grow. The arithmetic is mod 2^64 per limb, so
 * every build and clone gives the same integers.
 *
 * CSV: the 17 significant digits of |v| = m 2^e, m < 2^53, are the integer
 * nearest v 10^(16 - E), E = floor(log10 |v|), ties to even, as Python's
 * correctly rounded "%.17g" takes them. They come from exact __uint128_t
 * arithmetic alone: m 5^k 2^(e + k) for k = 16 - E <= 32, or m 2^e divided
 * by 10^-k (E: see digits17). The layout is C's %g: trailing zeros stripped,
 * scientific form for E < -4 or E >= 17, two exponent digits at least. ±0,
 * ±inf and nan are written directly; any other float with |v| < 10^-16
 * (subnormals too) or |v| >= 2^120 makes csv_rows return -1, and the caller
 * writes those rows by its cell rule. No libm call and no floating-point
 * operation enters the digits, so every build writes the same bytes.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define DRAW_CHUNK 256 /* coordinates drawn at a time; a multiple of the 4 words of a block */

/* normals and exact_run run in one clone per x86-64 level, chosen when the library loads
 * (GCC 11 names the levels, and glibc resolves the choice);
 * -DKERNEL_NO_CLONES builds the default clone alone, as hosts below v3 run it */
#if defined(__x86_64__) && defined(__GLIBC__) && !defined(__clang__) && __GNUC__ >= 11 && !defined(KERNEL_NO_CLONES)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

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

/* the counter of block j of row t, whose words start at t 2^32; numpy's Philox adds 1 before each block */
static inline uint64_t row_block(uint64_t t, int64_t j)
{
    return (t << 30) + (uint64_t)j + 1;
}

/* cephes ndtri (Moshier, Cephes Math Library 2.8): central rational fit
 * for e^-2 < y <= 1 - e^-2, and two fits in z = 1/sqrt(-2 log y) for the
 * tails, x < 8 (y > e^-32) and x >= 8 */
static const double NDTRI_E2 = 0.13533528323661269189; /* e^-2 */
static const double NDTRI_S2PI = 2.50662827463100050242E0; /* sqrt(2 pi) */

static const double NDTRI_P0[5] = {
    -5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
    1.39312609387279679503E1, -1.23916583867381258016E0,
};
static const double NDTRI_Q0[8] = {
    1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
    -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0,
};
static const double NDTRI_P1[9] = {
    4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
    4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4,
};
static const double NDTRI_Q1[8] = {
    1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
    1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
};
static const double NDTRI_P2[9] = {
    3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
    1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9,
};
static const double NDTRI_Q2[8] = {
    6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
    2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9,
};

/* cephes polevl and p1evl: c[0] x^n + ... + c[n], and x^n + c[0] x^(n-1) + ... + c[n-1], by Horner */
static inline double polevl(double x, const double *c, int n)
{
    double ans = c[0];
    for (int i = 1; i <= n; i++)
        ans = ans * x + c[i];
    return ans;
}

static inline double p1evl(double x, const double *c, int n)
{
    double ans = x + c[0];
    for (int i = 1; i < n; i++)
        ans = ans * x + c[i];
    return ans;
}

/* out[i] = ndtri(uniform of words[i]), bit for bit scipy.special.ndtri(laws._uniforms(words)).
 *
 * Block by block: a pass converts words to uniforms (a uint64 -> double
 * conversion vectorizes only with AVX-512DQ, so it stays out of the next
 * pass); a pass computes the central branch for every lane, with no branch
 * on the value; a branch-free pass lists the tail lanes, where y <= e^-2
 * after the flip y = 1 - u of u > 1 - e^-2; then passes over that list:
 * libm log, sqrt, libm log again, and both tail fits, chosen per lane by
 * x < 8. The tail values overwrite the central values of their lanes. */
CLONES void normals(const uint64_t *words, double *out, int64_t m)
{
    double u[DRAW_CHUNK], ty[DRAW_CHUNK], tsign[DRAW_CHUNK], tx[DRAW_CHUNK], tlog[DRAW_CHUNK];
    int64_t lane[DRAW_CHUNK];
    for (int64_t b = 0; b < m; b += DRAW_CHUNK) {
        const uint64_t *w = words + b;
        double *o = out + b;
        int64_t len = m - b < DRAW_CHUNK ? m - b : DRAW_CHUNK;
        for (int64_t i = 0; i < len; i++) {
            /* laws._uniforms: m 2^-53 + 2^-54, and 2^53 - 1, which would round up to 1.0, clamped */
            double v = (double)(w[i] >> 11) * 0x1p-53 + 0x1p-54;
            u[i] = v < 0x1.fffffffffffffp-1 ? v : 0x1.fffffffffffffp-1;
        }
        for (int64_t i = 0; i < len; i++) {
            double y = u[i] - 0.5, y2 = y * y;
            double x = y + y * (y2 * polevl(y2, NDTRI_P0, 4) / p1evl(y2, NDTRI_Q0, 8));
            o[i] = x * NDTRI_S2PI;
        }
        int64_t nt = 0;
        for (int64_t i = 0; i < len; i++) {
            int flip = u[i] > 1.0 - NDTRI_E2;
            double y = flip ? 1.0 - u[i] : u[i];
            lane[nt] = i, ty[nt] = y, tsign[nt] = flip ? 1.0 : -1.0;
            nt += y <= NDTRI_E2;
        }
        for (int64_t j = 0; j < nt; j++)
            tlog[j] = log(ty[j]);
        for (int64_t j = 0; j < nt; j++)
            tx[j] = sqrt(-2.0 * tlog[j]);
        for (int64_t j = 0; j < nt; j++)
            tlog[j] = log(tx[j]);
        for (int64_t j = 0; j < nt; j++) {
            double x = tx[j], z = 1.0 / x, x0 = x - tlog[j] / x;
            double near = z * polevl(z, NDTRI_P1, 8) / p1evl(z, NDTRI_Q1, 8);
            double far = z * polevl(z, NDTRI_P2, 8) / p1evl(z, NDTRI_Q2, 8);
            ty[j] = (x0 - (x < 8.0 ? near : far)) * tsign[j]; /* cephes negates where it did not flip */
        }
        for (int64_t j = 0; j < nt; j++)
            o[lane[j]] = ty[j];
    }
}

/* coordinates i0 .. i0+m-1 of row t, i0 a multiple of 4, m <= DRAW_CHUNK */
static void draw_row(uint64_t t, int64_t i0, int64_t m, uint64_t seed, uint64_t stream, int gaussian, double *row)
{
    uint64_t word[DRAW_CHUNK];
    for (int64_t b = 0; b < m; b += 4)
        philox(row_block(t, (i0 + b) >> 2), seed, stream, word + b);
    if (gaussian)
        normals(word, row, m);
    else
        for (int64_t i = 0; i < m; i++)
            row[i] = sign_of_top_bit[word[i] >> 63];
}

/* rows first .. first+count-1 of k normals each into out, row after row, as laws.sample_rows(GAUSSIAN, ...) */
void normal_rows(uint64_t seed, uint64_t stream, uint64_t first, int64_t count, int64_t k, double *out)
{
    uint64_t word[DRAW_CHUNK + 4];
    int64_t m = 0;
    for (int64_t r = 0; r < count; r++)
        for (int64_t i = 0; i < k; i += 4) {
            philox(row_block(first + (uint64_t)r, i >> 2), seed, stream, word + m); /* m < DRAW_CHUNK, so 4 fit */
            m += k - i < 4 ? k - i : 4;
            if (m >= DRAW_CHUNK) {
                normals(word, out, m);
                out += m;
                m = 0;
            }
        }
    normals(word, out, m);
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

int64_t chain_run(uint64_t seed, uint64_t stream, int gaussian, int64_t n, int64_t half, double tol,
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
        double row[DRAW_CHUNK], g = -0.0;  /* -0.0 + x is x for every x, -0.0 too */
        for (int64_t i0 = 0; i0 < k; i0 += DRAW_CHUNK) {
            int64_t m = k - i0 < DRAW_CHUNK ? k - i0 : DRAW_CHUNK;
            draw_row((uint64_t)t, i0, m, seed, stream, gaussian, row);
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
        philox(row_block((uint64_t)k, 0), seed, stream, word);
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

/* steps 1 .. n into t[1 .. n] and out[1 .. n], from t[0] = 1; returns the
 * steps done: n, or k - 1 where the divisor of step k fell below 1e-300 */
int64_t vt_run(uint64_t seed, uint64_t stream, int64_t n, double *t, double *out)
{
    double log_scale = 0.0, sumsq = 1.0, cur_max = 1.0;
    for (int64_t k = 1; k <= n; k++) {
        double row[DRAW_CHUNK], dot = -0.0, div = 0.0;
        for (int64_t i0 = 0; i0 < k; i0 += DRAW_CHUNK) {
            int64_t m = k - i0 < DRAW_CHUNK ? k - i0 : DRAW_CHUNK;
            draw_row((uint64_t)k, i0, m, seed, stream, 1, row);
            for (int64_t i = 0; i < m; i++)
                dot += row[i] * t[k - 1 - i0 - i];
            div = row[m - 1];
        }
        if (fabs(div) < 1e-300)
            return k - 1;
        double val = dot / div;
        t[k] = val;
        sumsq += val * val;
        out[k] = 2.0 * log_scale + log(sumsq);
        double aval = fabs(val);
        if (aval > cur_max)
            cur_max = aval;
        if (cur_max > 0x1p64) {  /* the max only grows between renormalizations: the state max becomes 1 */
            divide(t, k + 1, cur_max);
            sumsq /= cur_max * cur_max;
            log_scale += log(cur_max);
            cur_max = 1.0;
        }
    }
    return n;
}

/* x[0 .. n] of the exact recursion, x[0] = 1, in w limbs of two's complement,
 * limb l of x[j] at x[l * (n + 1) + j]; every value is sign-extended through
 * all w limbs. sum holds S_k, also in w limbs, and mask n + 1 words. Returns
 * the live limbs: every x[j] is that many limbs wide as a signed integer. */
CLONES int64_t exact_run(uint64_t seed, uint64_t stream, int64_t n, int64_t w, uint64_t *x, uint64_t *sum,
                         uint64_t *mask)
{
    int64_t stride = n + 1, live = 1;
    for (int64_t l = 0; l < w; l++)
        x[l * stride] = sum[l] = l == 0;
    for (int64_t k = 0; k < n; k++) {
        /* word i of row k signs x[k - i]; the mask keeps x[j] where its sign is +1 */
        for (int64_t b = 0; b <= k; b += 4) {
            uint64_t word[4];
            philox(row_block((uint64_t)k, b >> 2), seed, stream, word);
            for (int64_t i = 0; i < 4 && b + i <= k; i++)
                mask[k - b - i] = (word[i] >> 63) - 1;
        }
        /* |x[k+1]| <= (k + 1) max |x[j]|, so one headroom limb holds it, and
         * x[k+1] = 2 P - S_k taken mod 2^(64 m) is x[k+1] itself */
        int64_t m = live + 1;
        uint64_t *out = x + k + 1, carry = 0, top = 0, borrow = 0;
        for (int64_t l = 0; l < m; l++) {
            const uint64_t *xl = x + l * stride;
            uint64_t lo = 0, hi = 0;  /* the halves of limb l of P, each below 2^45 */
            for (int64_t j = 0; j <= k; j++) {
                uint64_t v = xl[j] & mask[j];
                lo += v & 0xFFFFFFFFu;
                hi += v >> 32;
            }
            __uint128_t p = (__uint128_t)lo + ((__uint128_t)hi << 32) + carry;
            carry = (uint64_t)(p >> 64);
            uint64_t twice = (uint64_t)p << 1 | top;  /* limb l of 2 P */
            top = (uint64_t)p >> 63;
            __uint128_t d = (__uint128_t)twice - sum[l] - borrow;
            out[l * stride] = (uint64_t)d;
            borrow = (uint64_t)(d >> 64) & 1;
        }
        uint64_t ext = (uint64_t)((int64_t)out[(m - 1) * stride] >> 63);
        for (int64_t l = m; l < w; l++)
            out[l * stride] = ext;
        /* live + 1 < w holds by the bound on |x|; tested all the same, so that no build writes past x */
        if (live + 1 < w && out[live * stride] != (uint64_t)((int64_t)out[(live - 1) * stride] >> 63))
            live++;
        carry = 0;
        for (int64_t l = 0; l < w; l++) {
            __uint128_t s = (__uint128_t)sum[l] + out[l * stride] + carry;
            sum[l] = (uint64_t)s;
            carry = (uint64_t)(s >> 64);
        }
    }
    return live;
}

/* CSV text: "%.17g" of a float64, "%s" of an int64, in Python's bytes */
#define P16 10000000000000000ULL  /* 10^16 */
#define P17 100000000000000000ULL /* 10^17 */
#define E_MIN (-16) /* the least exponent written: k = 16 - E <= 32 keeps m 5^k below 2^53 5^32 < 2^128 */

/* floor(x) of x = m 2^e 10^k, 0 <= x < 10^18, into *q, and whether x rounds up from it,
 * half to even, into *up; pow5 holds 5^0 .. 5^(16 - E_MIN) */
static void scaled(uint64_t m, int e, int k, const __uint128_t *pow5, uint64_t *q, int *up)
{
    __uint128_t rest, unit; /* the fraction of x, and 1, counted in units of 2^s (k >= 0) or of 10^k */
    if (k >= 0) {
        __uint128_t n = (__uint128_t)m * pow5[k];
        int s = e + k;
        if (s >= 0) {
            *q = (uint64_t)(n << s);
            *up = 0;
            return;
        }
        *q = (uint64_t)(n >> -s);
        unit = (__uint128_t)1 << -s;
        rest = n & (unit - 1);
    } else { /* E >= 17, so |v| >= 2^54 and e >= 2; |v| < 2^120 keeps m 2^e in 128 bits */
        __uint128_t n = (__uint128_t)m << e;
        unit = pow5[-k] << -k;
        *q = (uint64_t)(n / unit);
        rest = n % unit;
    }
    *up = 2 * rest > unit || (2 * rest == unit && (*q & 1));
}

/* |v| = (2^52 + f) 2^(be - 1075), a normal double, as the digits q in [10^16, 10^17) and the
 * exponent E of its 17 significant digits, q 10^(E - 16); -1 where |v| < 10^E_MIN or >= 2^120,
 * and for a subnormal, be = 0, which lies below */
static int digits17(uint64_t be, uint64_t f, const __uint128_t *pow5, uint64_t *digits, int *exp10)
{
    uint64_t m = f | 1ULL << 52, q;
    int e = (int)be - 1075, b = (int)be - 1023, up; /* |v| = m 2^e in [2^b, 2^(b+1)) */
    int E = (b * 78913) >> 18; /* floor(b log10 2): floor(log10 |v|) is this or one more */
    if (E < E_MIN - 1 || b >= 120)
        return -1;
    if (E < E_MIN)
        E = E_MIN;
    scaled(m, e, 16 - E, pow5, &q, &up);
    if (q >= P17) { /* E from the value before rounding */
        E++;
        scaled(m, e, 16 - E, pow5, &q, &up);
    } else if (q < P16) { /* only where E was raised to E_MIN */
        return -1;
    }
    q += up;
    if (q == P17) { /* rounded up to the next power of ten */
        q = P16;
        E++;
    }
    *digits = q, *exp10 = E;
    return 0;
}

static const char PAIRS[] = "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
                            "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
                            "8081828384858687888990919293949596979899";

/* the n decimal digits of u, leading zeros included */
static void put_digits(char *d, uint32_t u, int n)
{
    for (; n >= 2; n -= 2, u /= 100)
        memcpy(d + n - 2, PAIRS + 2 * (u % 100), 2);
    if (n)
        d[0] = (char)('0' + u);
}

/* v as "%.17g" writes it, where v is 0, inf, nan or of the exact range; returns the end, or NULL */
static char *put_float(char *p, double v, const __uint128_t *pow5)
{
    uint64_t bits;
    memcpy(&bits, &v, 8);
    uint64_t be = bits >> 52 & 0x7FF, f = bits & ((1ULL << 52) - 1);
    if (be == 0x7FF && f) { /* nan, of either sign */
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (be == 0x7FF) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (be == 0 && f == 0) {
        *p = '0';
        return p + 1;
    }
    uint64_t q;
    int E;
    if (digits17(be, f, pow5, &q, &E))
        return NULL;
    char d[17];
    put_digits(d, (uint32_t)(q / 100000000), 9);
    put_digits(d + 9, (uint32_t)(q % 100000000), 8);
    int nd = 17; /* the digits left when the trailing zeros are stripped */
    while (nd > 1 && d[nd - 1] == '0')
        nd--;
    if (E < -4 || E >= 17) { /* d.ddde+XX, two exponent digits since E_MIN <= E < 37 */
        *p++ = d[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, d + 1, nd - 1);
            p += nd - 1;
        }
        int a = E < 0 ? -E : E;
        p[0] = 'e', p[1] = E < 0 ? '-' : '+', p[2] = (char)('0' + a / 10), p[3] = (char)('0' + a % 10);
        return p + 4;
    }
    if (E >= 0) { /* the integer digits, then what is left of the fraction */
        memcpy(p, d, E + 1);
        p += E + 1;
        if (nd > E + 1) {
            *p++ = '.';
            memcpy(p, d + E + 1, nd - E - 1);
            p += nd - E - 1;
        }
        return p;
    }
    memcpy(p, "0.0000", 1 - E); /* 0.ddd to 0.000ddd */
    p += 1 - E;
    memcpy(p, d, nd);
    return p + nd;
}

static char *put_int(char *p, int64_t v)
{
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    char d[20];
    int n = 0;
    do
        d[n++] = (char)('0' + u % 10);
    while (u /= 10);
    if (v < 0)
        *p++ = '-';
    while (n)
        *p++ = d[--n];
    return p;
}

/* nrows rows of ncols cells as CSV lines into out: cells[r * ncols + j] is a float64 where
 * kinds[j] is 'f' and an int64 elsewhere; a cell and its separator take at most 24 bytes.
 * Returns the bytes written, or -1 where a float is nonzero and finite but outside the
 * exact range, 10^E_MIN <= |v| < 2^120, and the caller writes the rows by its cell rule. */
int64_t csv_rows(const uint64_t *cells, int64_t nrows, int64_t ncols, const char *kinds, char *out)
{
    __uint128_t pow5[17 - E_MIN] = {1};
    for (int i = 1; i < 17 - E_MIN; i++)
        pow5[i] = pow5[i - 1] * 5;
    char *p = out;
    for (int64_t r = 0; r < nrows; r++)
        for (int64_t j = 0; j < ncols; j++) {
            uint64_t w = cells[r * ncols + j];
            if (kinds[j] == 'f') {
                double v;
                memcpy(&v, &w, 8);
                if (!(p = put_float(p, v, pow5)))
                    return -1;
            } else {
                p = put_int(p, (int64_t)w);
            }
            *p++ = j + 1 < ncols ? ',' : '\n';
        }
    return p - out;
}
