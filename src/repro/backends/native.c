/*
 * Native phasor x visibility cores of the bucketed IDG gridder/degridder.
 *
 * These two functions replace the channel-recurrence cores of
 * repro.core.gridder.gridder_bucket_core and
 * repro.core.degridder.degridder_bucket_core; gather, A-term sandwich,
 * taper and scatter stay in NumPy.  The phase of pixel i and timestep t of
 * work item g is
 *
 *     alpha = s0[g] * base[i, t] - offset_phase[g, i],
 *     base  = 2 pi (l, m, n)_i . uvw_m[g, t],
 *     offset_phase = 2 pi (l, m, n)_i . offsets[g],
 *
 * and channel c of the item uses exp(i (alpha + c ds base)), advanced by the
 * step phasor exp(i ds base) and renormalised every renorm_interval
 * channels, as the NumPy cores do.
 *
 * Pixels are processed in blocks of LANES, one SIMD vector per quantity
 * (GCC/Clang vector extensions), and a block's working set stays in
 * registers while the (t, c) loops run (thread coarsening, the
 * pixel-vectorised CPU layout of the paper's Section V-B).  The last block
 * is padded with zero pixels, so any N**2 works.  The phasor and the
 * channel step come from a branch-free polynomial sincos on the same
 * vectors.
 *
 * Build: cc -O3 -march=native -fno-math-errno -shared -fPIC.  No
 * -ffast-math: NaN and Inf inputs must propagate to the output as they do
 * in NumPy.  Each call runs on the calling thread only.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

#define LANES 8

typedef double vd __attribute__((vector_size(LANES * sizeof(double))));
typedef uint64_t vu __attribute__((vector_size(LANES * sizeof(uint64_t))));

static const double TWO_PI = 6.28318530717958647693;

/* pi/2 split into three parts (Cody-Waite).  The first two have enough
 * trailing zero bits that k * PIO2_1 and k * PIO2_2 are exact for
 * |k| < 2**26, i.e. |x| < 1e8. */
static const double PIO2_1 = 1.57079625129699707031e+00;
static const double PIO2_2 = 7.54978941586159635335e-08;
static const double PIO2_3 = 5.39030285815811905290e-15;
static const double TWO_OVER_PI = 6.36619772367581382433e-01;
/* 1.5 * 2**52: adding it rounds to an integer that lands in the low
 * mantissa bits, which then give the quadrant without a conversion. */
static const double ROUND_MAGIC = 6755399441055744.0;

static inline vd load(const double *p)
{
    vd v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store(double *p, vd v)
{
    memcpy(p, &v, sizeof v);
}

/* sin and cos of every lane: reduce by k pi/2, evaluate the Cephes minimax
 * polynomials on [-pi/4, pi/4], then pick and sign by the quadrant k & 3. */
static inline void sincos_v(vd x, vd *s, vd *c)
{
    vd shifted = x * TWO_OVER_PI + ROUND_MAGIC;
    vu q = (vu)shifted;
    vd k = shifted - ROUND_MAGIC;
    vd r = ((x - k * PIO2_1) - k * PIO2_2) - k * PIO2_3;
    vd z = r * r;
    vd ps = z * 1.58962301576546568060e-10 - 2.50507477628578072866e-08;
    ps = ps * z + 2.75573136213857245213e-06;
    ps = ps * z - 1.98412698295895385996e-04;
    ps = ps * z + 8.33333333332211858878e-03;
    ps = ps * z - 1.66666666666666307295e-01;
    ps = r + r * z * ps;
    vd pc = z * -1.13585365213876817300e-11 + 2.08757008419747316778e-09;
    pc = pc * z - 2.75573141792967388112e-07;
    pc = pc * z + 2.48015872888517045348e-05;
    pc = pc * z - 1.38888888888730564116e-03;
    pc = pc * z + 4.16666666666665929218e-02;
    pc = (1.0 - 0.5 * z) + z * z * pc;
    vu swap = -(q & 1);
    vu sbits = ((vu)pc & swap) | ((vu)ps & ~swap);
    vu cbits = ((vu)ps & swap) | ((vu)pc & ~swap);
    *s = (vd)(sbits ^ ((q & 2) << 62));
    *c = (vd)(cbits ^ (((q + 1) & 2) << 62));
}

/* Element-wise sincos of n values (exported for the accuracy tests). */
void idg_sincos(int64_t n, const double *x, double *s, double *c)
{
    double buf[3][LANES];
    for (int64_t i = 0; i < n; i += LANES) {
        int64_t m = n - i < LANES ? n - i : LANES;
        memset(buf[0], 0, sizeof buf[0]);
        memcpy(buf[0], x + i, (size_t)m * sizeof(double));
        vd vs, vc;
        sincos_v(load(buf[0]), &vs, &vc);
        store(buf[1], vs);
        store(buf[2], vc);
        memcpy(s + i, buf[1], (size_t)m * sizeof(double));
        memcpy(c + i, buf[2], (size_t)m * sizeof(double));
    }
}

/* Per-call scratch, in blocks of LANES pixels: l, m, n and the offset phase
 * of every block, plus n_rows further vectors. */
typedef struct {
    int64_t n_blocks;
    vd *l, *m, *n, *offset, *rows;
} scratch_t;

static int scratch_init(scratch_t *sc, int64_t n_pixels, const double *lmn,
                        int64_t n_rows)
{
    int64_t nb = (n_pixels + LANES - 1) / LANES;
    size_t size = (size_t)(4 * nb + n_rows) * sizeof(vd);
    sc->n_blocks = nb;
    sc->l = aligned_alloc(sizeof(vd), size);
    if (sc->l == NULL)
        return -1;
    memset(sc->l, 0, size);
    sc->m = sc->l + nb;
    sc->n = sc->m + nb;
    sc->offset = sc->n + nb;
    sc->rows = sc->offset + nb;
    for (int64_t i = 0; i < n_pixels; i++) {
        sc->l[i / LANES][i % LANES] = lmn[3 * i];
        sc->m[i / LANES][i % LANES] = lmn[3 * i + 1];
        sc->n[i / LANES][i % LANES] = lmn[3 * i + 2];
    }
    return 0;
}

static void offset_phase(scratch_t *sc, const double *offset)
{
    for (int64_t b = 0; b < sc->n_blocks; b++)
        sc->offset[b] = TWO_PI * (sc->l[b] * offset[0] + sc->m[b] * offset[1]
                                  + sc->n[b] * offset[2]);
}

/* exp(i alpha) of block b at one timestep and, with_step, exp(i ds base). */
static inline void block_phasors(const scratch_t *sc, int64_t b,
                                 const double *uvw, double s0, double ds,
                                 int with_step, vd *pr, vd *pi, vd *sr, vd *si)
{
    vd base = TWO_PI * (sc->l[b] * uvw[0] + sc->m[b] * uvw[1]
                        + sc->n[b] * uvw[2]);
    sincos_v(s0 * base - sc->offset[b], pi, pr);
    if (with_step)
        sincos_v(ds * base, si, sr);
}

/* phasor *= step, then phasor /= |phasor| when renorm. */
static inline void advance(vd *pr, vd *pi, vd sr, vd si, int renorm)
{
    vd re = *pr * sr - *pi * si;
    vd im = *pr * si + *pi * sr;
    if (renorm) {
        vd mag;
        for (int j = 0; j < LANES; j++)
            mag[j] = sqrt(re[j] * re[j] + im[j] * im[j]);
        re /= mag;
        im /= mag;
    }
    *pr = re;
    *pi = im;
}

/*
 * acc[g, i, p] = sum_{t, c} exp(i alpha_c[g, i, t]) vis[g, t, c, p]
 *
 * vis: (G, T, C, 4) complex128, acc: (G, P, 4) complex128 (overwritten).
 * Returns 0, or -1 when the scratch allocation fails.
 */
int idg_gridder_core(int64_t n_items, int64_t n_times, int64_t n_channels,
                     int64_t n_pixels, const double *lmn, const double *uvw,
                     const double *scale0, double ds, const double *offsets,
                     const double *vis, int64_t renorm_interval, double *acc)
{
    scratch_t sc;
    if (scratch_init(&sc, n_pixels, lmn, 0) != 0)
        return -1;
    for (int64_t g = 0; g < n_items; g++) {
        const double *uvw_g = uvw + g * n_times * 3;
        const double *vis_g = vis + g * n_times * n_channels * 8;
        double *acc_g = acc + g * n_pixels * 8;
        offset_phase(&sc, offsets + 3 * g);
        for (int64_t b = 0; b < sc.n_blocks; b++) {
            vd ar[4] = {0}, ai[4] = {0};
            for (int64_t t = 0; t < n_times; t++) {
                vd pr, pi, sr = {0}, si = {0};
                block_phasors(&sc, b, uvw_g + 3 * t, scale0[g], ds,
                              n_channels > 1, &pr, &pi, &sr, &si);
                const double *v = vis_g + t * n_channels * 8;
                for (int64_t c = 0; c < n_channels; c++, v += 8) {
                    if (c > 0)
                        advance(&pr, &pi, sr, si, c % renorm_interval == 0);
                    for (int p = 0; p < 4; p++) {
                        ar[p] += pr * v[2 * p];
                        ar[p] -= pi * v[2 * p + 1];
                        ai[p] += pr * v[2 * p + 1];
                        ai[p] += pi * v[2 * p];
                    }
                }
            }
            int64_t lanes = n_pixels - b * LANES;
            lanes = lanes < LANES ? lanes : LANES;
            for (int64_t j = 0; j < lanes; j++) {
                double *dst = acc_g + (b * LANES + j) * 8;
                for (int p = 0; p < 4; p++) {
                    dst[2 * p] = ar[p][j];
                    dst[2 * p + 1] = ai[p][j];
                }
            }
        }
    }
    free(sc.l);
    return 0;
}

/*
 * out[g, t, c, p] = sum_i exp(-i alpha_c[g, i, t]) pixels[g, i, p]
 *
 * pixels: (G, P, 4) complex128, out: (G, T, C, 4) complex128 (overwritten).
 * A block's pixels, phasor and step stay in registers for the whole channel
 * loop; the per-channel sums go to a lane buffer of C x 8 vectors (L1-sized
 * for tens of channels), reduced across lanes once per timestep.
 * Returns 0, or -1 when the scratch allocation fails.
 */
int idg_degridder_core(int64_t n_items, int64_t n_times, int64_t n_channels,
                       int64_t n_pixels, const double *lmn, const double *uvw,
                       const double *scale0, double ds, const double *offsets,
                       const double *pixels, int64_t renorm_interval,
                       double *out)
{
    scratch_t sc;
    int64_t nb = (n_pixels + LANES - 1) / LANES;
    /* rows: the pixels as [block][polarisation x (re, im)] with the padding
     * lanes 0, then the lane buffer [channel][polarisation x (re, im)] */
    if (scratch_init(&sc, n_pixels, lmn, 8 * (nb + n_channels)) != 0)
        return -1;
    vd *px = sc.rows, *lb = px + 8 * nb;
    for (int64_t g = 0; g < n_items; g++) {
        const double *uvw_g = uvw + g * n_times * 3;
        const double *pix_g = pixels + g * n_pixels * 8;
        offset_phase(&sc, offsets + 3 * g);
        for (int64_t i = 0; i < n_pixels; i++)
            for (int k = 0; k < 8; k++)
                px[(i / LANES) * 8 + k][i % LANES] = pix_g[i * 8 + k];
        for (int64_t t = 0; t < n_times; t++) {
            memset(lb, 0, (size_t)(8 * n_channels) * sizeof(vd));
            for (int64_t b = 0; b < nb; b++) {
                vd pr, pi, sr = {0}, si = {0}, x[8];
                block_phasors(&sc, b, uvw_g + 3 * t, scale0[g], ds,
                              n_channels > 1, &pr, &pi, &sr, &si);
                pi = -pi;
                si = -si;
                for (int k = 0; k < 8; k++)
                    x[k] = px[b * 8 + k];
                vd *acc = lb;
                for (int64_t c = 0; c < n_channels; c++, acc += 8) {
                    if (c > 0)
                        advance(&pr, &pi, sr, si, c % renorm_interval == 0);
                    for (int p = 0; p < 4; p++) {
                        acc[2 * p] += pr * x[2 * p];
                        acc[2 * p] -= pi * x[2 * p + 1];
                        acc[2 * p + 1] += pr * x[2 * p + 1];
                        acc[2 * p + 1] += pi * x[2 * p];
                    }
                }
            }
            double *o = out + (g * n_times + t) * n_channels * 8;
            for (int64_t k = 0; k < 8 * n_channels; k++) {
                double sum = 0.0;
                for (int j = 0; j < LANES; j++)
                    sum += lb[k][j];
                o[k] = sum;
            }
        }
    }
    free(sc.l);
    return 0;
}
