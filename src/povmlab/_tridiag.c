/*
 * The grid's line arithmetic: solves with the LU factors of a complex
 * tridiagonal matrix A, as LAPACK's zgttrf leaves them, on many lines at
 * once, and the rest of a Crank-Nicolson phase around them.
 *
 * Two entries take the lines as a strided view: line j's cell i is at
 * x[i * step + j * ld], offsets counting complex numbers.  Adjacent lines
 * have ld = 1; contiguous lines, LAPACK's layout, have step = 1 and ld
 * zgttrs's ldb.
 *
 *   tridiag_solve_lines  x = A^-1 b on every line; b and x share the
 *                        view's strides, and b == x solves in place.
 *   tridiag_phase        with solve set, z = A^-1 (2 z - w), then for each
 *                        listed cell loss = (re*re + im*im) * keep and
 *                        z *= damp; with explicit set, then w = E z for
 *                        the tridiagonal E, without terms across line ends.
 *
 * Both take a scratch of tridiag_scratch(n, nrhs) doubles, which the caller
 * allocates once and reuses, so an entry allocates nothing.
 *
 * One stated rounding, the same on every host.  Each line gets exactly the
 * arithmetic of reference LAPACK's zgtts2 with trans = 'N', pivot branch
 * included: complex products are (ac - bd, ad + bc) and complex quotients
 * follow Smith's algorithm as gcc expands it under Fortran rules, so the
 * solve equals zgttrs's to the bit.  The explicit half uses the same plain
 * products, summed as (main*z[k] + up*z[k+1]) + low*z[k-1].  Built with
 * -O2 -ffp-contract=off and without -ffast-math, no operation is fused
 * into an FMA or reordered.
 *
 * Planar groups.  The entries work a view group by group of up to GROUP
 * lines.  load copies a group into the scratch as two planes, re and im,
 * cell-major with the lines innermost (line j's cell i at plane[i * L + j]
 * for L lanes), forming 2 z - w on the way in.  The workers solve, damp
 * and form the explicit half there, in loops over the L lanes, and store
 * copies the lines back; only load and store know step and ld.  Every line
 * of a group shares the factors, the pivots and the Smith divisors, so each
 * step of zgtts2 is one IEEE operation with the same scalar on every lane,
 * and a vector add, multiply or divide rounds each lane as the scalar one
 * does: the lanes give each line its exact bits.  A group of at most NARROW
 * lines, such as the one-line runs beside the walls, runs on NARROW lanes
 * in a scratch to match; lanes past a group's last line hold zeros and are
 * never stored.
 *
 * The clone and its FMA rule.  Where gcc's target_clones exists on x86-64
 * with glibc, the planar workers are built twice, for the baseline and for
 * AVX2, and the loader picks by the CPU; the library itself stays portable,
 * with no -march flag.  AVX2 brings no FMA, and no clone may bring it
 * (arch=x86-64-v3, avx512f): gcc turns interleaved complex products into
 * vfmaddsub instructions whatever -ffp-contract says, which changes bits.
 * Defining TRIDIAG_NO_CLONES builds the baseline workers alone, so a test
 * can hold the two builds to the same bits.
 *
 * Complex arrays are interleaved (re, im) doubles; ipiv is 1-based.
 */

#include <limits.h> /* defines __GLIBC__ on glibc */
#include <stddef.h>

/*
 * Lines worked together: a production group's planes (16 lines of 512
 * cells, 128 KiB) stay in L2 from load to store.  On production runs,
 * groups of 8 lines made the x phase 15% slower and groups of 32 the y
 * phase 45% slower.
 */
#define GROUP 16
/* lanes of a short group: one AVX2 vector, two SSE2 ones */
#define NARROW 4

/* target_clones picks through an ifunc, which needs glibc's loader */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute) && \
    !defined(TRIDIAG_NO_CLONES)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif
/* a body that each worker below instantiates with a constant lane count */
#define PLANAR static inline __attribute__((always_inline))
#define LANES for (int j = 0; j < L; j++)

typedef struct {
    const double *dl, *d, *du, *du2;
    const int *ipiv;
} factors;

/* a / d by Smith's algorithm with d's half precomputed: ratio and div */
typedef struct {
    int flip; /* |d.re| < |d.im| */
    double ratio, div;
} divisor;

static divisor smith(const double *d)
{
    divisor s;
    s.flip = __builtin_fabs(d[0]) < __builtin_fabs(d[1]);
    if (s.flip) {
        s.ratio = d[0] / d[1];
        s.div = d[0] * s.ratio + d[1];
    } else {
        s.ratio = d[1] / d[0];
        s.div = d[1] * s.ratio + d[0];
    }
    return s;
}

/* x = x / d on every lane */
PLANAR void divide(int L, double *restrict xr, double *restrict xi, const divisor *s)
{
    double ratio = s->ratio, div = s->div;
    if (s->flip)
        LANES {
            double re = xr[j], im = xi[j];
            xr[j] = (re * ratio + im) / div;
            xi[j] = (im * ratio - re) / div;
        }
    else
        LANES {
            double re = xr[j], im = xi[j];
            xr[j] = (im * ratio + re) / div;
            xi[j] = (im - re * ratio) / div;
        }
}

/* zgtts2's loops on the planes: x = A^-1 x on every lane */
PLANAR void solve_planes(int L, int n, const factors *f, double *restrict re,
                         double *restrict im)
{
    for (int i = 0; i < n - 1; i++) {
        double lr = f->dl[2 * i], li = f->dl[2 * i + 1];
        double *xr = re + i * L, *xi = im + i * L, *yr = xr + L, *yi = xi + L;
        if (f->ipiv[i] == i + 1)
            LANES {
                yr[j] = yr[j] - (lr * xr[j] - li * xi[j]);
                yi[j] = yi[j] - (lr * xi[j] + li * xr[j]);
            }
        else
            LANES {
                double r = xr[j], s = xi[j];
                xr[j] = yr[j];
                xi[j] = yi[j];
                yr[j] = r - (lr * xr[j] - li * xi[j]);
                yi[j] = s - (lr * xi[j] + li * xr[j]);
            }
    }
    divisor s = smith(f->d + 2 * (n - 1));
    divide(L, re + (n - 1) * L, im + (n - 1) * L, &s);
    if (n > 1) {
        int i = n - 2;
        double ur = f->du[2 * i], ui = f->du[2 * i + 1];
        double *xr = re + i * L, *xi = im + i * L, *yr = xr + L, *yi = xi + L;
        LANES {
            xr[j] = xr[j] - (ur * yr[j] - ui * yi[j]);
            xi[j] = xi[j] - (ur * yi[j] + ui * yr[j]);
        }
        s = smith(f->d + 2 * i);
        divide(L, xr, xi, &s);
    }
    for (int i = n - 3; i >= 0; i--) {
        double ur = f->du[2 * i], ui = f->du[2 * i + 1];
        double vr = f->du2[2 * i], vi = f->du2[2 * i + 1];
        double *xr = re + i * L, *xi = im + i * L, *yr = xr + L, *yi = xi + L;
        double *zr = yr + L, *zi = yi + L;
        LANES {
            double r = xr[j] - (ur * yr[j] - ui * yi[j]);
            double t = xi[j] - (ur * yi[j] + ui * yr[j]);
            xr[j] = r - (vr * zr[j] - vi * zi[j]);
            xi[j] = t - (vr * zi[j] + vi * zr[j]);
        }
        s = smith(f->d + 2 * i);
        divide(L, xr, xi, &s);
    }
}

/* x = E x on every lane, in place, E's off-diagonals stopping at line ends */
PLANAR void explicit_planes(int L, int n, const double *low, const double *main,
                            const double *up, double *restrict re, double *restrict im)
{
    double pr[GROUP], pi[GROUP], tr[GROUP], ti[GROUP]; /* x[i - 1], the new x[i] */
    for (int i = 0; i < n; i++) {
        double *xr = re + i * L, *xi = im + i * L;
        double ar = main[2 * i], ai = main[2 * i + 1];
        LANES {
            tr[j] = ar * xr[j] - ai * xi[j];
            ti[j] = ar * xi[j] + ai * xr[j];
        }
        if (i + 1 < n) {
            double ur = up[2 * i], ui = up[2 * i + 1];
            LANES {
                tr[j] = tr[j] + (ur * xr[j + L] - ui * xi[j + L]);
                ti[j] = ti[j] + (ur * xi[j + L] + ui * xr[j + L]);
            }
        }
        if (i > 0) {
            double lr = low[2 * (i - 1)], li = low[2 * (i - 1) + 1];
            LANES {
                tr[j] = tr[j] + (lr * pr[j] - li * pi[j]);
                ti[j] = ti[j] + (lr * pi[j] + li * pr[j]);
            }
        }
        LANES {
            pr[j] = xr[j];
            pi[j] = xi[j];
            xr[j] = tr[j];
            xi[j] = ti[j];
        }
    }
}

CLONES static void solve_wide(int n, const factors *f, double *restrict re, double *restrict im)
{
    solve_planes(GROUP, n, f, re, im);
}

CLONES static void solve_narrow(int n, const factors *f, double *restrict re, double *restrict im)
{
    solve_planes(NARROW, n, f, re, im);
}

CLONES static void explicit_wide(int n, const double *low, const double *main, const double *up,
                                 double *restrict re, double *restrict im)
{
    explicit_planes(GROUP, n, low, main, up, re, im);
}

CLONES static void explicit_narrow(int n, const double *low, const double *main,
                                   const double *up, double *restrict re, double *restrict im)
{
    explicit_planes(NARROW, n, low, main, up, re, im);
}

/* m lines of a view into L lanes of the planes: b, or 2 b - w where w is given */
static void load(int n, int m, int L, ptrdiff_t step, ptrdiff_t ld, const double *b,
                 const double *w, double *re, double *im)
{
    for (int i = 0; i < n; i++) {
        ptrdiff_t at = 2 * i * step;
        double *xr = re + i * L, *xi = im + i * L;
        for (int j = 0; j < m; j++, at += 2 * ld) {
            if (w) {
                xr[j] = 2.0 * b[at] - w[at];
                xi[j] = 2.0 * b[at + 1] - w[at + 1];
            } else {
                xr[j] = b[at];
                xi[j] = b[at + 1];
            }
        }
        for (int j = m; j < L; j++)
            xr[j] = xi[j] = 0.0;
    }
}

/* the first m lanes of the planes into m lines of a view */
static void store(int n, int m, int L, ptrdiff_t step, ptrdiff_t ld, const double *re,
                  const double *im, double *x)
{
    for (int i = 0; i < n; i++) {
        ptrdiff_t at = 2 * i * step;
        const double *xr = re + i * L, *xi = im + i * L;
        for (int j = 0; j < m; j++, at += 2 * ld) {
            x[at] = xr[j];
            x[at + 1] = xi[j];
        }
    }
}

/* the lanes a group of m lines runs on */
static int lanes(int m)
{
    return m > NARROW ? GROUP : NARROW;
}

size_t tridiag_scratch(int n, int nrhs)
{
    return 2 * (size_t)n * lanes(nrhs < GROUP ? nrhs : GROUP);
}

void tridiag_solve_lines(int n, int nrhs, ptrdiff_t step, ptrdiff_t ld, const double *dl,
                         const double *d, const double *du, const double *du2,
                         const int *ipiv, const double *b, double *x, double *scratch)
{
    factors f = {dl, d, du, du2, ipiv};
    for (int j = 0; j < nrhs; j += GROUP) {
        int m = nrhs - j < GROUP ? nrhs - j : GROUP, L = lanes(m);
        ptrdiff_t first = 2 * (ptrdiff_t)j * ld;
        double *re = scratch, *im = scratch + (ptrdiff_t)n * L;
        load(n, m, L, step, ld, b + first, NULL, re, im);
        (L == GROUP ? solve_wide : solve_narrow)(n, &f, re, im);
        store(n, m, L, step, ld, re, im, x + first);
    }
}

/*
 * at lists n_damped cells as j * n + i, line j's cell i, ascending; damp,
 * keep and loss are theirs, and loss may be NULL.  Each group runs from
 * load to store while its planes sit in L2.
 */
void tridiag_phase(int n, int nrhs, ptrdiff_t step, ptrdiff_t ld, const double *dl,
                   const double *d, const double *du, const double *du2, const int *ipiv,
                   const double *low, const double *main, const double *up,
                   ptrdiff_t n_damped, const ptrdiff_t *at, const double *damp,
                   const double *keep, double *loss, int solve, int explicit,
                   double *z, double *w, double *scratch)
{
    factors f = {dl, d, du, du2, ipiv};
    ptrdiff_t k = 0, line = 0;
    for (int j = 0; j < nrhs; j += GROUP) {
        int m = nrhs - j < GROUP ? nrhs - j : GROUP, L = lanes(m);
        ptrdiff_t first = 2 * (ptrdiff_t)j * ld;
        double *re = scratch, *im = scratch + (ptrdiff_t)n * L;
        load(n, m, L, step, ld, z + first, solve ? w + first : NULL, re, im);
        if (solve) {
            (L == GROUP ? solve_wide : solve_narrow)(n, &f, re, im);
            for (; k < n_damped && at[k] < (ptrdiff_t)(j + m) * n; k++) {
                while (at[k] >= (line + 1) * n)
                    line++;
                ptrdiff_t c = (at[k] - line * n) * L + (line - j);
                double x = re[c], y = im[c];
                if (loss)
                    loss[k] = (x * x + y * y) * keep[k];
                re[c] = x * damp[k];
                im[c] = y * damp[k];
            }
            store(n, m, L, step, ld, re, im, z + first);
        }
        if (explicit) {
            (L == GROUP ? explicit_wide : explicit_narrow)(n, low, main, up, re, im);
            store(n, m, L, step, ld, re, im, w + first);
        }
    }
}
