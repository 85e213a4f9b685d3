/*
 * Solves A x = b with the LU factors of a complex tridiagonal matrix A, as
 * LAPACK's zgttrf leaves them, on many right-hand sides ("lines") at once.
 *
 * Each line gets exactly the arithmetic of reference LAPACK's zgtts2 with
 * trans = 'N', pivot branch included: complex products are
 * (ac - bd, ad + bc) and complex quotients follow Smith's algorithm as gcc
 * expands it under Fortran rules.  Built with -O2 -ffp-contract=off and
 * without -ffast-math, no operation is fused or reordered, so the result
 * equals zgttrs's to the bit.  zgtts2 walks one line at a time, each cell
 * waiting on the one before it; walking many lines in lockstep hides that
 * latency.
 *
 * Complex arrays are interleaved (re, im) doubles; ipiv is 1-based.  The
 * one entry, tridiag_solve_lines, takes the lines as a strided view: line
 * j's cell i is at b[i * step + j * ld], offsets counting complex numbers.
 * Adjacent lines have ld = 1; contiguous lines, LAPACK's layout, have
 * step = 1 and ld zgttrs's ldb.
 */

#include <stddef.h>

/*
 * Lines solved together: a group's slice of a production run (16 lines of
 * 512 cells, 128 KiB) stays in L2 between the forward and the backward
 * pass.  Groups of 4 to 64 lines measured the same.
 */
#define GROUP 16

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

static inline void quotient(double *x, double re, double im, const divisor *s)
{
    if (s->flip) {
        x[0] = (re * s->ratio + im) / s->div;
        x[1] = (im * s->ratio - re) / s->div;
    } else {
        x[0] = (im * s->ratio + re) / s->div;
        x[1] = (im - re * s->ratio) / s->div;
    }
}

/* y -= l * x */
static inline void eliminate(double *y, const double *l, const double *x)
{
    double re = y[0] - (l[0] * x[0] - l[1] * x[1]);
    double im = y[1] - (l[0] * x[1] + l[1] * x[0]);
    y[0] = re;
    y[1] = im;
}

/* x, y = y, x - l * y */
static inline void swap_eliminate(double *x, double *y, const double *l)
{
    double re = x[0], im = x[1];
    x[0] = y[0];
    x[1] = y[1];
    y[0] = re - (l[0] * x[0] - l[1] * x[1]);
    y[1] = im - (l[0] * x[1] + l[1] * x[0]);
}

/* x = (x - u * y) / d */
static inline void substitute1(double *x, const double *u, const double *y, const divisor *s)
{
    double re = x[0] - (u[0] * y[0] - u[1] * y[1]);
    double im = x[1] - (u[0] * y[1] + u[1] * y[0]);
    quotient(x, re, im, s);
}

/* x = (x - u * y - u2 * z) / d */
static inline void substitute2(double *x, const double *u, const double *y,
                               const double *u2, const double *z, const divisor *s)
{
    double re = x[0] - (u[0] * y[0] - u[1] * y[1]);
    double im = x[1] - (u[0] * y[1] + u[1] * y[0]);
    re = re - (u2[0] * z[0] - u2[1] * z[1]);
    im = im - (u2[0] * z[1] + u2[1] * z[0]);
    quotient(x, re, im, s);
}

/* zgtts2's loops on m lines of a view, with the lines innermost */
static void solve_group(int n, int m, ptrdiff_t step, ptrdiff_t ld, const double *dl,
                        const double *d, const double *du, const double *du2,
                        const int *ipiv, double *b)
{
    ptrdiff_t next = 2 * step, across = 2 * ld;
    for (int i = 0; i < n - 1; i++) {
        double *x = b + i * next;
        const double *l = dl + 2 * i;
        if (ipiv[i] == i + 1)
            for (int j = 0; j < m; j++)
                eliminate(x + j * across + next, l, x + j * across);
        else
            for (int j = 0; j < m; j++)
                swap_eliminate(x + j * across, x + j * across + next, l);
    }
    divisor s = smith(d + 2 * (n - 1));
    double *x = b + (n - 1) * next;
    for (int j = 0; j < m; j++)
        quotient(x + j * across, x[j * across], x[j * across + 1], &s);
    if (n > 1) {
        s = smith(d + 2 * (n - 2));
        x = b + (n - 2) * next;
        for (int j = 0; j < m; j++)
            substitute1(x + j * across, du + 2 * (n - 2), x + j * across + next, &s);
    }
    for (int i = n - 3; i >= 0; i--) {
        s = smith(d + 2 * i);
        x = b + i * next;
        for (int j = 0; j < m; j++)
            substitute2(x + j * across, du + 2 * i, x + j * across + next, du2 + 2 * i,
                        x + j * across + 2 * next, &s);
    }
}

void tridiag_solve_lines(int n, int nrhs, ptrdiff_t step, ptrdiff_t ld, const double *dl,
                         const double *d, const double *du, const double *du2,
                         const int *ipiv, double *b)
{
    for (int j = 0; j < nrhs; j += GROUP)
        solve_group(n, nrhs - j < GROUP ? nrhs - j : GROUP, step, ld,
                    dl, d, du, du2, ipiv, b + 2 * (ptrdiff_t)j * ld);
}
