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
 * One stated rounding, the same on every host.  Each line gets exactly the
 * arithmetic of reference LAPACK's zgtts2 with trans = 'N', pivot branch
 * included: complex products are (ac - bd, ad + bc) and complex quotients
 * follow Smith's algorithm as gcc expands it under Fortran rules, so the
 * solve equals zgttrs's to the bit.  The explicit half uses the same plain
 * products, summed as (main*z[k] + up*z[k+1]) + low*z[k-1].  Built with
 * -O2 -ffp-contract=off and without -ffast-math, no operation is fused
 * into an FMA or reordered.  zgtts2 walks one line at a time, each cell
 * waiting on the one before it; walking many lines in lockstep hides that
 * latency.
 *
 * Complex arrays are interleaved (re, im) doubles; ipiv is 1-based.
 */

#include <stddef.h>

/*
 * Lines worked together: a group's slice of a production run (16 lines of
 * 512 cells, 128 KiB) stays in L2 from the first pass to the last.  Groups
 * of 4 to 64 lines measured the same.
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

/* a cell of the right-hand side: b, or 2 b - w where w is given */
static inline void load(double *t, const double *b, const double *w)
{
    if (w) {
        t[0] = 2.0 * b[0] - w[0];
        t[1] = 2.0 * b[1] - w[1];
    } else {
        t[0] = b[0];
        t[1] = b[1];
    }
}

/* y = b - l * x */
static inline void eliminate(double *y, const double *b, const double *l, const double *x)
{
    double re = b[0] - (l[0] * x[0] - l[1] * x[1]);
    double im = b[1] - (l[0] * x[1] + l[1] * x[0]);
    y[0] = re;
    y[1] = im;
}

/* x, y = b, x - l * b */
static inline void swap_eliminate(double *x, double *y, const double *b, const double *l)
{
    double re = x[0], im = x[1];
    x[0] = b[0];
    x[1] = b[1];
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

/*
 * zgtts2's loops on m lines of a view, with the lines innermost: x =
 * A^-1 b, or A^-1 (2 b - w) where w is given.  The forward pass reads each
 * cell of b (and w) once, before x's cell is written, so x may be b.
 */
static void solve_group(int n, int m, ptrdiff_t step, ptrdiff_t ld, const double *dl,
                        const double *d, const double *du, const double *du2,
                        const int *ipiv, const double *b, const double *w, double *x)
{
    ptrdiff_t next = 2 * step, across = 2 * ld;
    for (int j = 0; j < m; j++)
        load(x + j * across, b + j * across, w ? w + j * across : NULL);
    for (int i = 0; i < n - 1; i++) {
        ptrdiff_t at = i * next;
        const double *l = dl + 2 * i;
        double t[2];
        if (ipiv[i] == i + 1)
            for (ptrdiff_t c = at; c < at + m * across; c += across) {
                load(t, b + c + next, w ? w + c + next : NULL);
                eliminate(x + c + next, t, l, x + c);
            }
        else
            for (ptrdiff_t c = at; c < at + m * across; c += across) {
                load(t, b + c + next, w ? w + c + next : NULL);
                swap_eliminate(x + c, x + c + next, t, l);
            }
    }
    divisor s = smith(d + 2 * (n - 1));
    double *y = x + (n - 1) * next;
    for (int j = 0; j < m; j++)
        quotient(y + j * across, y[j * across], y[j * across + 1], &s);
    if (n > 1) {
        s = smith(d + 2 * (n - 2));
        y = x + (n - 2) * next;
        for (int j = 0; j < m; j++)
            substitute1(y + j * across, du + 2 * (n - 2), y + j * across + next, &s);
    }
    for (int i = n - 3; i >= 0; i--) {
        s = smith(d + 2 * i);
        y = x + i * next;
        for (int j = 0; j < m; j++)
            substitute2(y + j * across, du + 2 * i, y + j * across + next, du2 + 2 * i,
                        y + j * across + 2 * next, &s);
    }
}

/* r += a * x */
static inline void accumulate(double *r, const double *a, const double *x)
{
    r[0] = r[0] + (a[0] * x[0] - a[1] * x[1]);
    r[1] = r[1] + (a[0] * x[1] + a[1] * x[0]);
}

/* w = E z on m lines of a view, E's off-diagonals stopping at line ends */
static void explicit_group(int n, int m, ptrdiff_t step, ptrdiff_t ld, const double *low,
                           const double *main, const double *up, const double *z, double *w)
{
    ptrdiff_t next = 2 * step, across = 2 * ld;
    for (int j = 0; j < m; j++) {
        const double *x = z + j * across;
        double *y = w + j * across;
        for (int i = 0; i < n; i++) {
            const double *c = x + i * next, *a = main + 2 * i;
            double r[2] = {a[0] * c[0] - a[1] * c[1], a[0] * c[1] + a[1] * c[0]};
            if (i + 1 < n)
                accumulate(r, up + 2 * i, c + next);
            if (i > 0)
                accumulate(r, low + 2 * (i - 1), c - next);
            y[i * next] = r[0];
            y[i * next + 1] = r[1];
        }
    }
}

void tridiag_solve_lines(int n, int nrhs, ptrdiff_t step, ptrdiff_t ld, const double *dl,
                         const double *d, const double *du, const double *du2,
                         const int *ipiv, const double *b, double *x)
{
    for (int j = 0; j < nrhs; j += GROUP) {
        ptrdiff_t first = 2 * (ptrdiff_t)j * ld;
        solve_group(n, nrhs - j < GROUP ? nrhs - j : GROUP, step, ld,
                    dl, d, du, du2, ipiv, b + first, NULL, x + first);
    }
}

/*
 * at lists n_damped cells as j * n + i, line j's cell i, ascending; damp,
 * keep and loss are theirs, and loss may be NULL.  Group by group, each
 * pass runs while the group's lines sit in L2.
 */
void tridiag_phase(int n, int nrhs, ptrdiff_t step, ptrdiff_t ld, const double *dl,
                   const double *d, const double *du, const double *du2, const int *ipiv,
                   const double *low, const double *main, const double *up,
                   ptrdiff_t n_damped, const ptrdiff_t *at, const double *damp,
                   const double *keep, double *loss, int solve, int explicit,
                   double *z, double *w)
{
    ptrdiff_t k = 0, line = 0;
    for (int j = 0; j < nrhs; j += GROUP) {
        int m = nrhs - j < GROUP ? nrhs - j : GROUP;
        ptrdiff_t first = 2 * (ptrdiff_t)j * ld;
        if (solve) {
            solve_group(n, m, step, ld, dl, d, du, du2, ipiv, z + first, w + first, z + first);
            for (; k < n_damped && at[k] < (ptrdiff_t)(j + m) * n; k++) {
                while (at[k] >= (line + 1) * n)
                    line++;
                double *c = z + 2 * ((at[k] - line * n) * step + line * ld);
                double re = c[0], im = c[1];
                if (loss)
                    loss[k] = (re * re + im * im) * keep[k];
                c[0] = re * damp[k];
                c[1] = im * damp[k];
            }
        }
        if (explicit)
            explicit_group(n, m, step, ld, low, main, up, z + first, w + first);
    }
}
