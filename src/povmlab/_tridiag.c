/*
 * The grid's line arithmetic: solves with the LU factors of a complex
 * tridiagonal matrix A, as LAPACK's zgttrf leaves them, on many lines at
 * once, and the rest of a Crank-Nicolson phase around them.
 *
 * The field.  A run of the stepper keeps its state in one work field of an
 * (ny, nx) grid: two real planes, re then im, each laid out in tiles of
 * GROUP x lines.  Cell (x, y) sits at ((y / GROUP) * nx + x) * GROUP +
 * y % GROUP, so a tile row, GROUP x lines of nx cells, is one contiguous
 * block with the lines innermost, and the GROUP cells of one y line in one
 * tile are contiguous too.  When ny % GROUP != 0 the last tile is short; its
 * padding lanes belong to no line and are never loaded or stored.
 *
 *   tridiag_group       GROUP, the lanes of a damping table's rows
 *   tridiag_field       the field's size in doubles
 *   tridiag_to_field    psi, C-ordered complex (ny, nx), into the field
 *   tridiag_from_field  the field back into such a psi
 *   tridiag_x_phase     (field, run, explicit) on the run's x lines lo..hi:
 *                       u = A^-1 w on every line, w the field's lines, then
 *                       the field is 2 u - w with explicit set, u without
 *   tridiag_y_phase     (field, run, solve, explicit) on its y lines lo..hi:
 *                       with solve set, z = A^-1 z, then for each damped cell
 *                       of its damping table loss = (re*re + im*im) * keep
 *                       and z *= damp; with explicit set, then z = E z for
 *                       the tridiagonal E, without terms across line ends
 *   tridiag_loss_sum    a loss vector's sum, as np.sum adds it
 *   tridiag_steps       a chunk of steps on one thread's share of a field's
 *                       runs, each phase by the two entries above, meeting
 *                       the other threads at a join after each phase
 *
 * A run reaches the kernel only as its record, x_run or y_run, whose scratch
 * of tridiag_scratch(n, nrhs) doubles the caller allocates once and reuses,
 * so an entry allocates nothing; runs on disjoint line ranges of one field
 * may run on different threads, and runs on one thread may share a scratch.
 *
 * One stated rounding, the same on every host.  Each line gets exactly the
 * arithmetic of reference LAPACK's zgtts2 with trans = 'N', pivot branch
 * included: complex products are (ac - bd, ad + bc) and complex quotients
 * follow Smith's algorithm as gcc expands it under Fortran rules, so the
 * solve equals zgttrs's to the bit.  The explicit half uses the same plain
 * products, summed as (main*z[k] + up*z[k+1]) + low*z[k-1].  The explicit
 * x half is 2 u - w per part, formed where the x phase stores u: the same
 * IEEE expression on the same operands as where the y phase would load it,
 * so moving it there moves no bit.  Built with -O2 -ffp-contract=off and
 * without -ffast-math, no operation is fused into an FMA or reordered.
 *
 * Planar groups.  The workers solve, damp and form the explicit half in a
 * scratch of two planes, re and im, cell-major with the lines innermost
 * (line j's cell i at plane[i * L + j] for L lanes), in loops over the L
 * lanes.  Every line of a group shares the factors, the pivots and the
 * Smith divisors, so each step of zgtts2 is one IEEE operation with the
 * same scalar on every lane, and a vector add, multiply or divide rounds
 * each lane as the scalar one does: the lanes give each line its exact
 * bits.  A group of at most NARROW lines, such as the one-line runs beside
 * the walls, runs on NARROW lanes; lanes past a group's last line hold
 * zeros and are never stored, and a group reads and writes only its own
 * lines of the field, since another thread may own the lines beside them.
 *
 * Two sweeps per group.  Each group makes one forward and one back sweep
 * over its planes, and everything else rides in them, so each cell gets
 * the same operations in the same order as in separate passes.  A whole
 * tile row of an x run is already a group: the forward sweep reads it as
 * it goes, and the back sweep stores each row's 2 u - w, or u, into the
 * tile as soon as it has solved the row; an x run that starts or ends
 * mid-tile reads its lanes of each row, zeros past them, and stores only
 * those.
 * A y group of GROUP lines comes in by a GROUP x GROUP transpose of each
 * contiguous tile block as the forward sweep reaches it.  The back sweep
 * damps row i + 2 once row i is solved, as that was its last use; forms
 * row i + 3's explicit half from the damped rows i + 2..i + 4 into
 * GROUP staging rows; and transposes each finished block of GROUP rows
 * out.  The transposes only move data, so no rounding question arises; a
 * group of fewer lines moves them through a block-sized buffer.  The
 * damping is a table of rows, each with GROUP lanes of damp, keep and loss
 * slot, so it runs in lane loops too: a lane the row does not damp is
 * multiplied by exactly 1.0 and books no loss.
 *
 * The clone and its FMA rule.  Where gcc's target_clones exists on x86-64
 * with glibc, the workers are built twice, for the baseline and for AVX2,
 * and the loader picks by the CPU; the library itself stays portable, with
 * no -march flag.  AVX2 brings no FMA, and no clone may bring it
 * (arch=x86-64-v3, avx512f): gcc turns interleaved complex products into
 * vfmaddsub instructions whatever -ffp-contract says, which changes bits.
 * Defining TRIDIAG_NO_CLONES builds the baseline workers alone, so a test
 * can hold the two builds to the same bits.
 *
 * Complex arrays are interleaved (re, im) doubles; ipiv is 1-based.
 */

#include <limits.h> /* defines __GLIBC__ on glibc */
#include <sched.h>
#include <stdatomic.h>
#include <stddef.h>

/*
 * Lines worked together, and the tile height: a production group's planes
 * (16 lines of 512 cells, 128 KiB) stay in L2 through both sweeps.  On
 * production runs, groups of 8 lines made the x phase 15% slower and groups
 * of 32 the y phase 45% slower.
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

/* four doubles, and a pick of four from two of them */
typedef double quad __attribute__((vector_size(32)));
#ifdef __clang__
#define PICK(a, b, i, j, k, l) __builtin_shufflevector(a, b, i, j, k, l)
#else
typedef long long quad_index __attribute__((vector_size(32)));
#define PICK(a, b, i, j, k, l) __builtin_shuffle(a, b, (quad_index){i, j, k, l})
#endif

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

/*
 * zgtts2's forward steps lo..hi on every lane, step i eliminating row i
 * from row i + 1: x = L^-1 P x in place, or, with from set, x = L^-1 P b
 * with b's row i + 1 read from b + (i + 1) GROUP as the sweep reaches it,
 * its first m lanes and zeros past them
 */
PLANAR void forward(int L, int lo, int hi, const factors *f, int from, int m,
                    const double *restrict br, const double *restrict bi, double *restrict re,
                    double *restrict im)
{
    for (int i = lo; i < hi; i++) {
        double lr = f->dl[2 * i], li = f->dl[2 * i + 1];
        double *xr = re + i * L, *xi = im + i * L, *yr = xr + L, *yi = xi + L;
        const double *sr = from ? br + (i + 1) * GROUP : yr;
        const double *si = from ? bi + (i + 1) * GROUP : yi;
        if (f->ipiv[i] == i + 1)
            LANES {
                double b = j < m ? sr[j] : 0.0, c = j < m ? si[j] : 0.0;
                yr[j] = b - (lr * xr[j] - li * xi[j]);
                yi[j] = c - (lr * xi[j] + li * xr[j]);
            }
        else
            LANES {
                double r = xr[j], s = xi[j];
                xr[j] = j < m ? sr[j] : 0.0;
                xi[j] = j < m ? si[j] : 0.0;
                yr[j] = r - (lr * xr[j] - li * xi[j]);
                yi[j] = s - (lr * xi[j] + li * xr[j]);
            }
    }
}

/*
 * zgtts2's back step i on every lane: row i of x = U^-1 x, rows past i
 * solved; terms is 2 below row n - 2, 1 at it and 0 at row n - 1
 */
PLANAR void back(int L, int terms, const factors *f, int i, double *restrict re,
                 double *restrict im)
{
    double *xr = re + i * L, *xi = im + i * L, *yr = xr + L, *yi = xi + L;
    double *zr = yr + L, *zi = yi + L;
    if (terms == 2) {
        double ur = f->du[2 * i], ui = f->du[2 * i + 1];
        double vr = f->du2[2 * i], vi = f->du2[2 * i + 1];
        LANES {
            double r = xr[j] - (ur * yr[j] - ui * yi[j]);
            double t = xi[j] - (ur * yi[j] + ui * yr[j]);
            xr[j] = r - (vr * zr[j] - vi * zi[j]);
            xi[j] = t - (vr * zi[j] + vi * zr[j]);
        }
    } else if (terms == 1) {
        double ur = f->du[2 * i], ui = f->du[2 * i + 1];
        LANES {
            xr[j] = xr[j] - (ur * yr[j] - ui * yi[j]);
            xi[j] = xi[j] - (ur * yi[j] + ui * yr[j]);
        }
    }
    divisor s = smith(f->d + 2 * i);
    divide(L, xr, xi, &s);
}

/*
 * One row's entry of a damping table on every lane: each lane with a loss
 * slot books (re*re + im*im) * keep there, then every lane is multiplied
 * by its damp, which is exactly 1.0 on the lanes the entry does not damp
 */
PLANAR void damp_row(int L, const double *damp, const double *keep, const int *slot,
                     double *loss, double *restrict xr, double *restrict xi)
{
    if (loss)
        for (int j = 0; j < L; j++)
            if (slot[j] >= 0)
                loss[slot[j]] = (xr[j] * xr[j] + xi[j] * xi[j]) * keep[j];
    LANES {
        xr[j] = xr[j] * damp[j];
        xi[j] = xi[j] * damp[j];
    }
}

/* row i of E x on every lane into out, E's off-diagonals stopping at line ends */
PLANAR void explicit_row(int L, int n, int i, const double *low, const double *main,
                         const double *up, const double *restrict re, const double *restrict im,
                         double *restrict outr, double *restrict outi)
{
    const double *xr = re + i * L, *xi = im + i * L;
    double ar = main[2 * i], ai = main[2 * i + 1];
    LANES {
        outr[j] = ar * xr[j] - ai * xi[j];
        outi[j] = ar * xi[j] + ai * xr[j];
    }
    if (i + 1 < n) {
        double ur = up[2 * i], ui = up[2 * i + 1];
        LANES {
            outr[j] = outr[j] + (ur * xr[j + L] - ui * xi[j + L]);
            outi[j] = outi[j] + (ur * xi[j + L] + ui * xr[j + L]);
        }
    }
    if (i > 0) {
        double lr = low[2 * (i - 1)], li = low[2 * (i - 1) + 1];
        LANES {
            outr[j] = outr[j] + (lr * xr[j - L] - li * xi[j - L]);
            outi[j] = outi[j] + (lr * xi[j - L] + li * xr[j - L]);
        }
    }
}

/* b = a^T for row-major GROUP x GROUP blocks, by 4 x 4 blocks of quads */
PLANAR void transpose(const double *restrict a, double *restrict b)
{
    for (int r = 0; r < GROUP; r += 4)
        for (int c = 0; c < GROUP; c += 4) {
            const double *from = a + r * GROUP + c;
            double *to = b + c * GROUP + r;
            quad q0, q1, q2, q3;
            __builtin_memcpy(&q0, from, sizeof(quad));
            __builtin_memcpy(&q1, from + GROUP, sizeof(quad));
            __builtin_memcpy(&q2, from + 2 * GROUP, sizeof(quad));
            __builtin_memcpy(&q3, from + 3 * GROUP, sizeof(quad));
            quad t0 = PICK(q0, q1, 0, 4, 2, 6), t1 = PICK(q0, q1, 1, 5, 3, 7);
            quad t2 = PICK(q2, q3, 0, 4, 2, 6), t3 = PICK(q2, q3, 1, 5, 3, 7);
            q0 = PICK(t0, t2, 0, 1, 4, 5);
            q1 = PICK(t1, t3, 0, 1, 4, 5);
            q2 = PICK(t0, t2, 2, 3, 6, 7);
            q3 = PICK(t1, t3, 2, 3, 6, 7);
            __builtin_memcpy(to, &q0, sizeof(quad));
            __builtin_memcpy(to + GROUP, &q1, sizeof(quad));
            __builtin_memcpy(to + 2 * GROUP, &q2, sizeof(quad));
            __builtin_memcpy(to + 3 * GROUP, &q3, sizeof(quad));
        }
}

/*
 * A tile block of a y group, the first `cells` cells of each of its m
 * lines, into rows of L lanes with zeros past m (load), or the rows' first
 * m lanes back into it (store).  A group's lines are consecutive in the
 * block, GROUP doubles each, so a whole block is one transpose, and a part
 * of one moves its m lines through a block-sized buffer; neither touches
 * another line.
 */
PLANAR void load_block(int L, int m, int cells, const double *restrict tile,
                       double *restrict rows)
{
    if (L == GROUP && cells == GROUP && m == GROUP) {
        transpose(tile, rows);
    } else if (L == GROUP && cells == GROUP) {
        double part[GROUP * GROUP] = {0};
        __builtin_memcpy(part, tile, sizeof(double) * GROUP * m);
        transpose(part, rows);
    } else {
        for (int k = 0; k < cells; k++)
            for (int j = 0; j < L; j++)
                rows[k * L + j] = j < m ? tile[j * GROUP + k] : 0.0;
    }
}

PLANAR void store_block(int L, int m, int cells, const double *restrict rows,
                        double *restrict tile)
{
    if (L == GROUP && cells == GROUP && m == GROUP) {
        transpose(rows, tile);
    } else if (L == GROUP && cells == GROUP) {
        double part[GROUP * GROUP];
        transpose(rows, part);
        __builtin_memcpy(tile, part, sizeof(double) * GROUP * m);
    } else {
        for (int k = 0; k < cells; k++)
            for (int j = 0; j < m; j++)
                tile[j * GROUP + k] = rows[k * L + j];
    }
}

/*
 * An x group: lanes a..a+m of a tile row of n cells, read as the forward
 * sweep reaches each row, solved on L lanes of the planes and stored back
 * row by row as the back sweep solves it, as 2 u - w with explicit set, u
 * without.  whole, a constant here, marks a whole tile row.
 */
PLANAR void x_group(int L, int whole, int n, int a, int m, const factors *f, int explicit,
                    double *restrict tr, double *restrict ti, double *restrict re,
                    double *restrict im)
{
    if (whole)
        m = GROUP;
    LANES {
        re[j] = j < m ? tr[a + j] : 0.0;
        im[j] = j < m ? ti[a + j] : 0.0;
    }
    forward(L, 0, n - 1, f, 1, m, tr + a, ti + a, re, im);
    for (int i = n - 1; i >= 0; i--) {
        if (i + 2 < n)
            back(L, 2, f, i, re, im);
        else
            back(L, n - 1 - i, f, i, re, im);
        double *xr = tr + i * GROUP + a, *xi = ti + i * GROUP + a;
        const double *ur = re + i * L, *ui = im + i * L;
        if (whole && explicit)
            LANES {
                xr[j] = 2.0 * ur[j] - xr[j];
                xi[j] = 2.0 * ui[j] - xi[j];
            }
        else if (whole)
            LANES {
                xr[j] = ur[j];
                xi[j] = ui[j];
            }
        else
            for (int j = 0; j < m; j++) {
                xr[j] = explicit ? 2.0 * ur[j] - xr[j] : ur[j];
                xi[j] = explicit ? 2.0 * ui[j] - xi[j] : ui[j];
            }
    }
}

/* the x group's three builds: a whole tile row, and a part of one on 16 or 4 lanes */
CLONES static void x_tile(int n, int a, int m, const factors *f, int explicit,
                          double *restrict tr, double *restrict ti, double *restrict re,
                          double *restrict im)
{
    x_group(GROUP, 1, n, a, m, f, explicit, tr, ti, re, im);
}

CLONES static void x_wide(int n, int a, int m, const factors *f, int explicit,
                          double *restrict tr, double *restrict ti, double *restrict re,
                          double *restrict im)
{
    x_group(GROUP, 0, n, a, m, f, explicit, tr, ti, re, im);
}

CLONES static void x_narrow(int n, int a, int m, const factors *f, int explicit,
                            double *restrict tr, double *restrict ti, double *restrict re,
                            double *restrict im)
{
    x_group(NARROW, 0, n, a, m, f, explicit, tr, ti, re, im);
}

/*
 * A y run's damping table: its damped rows, each as row g n + i for cell i
 * of the lines of its group g (lines 16 g.. of the run), ascending, with
 * GROUP lanes each of damp (1.0 where the lane is not damped), keep and
 * the loss slot (-1 for none), the k-th of the run's damped cells in slot
 * k.  A group's rows are passed from its first, with base g n.
 */
typedef struct {
    ptrdiff_t n, base;
    const int *row;
    const double *damp, *keep;
    const int *slot;
} table;

/*
 * A y group: m lines of n cells, whose tile blocks start at tr and ti and
 * lie stride apart, in two sweeps over L lanes of the planes.  The forward
 * sweep transposes each tile block in as it reaches it.  The back sweep,
 * once row s is solved, damps row s + 2, which that solve used last; forms
 * row s + 3's explicit half from the damped rows s + 2..s + 4 into GROUP
 * staging rows, sr and si; and transposes each finished block of GROUP rows
 * out, from the staging rows or, without explicit, from the planes.  With
 * solve clear, the first sweep only moves and the second only forms the
 * explicit half.
 */
PLANAR void y_group(int L, int n, ptrdiff_t stride, int m, const factors *f, const double *low,
                    const double *main, const double *up, const table *damping, double *loss,
                    int solve, int explicit, double *restrict tr, double *restrict ti,
                    double *restrict re, double *restrict im)
{
    double sr[GROUP * GROUP], si[GROUP * GROUP];
    for (int i = 0; i < n; i += GROUP) {
        int cells = n - i < GROUP ? n - i : GROUP;
        load_block(L, m, cells, tr + i / GROUP * stride, re + i * L);
        load_block(L, m, cells, ti + i / GROUP * stride, im + i * L);
        if (solve)
            forward(L, i ? i - 1 : 0, i + cells - 1, f, 0, L, NULL, NULL, re, im);
    }
    ptrdiff_t k = damping->n;
    for (int s = n - 1; s >= -3; s--) {
        int r = s + 2, e = s + 3;
        if (solve && s >= 0 && s + 2 < n)
            back(L, 2, f, s, re, im);
        else if (solve && s >= 0)
            back(L, n - 1 - s, f, s, re, im); /* the last two rows */
        if (solve && r >= 0 && r < n && k > 0 && damping->row[k - 1] == damping->base + r) {
            k--;
            damp_row(L, damping->damp + k * GROUP, damping->keep + k * GROUP,
                     damping->slot + k * GROUP, loss, re + r * L, im + r * L);
        }
        if (e < 0 || e >= n)
            continue;
        if (explicit)
            explicit_row(L, n, e, low, main, up, re, im, sr + e % GROUP * L, si + e % GROUP * L);
        if (e % GROUP == 0) {
            int cells = n - e < GROUP ? n - e : GROUP;
            store_block(L, m, cells, explicit ? sr : re + e * L, tr + e / GROUP * stride);
            store_block(L, m, cells, explicit ? si : im + e * L, ti + e / GROUP * stride);
        }
    }
}

CLONES static void y_wide(int n, ptrdiff_t stride, int m, const factors *f, const double *low,
                          const double *main, const double *up, const table *damping,
                          double *loss, int solve, int explicit, double *restrict tr,
                          double *restrict ti, double *restrict re, double *restrict im)
{
    y_group(GROUP, n, stride, m, f, low, main, up, damping, loss, solve, explicit, tr, ti, re, im);
}

CLONES static void y_narrow(int n, ptrdiff_t stride, int m, const factors *f, const double *low,
                            const double *main, const double *up, const table *damping,
                            double *loss, int solve, int explicit, double *restrict tr,
                            double *restrict ti, double *restrict re, double *restrict im)
{
    y_group(NARROW, n, stride, m, f, low, main, up, damping, loss, solve, explicit, tr, ti, re,
            im);
}

/*
 * A run of lines lo..hi: the factors of its lines' A and its scratch; a y
 * run also has its explicit half's E (low, main, up), its damping table of
 * n_rows rows (see table above) and the losses its slots index, or NULL.
 */
typedef struct {
    int lo, hi;
    factors f;
    double *scratch;
} x_run;

typedef struct {
    int lo, hi;
    factors f;
    const double *low, *main, *up;
    ptrdiff_t n_rows;
    const int *rows;
    const double *damp, *keep;
    const int *slot;
    double *loss;
    double *scratch;
} y_run;

/* the doubles in one plane of an (ny, nx) field */
static ptrdiff_t plane(int ny, int nx)
{
    return (ptrdiff_t)((ny + GROUP - 1) / GROUP) * GROUP * nx;
}

/* the lanes a group of m lines runs on */
static int lanes(int m)
{
    return m > NARROW ? GROUP : NARROW;
}

/* the lines a group works at once, and a damping table's lanes */
int tridiag_group(void)
{
    return GROUP;
}

size_t tridiag_field(int ny, int nx)
{
    return 2 * (size_t)plane(ny, nx);
}

size_t tridiag_scratch(int n, int nrhs)
{
    return 2 * (size_t)n * lanes(nrhs < GROUP ? nrhs : GROUP);
}

/*
 * Each way stores contiguously: into the field tile row by tile row, where
 * cell (x, y0 + k) of the grid is cell x * GROUP + k of the row, and back
 * row by row of psi.  The other orders scatter their stores over GROUP rows
 * and took about twice as long on a production field.
 */
void tridiag_to_field(int ny, int nx, const double *psi, double *field)
{
    for (int y0 = 0; y0 < ny; y0 += GROUP) {
        int cells = ny - y0 < GROUP ? ny - y0 : GROUP;
        const double *rows = psi + 2 * (ptrdiff_t)y0 * nx;
        double *re = field + (ptrdiff_t)y0 * nx, *im = re + plane(ny, nx);
        for (int x = 0; x < nx; x++, re += GROUP, im += GROUP)
            for (int k = 0; k < cells; k++) {
                re[k] = rows[2 * ((ptrdiff_t)k * nx + x)];
                im[k] = rows[2 * ((ptrdiff_t)k * nx + x) + 1];
            }
    }
}

void tridiag_from_field(int ny, int nx, const double *field, double *psi)
{
    const double *re = field, *im = field + plane(ny, nx);
    for (int y = 0; y < ny; y++) {
        double *row = psi + 2 * (ptrdiff_t)y * nx;
        ptrdiff_t at = (ptrdiff_t)(y / GROUP) * nx * GROUP + y % GROUP;
        for (int x = 0; x < nx; x++, at += GROUP) {
            row[2 * x] = re[at];
            row[2 * x + 1] = im[at];
        }
    }
}

void tridiag_x_phase(int ny, int nx, double *field, const x_run *r, int explicit)
{
    for (int y = r->lo; y < r->hi;) {
        int tile = y / GROUP, a = y % GROUP, b = r->hi - tile * GROUP;
        int m = (b < GROUP ? b : GROUP) - a, L = lanes(m);
        double *tr = field + (ptrdiff_t)tile * nx * GROUP, *ti = tr + plane(ny, nx);
        double *re = r->scratch, *im = re + (ptrdiff_t)nx * L;
        y += m;
        (m == GROUP ? x_tile : L == GROUP ? x_wide : x_narrow)(nx, a, m, &r->f, explicit, tr, ti,
                                                                re, im);
    }
}

/* each group of GROUP lines, or the run's last m, makes the two sweeps of y_group */
void tridiag_y_phase(int ny, int nx, double *field, const y_run *r, int solve, int explicit)
{
    ptrdiff_t k = 0;
    if (!solve && !explicit)
        return;
    for (int j = 0; j < r->hi - r->lo; j += GROUP) {
        int m = r->hi - r->lo - j < GROUP ? r->hi - r->lo - j : GROUP, L = lanes(m);
        table damping = {0, (ptrdiff_t)(j / GROUP) * ny, r->rows + k, r->damp + k * GROUP,
                         r->keep + k * GROUP, r->slot + k * GROUP};
        while (k < r->n_rows && r->rows[k] < damping.base + ny)
            k++, damping.n++;
        double *re = r->scratch, *im = re + (ptrdiff_t)ny * L;
        double *tr = field + (ptrdiff_t)(r->lo + j) * GROUP, *ti = tr + plane(ny, nx);
        (L == GROUP ? y_wide : y_narrow)(ny, (ptrdiff_t)nx * GROUP, m, &r->f, r->low, r->main,
                                          r->up, &damping, r->loss, solve, explicit, tr, ti, re,
                                          im);
    }
}

/*
 * sum a[0..n) in numpy's pairwise order for a contiguous float64 vector:
 * fewer than 8 one by one; up to PAIRWISE in 8 interleaved accumulators,
 * combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
 * tail one by one; above that, split at n / 2 rounded down to a multiple of
 * 8.  np.sum adds the result to its identity, 0.0, which only turns -0.0
 * into 0.0.
 */
#define PAIRWISE 128

static double pairwise(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double s = 0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            s += a[i];
        return s;
    }
    if (n <= PAIRWISE) {
        double r[8];
        ptrdiff_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            s += a[i];
        return s;
    }
    ptrdiff_t half = n / 2;
    half -= half % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

double tridiag_loss_sum(ptrdiff_t n, const double *loss)
{
    return 0.0 + pairwise(loss, n);
}

/* spins with a pause hint before a waiting thread yields its core */
#define SPINS 4096

/*
 * A sense-reversing barrier of parties threads over join[0], the count of
 * arrivals, and join[1], the sense of the last completed join; *sense is
 * the caller's copy of join[1].  The last arrival resets the count and
 * flips the sense, which releases the rest.  Every write a thread made
 * before it arrived is visible to every thread after the join.
 */
static void join_all(_Atomic int *join, int parties, int *sense)
{
    if (parties < 2)
        return;
    *sense = !*sense;
    if (atomic_fetch_add(&join[0], 1) == parties - 1) {
        atomic_store(&join[0], 0);
        atomic_store(&join[1], *sense);
        return;
    }
    for (int spin = 0; atomic_load(&join[1]) != *sense; spin++)
        if (spin < SPINS) {
#ifdef __x86_64__
            __builtin_ia32_pause();
#endif
        } else {
            sched_yield();
        }
}

/*
 * steps steps of a field, on this thread's share of its runs: the xs and
 * ys, while parties - 1 other threads step the rest with the same join.
 * The field holds psi: first the explicit y half of the thread's y runs;
 * then each step the x phase, a join, the y phase (its explicit half on
 * every step but the last) and a join, after which the field holds the
 * state again.  Given loss, one entry per damped cell of the whole field,
 * the thread also adds its sum times area to *absorbed after each step's
 * last join, when every run has written its losses and none writes them
 * again before the next step's first join.  The caller keeps join, zeroed
 * before its first use, for all the calls of one set of threads.
 */
void tridiag_steps(int ny, int nx, double *field, int steps, int n_x, const x_run *xs, int n_y,
                   const y_run *ys, ptrdiff_t n_loss, const double *loss, double area,
                   double *absorbed, _Atomic int *join, int parties)
{
    int sense = atomic_load(&join[1]);
    if (steps <= 0)
        return;
    for (int k = 0; k < n_y; k++)
        tridiag_y_phase(ny, nx, field, ys + k, 0, 1);
    join_all(join, parties, &sense);
    for (int step = 0; step < steps; step++) {
        for (int k = 0; k < n_x; k++)
            tridiag_x_phase(ny, nx, field, xs + k, 1);
        join_all(join, parties, &sense);
        for (int k = 0; k < n_y; k++)
            tridiag_y_phase(ny, nx, field, ys + k, 1, step + 1 < steps);
        join_all(join, parties, &sense);
        if (loss)
            *absorbed += tridiag_loss_sum(n_loss, loss) * area;
    }
}
