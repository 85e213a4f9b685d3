"""Two-dimensional wavepacket propagation through a slit barrier.

The domain is a rectangle with hard (Dirichlet) walls.  Internal walls are
cells removed from the computational basis: the kinetic operator is built
with zero rows and columns at blocked cells, which keeps it Hermitian and
makes "the wave is zero inside walls" an exact invariant of the stepper
rather than something enforced by projection after the fact.

Time stepping is alternating-direction Crank-Nicolson: each step solves one
tridiagonal system along x and one along y.  Both one-dimensional kinetic
operators are Hermitian, so each half-sweep is a Cayley transform and the
composed step preserves the norm of (I + i a H_y) psi exactly; the plain
wavefunction norm oscillates by O(dt^2) around 1 without secular drift.

Detector bins follow a screen line x = b: bin 0 is everything in front of
the screen, bin n >= 1 is the strip delta*(n-1) < y <= delta*n beyond it,
and bin n <= -1 the mirrored strip delta*n < y <= delta*(n+1).
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import lapack

from .errors import (
    EmptyWindow,
    GeometryOutOfDomain,
    StabilityViolation,
    UnresolvableScale,
    ValidationError,
)
from .measurement import Pmf

__all__ = [
    "PhysicalParams",
    "Grid2D",
    "WavePacket2D",
    "SlitGeometry",
    "Potential2D",
    "SpongeConfig",
    "DetectorBinning",
    "WhichWayMass",
    "init_packet",
    "build_potential",
    "Propagator",
    "evolve",
    "detector_pmf",
    "bin_indicator_expectation",
    "fringe_visibility",
    "which_way_mass",
    "momentum_expectation",
    "position_expectation",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Physical scales of a run, in the fixed natural units hbar = mass = 1."""

    k0: float
    sigma: float
    delta: float
    b: float

    def __post_init__(self):
        for name in ("k0", "sigma", "delta"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive")
        if not np.isfinite(self.b):
            raise ValidationError("screen position b must be finite")


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular grid centered at the origin, cell-centered samples."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 16 or self.ny < 16:
            raise ValidationError("grid needs at least 16 points per axis")
        if not (self.lx > 0 and self.ly > 0):
            raise ValidationError("domain lengths must be positive")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def x(self) -> np.ndarray:
        # centered form keeps coordinate pairs exactly antisymmetric, so
        # mirror-symmetric masks discretize symmetrically
        return (np.arange(self.nx) - (self.nx - 1) / 2) * self.dx

    @property
    def y(self) -> np.ndarray:
        return (np.arange(self.ny) - (self.ny - 1) / 2) * self.dy

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def contains(self, x: float, y: float = 0.0) -> bool:
        return abs(x) <= self.lx / 2 and abs(y) <= self.ly / 2


@dataclass
class WavePacket2D:
    """Complex amplitudes on a grid, shape (ny, nx), plus absorbed mass.

    ``absorbed`` accumulates probability removed by an absorbing layer; the
    physical closure is norm()**2 + absorbed ~= 1.
    """

    grid: Grid2D
    amplitudes: np.ndarray
    absorbed: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.shape != (self.grid.ny, self.grid.nx):
            raise ValidationError(
                f"amplitude shape {a.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})"
            )
        self.amplitudes = a

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.cell_area))

    def density(self) -> np.ndarray:
        """Probability per cell (already multiplied by cell area)."""
        return np.abs(self.amplitudes) ** 2 * self.grid.cell_area

    def mass_beyond(self, x0: float) -> float:
        """Mass on the columns at or beyond ``x0``, the detector's screen side."""
        cols = self.grid.x >= x0
        return float(np.sum(np.abs(self.amplitudes[:, cols]) ** 2) * self.grid.cell_area)


@dataclass(frozen=True)
class SlitGeometry:
    """Layout of the internal walls and the branch-2 separator.

    A vertical barrier at ``slit_x`` carries two openings centered at
    ``+hole_center`` and ``-hole_center``, each ``hole_width`` wide.  An
    optional V-shaped splitter runs from ``(wedge_apex_x, 0)`` to the inner
    hole edges.  Branch 2 adds a separator along y = 0 from the barrier to
    the right edge of the domain: a wall of the same thickness as the
    barrier, lined on both faces with matched absorbing layers that reach
    to ``septum_half_width``, with a quadratic coordinate-stretching profile
    of magnitude ``septum_strength`` at the wall.  The double-slit run fixes
    that strength at ``DoubleSlitConfig.septum_strength``.

    The lining matters.  A bare wall mirrors each path onto itself, and
    with the y-symmetric mask the image of one opening's field is exactly
    the field the other opening would have contributed, so a bare wall
    reproduces the two-path fringes (inverted) at full contrast instead of
    removing them.  A graded imaginary potential is little better: it
    reflects strongly at grazing incidence off its own front face.  The
    matched layer attenuates whatever approaches the wall at any angle
    with negligible reflection, so each half of the domain is reached only
    by its own opening's beam.  The seal flags close one opening entirely,
    for single-path reference runs.
    """

    slit_x: float = 0.0
    hole_center: float = 4.2
    hole_width: float = 3.8
    wall_thickness: float = 0.3
    wedge_apex_x: float | None = None
    septum_half_width: float = 2.2
    septum_strength: float = 4.0
    seal_upper: bool = False
    seal_lower: bool = False

    def __post_init__(self):
        if self.hole_width <= 0 or self.wall_thickness <= 0:
            raise ValidationError("hole width and wall thickness must be positive")
        if self.hole_center - self.hole_width / 2 <= 0:
            raise ValidationError("holes must not touch the axis")
        if self.septum_half_width <= 0 or self.septum_strength <= 0:
            raise ValidationError("septum half-width and strength must be positive")
        if self.septum_half_width > self.hole_center - self.hole_width / 2:
            raise ValidationError("septum must not reach the openings")


@dataclass
class Potential2D:
    """Hard walls plus an optional absorbing septum for one branch.

    ``blocked`` marks wall cells (True).  ``septum`` is the per-cell
    stretching magnitude of the separator's matched absorbing layers, zero
    where there is no absorber; it is None for branch 1.
    """

    grid: Grid2D
    blocked: np.ndarray
    branch: int
    septum: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.blocked, dtype=bool)
        if m.shape != (self.grid.ny, self.grid.nx):
            raise ValidationError("mask shape does not match grid")
        self.blocked = m
        if self.septum is not None:
            s = np.asarray(self.septum, dtype=float)
            if s.shape != m.shape:
                raise ValidationError("septum shape does not match grid")
            if (s < 0).any():
                raise ValidationError("septum damping rates must be nonnegative")
            self.septum = s

    def obstructed(self) -> np.ndarray:
        """Cells that interact with the packet: walls or absorber."""
        if self.septum is None:
            return self.blocked.copy()
        return self.blocked | (self.septum > 0.0)


@dataclass(frozen=True)
class SpongeConfig:
    """Absorbing layer on the domain edges: quadratic damping ramp."""

    width: int = 28
    strength: float = 6.0

    def __post_init__(self):
        if self.width < 1 or self.strength <= 0:
            raise ValidationError("sponge width and strength must be positive")


@dataclass(frozen=True)
class DetectorBinning:
    """Screen line at x = b with transverse strips of height delta."""

    b: float
    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValidationError("bin height delta must be positive")

    def bin_of(self, y: np.ndarray) -> np.ndarray:
        """Strip index for screen-side cells: positive above, negative below."""
        n = np.ceil(np.asarray(y) / self.delta).astype(int)
        return np.where(np.asarray(y) > 0, n, n - 1)

    def indices(self, grid: Grid2D) -> np.ndarray:
        """Per-cell bin label on a grid; 0 in front of the screen."""
        if not (-grid.lx / 2 < self.b < grid.lx / 2):
            raise GeometryOutOfDomain(f"screen b={self.b} is outside the domain")
        if self.delta < grid.dy:
            raise UnresolvableScale("bin height is below the grid spacing")
        labels = np.zeros((grid.ny, grid.nx), dtype=int)
        beyond = grid.x >= self.b
        labels[:, beyond] = self.bin_of(grid.y)[:, None]
        return labels


@dataclass(frozen=True)
class WhichWayMass:
    """Split of the screen-side mass by sign of y."""

    upper: float
    lower: float
    remainder: float


# ------------------------------------------------------------------ setup


def init_packet(grid: Grid2D, params: PhysicalParams, center: tuple[float, float]) -> WavePacket2D:
    """Gaussian packet of width sigma moving in +x with wavenumber k0.

    The envelope is isotropic; amplitudes are normalized on the grid so the
    discrete norm is exactly 1.
    """
    spacing = max(grid.dx, grid.dy)
    if params.sigma < 4 * spacing:
        raise UnresolvableScale(
            f"sigma={params.sigma} is below four grid spacings ({4 * spacing:.4g})"
        )
    if params.k0 > np.pi / (2 * spacing):
        raise UnresolvableScale(
            f"k0={params.k0} exceeds the resolvable pi/(2 spacing) = "
            f"{np.pi / (2 * spacing):.4g}"
        )
    x0, y0 = center
    if not grid.contains(x0, y0):
        raise GeometryOutOfDomain(f"packet center {center} is outside the domain")
    xs = grid.x[None, :]
    ys = grid.y[:, None]
    envelope = np.exp(-((xs - x0) ** 2 + (ys - y0) ** 2) / (2 * params.sigma**2))
    psi = envelope * np.exp(1j * params.k0 * xs)
    psi = psi.astype(complex)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_area)
    return WavePacket2D(grid, psi)


def _mark_segment(mask, grid, p0, p1, thickness):
    """Blocken cells within half-thickness of the segment p0-p1 (in place)."""
    x0, y0 = p0
    x1, y1 = p1
    if abs(x1 - x0) >= abs(y1 - y0):
        if x1 < x0:
            x0, y0, x1, y1 = x1, y1, x0, y0
        slope = (y1 - y0) / (x1 - x0) if x1 != x0 else 0.0
        cols = (grid.x >= x0 - grid.dx / 2) & (grid.x <= x1 + grid.dx / 2)
        xs = np.clip(grid.x[cols], x0, x1)
        line = y0 + slope * (xs - x0)
        half = thickness / 2 + abs(slope) * grid.dx / 2
        mask[:, cols] |= np.abs(grid.y[:, None] - line[None, :]) <= half
    else:
        if y1 < y0:
            x0, y0, x1, y1 = x1, y1, x0, y0
        slope = (x1 - x0) / (y1 - y0)
        rows = (grid.y >= y0 - grid.dy / 2) & (grid.y <= y1 + grid.dy / 2)
        ys = np.clip(grid.y[rows], y0, y1)
        line = x0 + slope * (ys - y0)
        half = thickness / 2 + abs(slope) * grid.dy / 2
        mask[rows, :] |= np.abs(grid.x[None, :] - line[:, None]) <= half


def build_potential(
    grid: Grid2D,
    params: PhysicalParams,
    branch: int,
    geometry: SlitGeometry,
) -> Potential2D:
    """Walls for branch 1 (two open paths) or branch 2 (walls + septum).

    The branch-2 obstruction is the branch-1 mask plus the separator cells
    and nothing else; the separator is carried in the septum damping field,
    so the hard-wall masks of the two branches are identical.  Unless an
    opening is sealed, every field is mirror symmetric in y.
    """
    g = geometry
    if branch not in (1, 2):
        raise ValidationError(f"branch must be 1 or 2, got {branch!r}")
    half_lx, half_ly = grid.lx / 2, grid.ly / 2
    if not (-half_lx < g.slit_x < half_lx):
        raise GeometryOutOfDomain("slit plane is outside the domain")
    if not (g.slit_x < params.b < half_lx):
        raise GeometryOutOfDomain("screen must lie inside the domain beyond the slit")
    if g.hole_center + g.hole_width / 2 >= half_ly:
        raise GeometryOutOfDomain("holes extend beyond the domain")
    if g.wedge_apex_x is not None and not (-half_lx < g.wedge_apex_x < g.slit_x):
        raise GeometryOutOfDomain("wedge apex must sit between the left edge and the slit")

    xs = grid.x[None, :]
    yabs = np.abs(grid.y)[:, None]

    barrier = np.abs(xs - g.slit_x) <= g.wall_thickness / 2
    in_hole = np.abs(yabs - g.hole_center) <= g.hole_width / 2
    open_upper = in_hole & (grid.y[:, None] > 0) & (not g.seal_upper)
    open_lower = in_hole & (grid.y[:, None] < 0) & (not g.seal_lower)
    blocked = barrier & ~(open_upper | open_lower)

    if g.wedge_apex_x is not None:
        tip_y = g.hole_center - g.hole_width / 2
        upper = np.zeros_like(blocked)
        _mark_segment(upper, grid, (g.wedge_apex_x, 0.0), (g.slit_x, tip_y), g.wall_thickness)
        blocked |= upper | np.flipud(upper)

    septum = None
    if branch == 2:
        along = xs >= g.slit_x  # the separator runs to the right edge
        blocked = blocked | ((yabs <= g.wall_thickness / 2) & along)
        depth = g.septum_half_width - yabs
        reach = g.septum_half_width - g.wall_thickness / 2
        ramp = np.clip(depth / reach, 0.0, 1.0) ** 2
        septum = np.where(along & ~blocked, g.septum_strength * ramp, 0.0)

    return Potential2D(grid, blocked, branch, septum)


# ------------------------------------------------------------- propagation


def _line_operator(
    n_lines: int,
    n_points: int,
    free_flat: np.ndarray,
    coeff: float,
    stretch_flat: np.ndarray | float = 0.0,
):
    """1-d kinetic operator along the fast axis of a flattened grid.

    Blocked cells get zero rows and columns; couplings never cross line
    ends.  Where the stretch field is zero this is the Hermitian 3-point
    operator: ``2 coeff`` on free cells, ``-coeff`` between free in-line
    neighbours.  Inside an absorbing layer (complex coordinate stretching,
    a matched layer) the derivative is taken along a complex path,
    d/dy -> (1/s) d/dy with s = 1 + e^{i pi/4} stretch, which attenuates
    waves of every incidence angle with essentially no reflection; a graded
    imaginary potential cannot do that at grazing incidence.  There the
    operator is non-Hermitian.  Returns (main, lower, upper) diagonals.
    """
    s = 1.0 + np.exp(1j * np.pi / 4) * np.broadcast_to(stretch_flat, free_flat.shape)
    pair = free_flat[:-1] & free_flat[1:]
    pair[np.arange(1, n_lines) * n_points - 1] = False
    s_mid = 0.5 * (s[:-1] + s[1:])

    # half-cell factors toward the next and the previous cell, summed on the
    # main diagonal; a wall or boundary neighbour is an unstretched mirror
    # cell
    toward = np.where(pair, 1.0 / s_mid, 1.0)
    main = np.r_[toward, 1.0]
    main[1:] += toward
    main[0] += 1.0
    main *= coeff
    main /= s
    main[~free_flat] = 0.0
    upper = np.where(pair, -coeff / (s[:-1] * s_mid), 0.0)
    lower = np.where(pair, -coeff / (s[1:] * s_mid), 0.0)
    return main, lower, upper


def _factor_tridiagonal(lower: np.ndarray, main: np.ndarray, upper: np.ndarray) -> tuple:
    """LU factors of a complex tridiagonal matrix, as LAPACK ``zgttrs`` takes them.

    ``lower[i]`` is the entry (i+1, i) and ``upper[i]`` the entry (i, i+1).
    """
    dl, d, du, du2, ipiv, info = lapack.zgttrf(lower, main, upper)
    if info != 0:
        raise StabilityViolation(f"tridiagonal sweep matrix is singular (zgttrf info={info})")
    return dl, d, du, du2, ipiv


# lines per tile of the explicit y half: a tile's three coefficient rows and
# its slice of the state stay in cache while the three products run
TILE_LINES = 16


@dataclass(frozen=True)
class _Run:
    """Consecutive lines of one block that share one line operator.

    ``cells`` is the run's flat range in its sweep's layout and ``lu`` the
    ``zgttrf`` factors of ``1 + i a H`` on one line.  A y run also carries
    the explicit y half ``1 - i a H`` as three diagonals repeated over
    ``TILE_LINES`` lines, zero across line ends.
    """

    cells: slice
    lu: tuple
    explicit: tuple = ()


def _line_runs(free: np.ndarray, coeff: float, a: float, stretch=None, explicit=False):
    """``(lines, runs)`` of each half of a sweep whose lines are the rows of ``free``.

    The halves are the first ``n_lines // 2`` lines and the rest.  Lines
    with equal free cells and equal stretch have equal operators, so each
    distinct line is built and factored once.  A run is a maximal stretch
    of consecutive equal lines, cut at the edge of the halves.
    """
    n_lines, n_points = free.shape
    patterns: dict[bytes, int] = {}
    pattern = np.array([
        patterns.setdefault(
            free[i].tobytes() + (b"" if stretch is None else stretch[i].tobytes()),
            len(patterns),
        )
        for i in range(n_lines)
    ])
    firsts = np.unique(pattern, return_index=True)[1]
    factors = []
    for i in firsts:
        row_stretch = 0.0 if stretch is None else stretch[i]
        main, lower, upper = _line_operator(1, n_points, free[i], coeff, row_stretch)
        tiles = ()
        if explicit:
            # the flat operator's off-diagonals are zero across line ends
            tiles = tuple(
                np.tile(diagonal, TILE_LINES)[: TILE_LINES * n_points - pad]
                for diagonal, pad in (
                    (1.0 - 1j * a * main, 0),
                    (-1j * a * np.r_[lower, 0.0], 1),
                    (-1j * a * np.r_[upper, 0.0], 1),
                )
            )
        for diagonal in (lower, main, upper):
            diagonal *= 1j * a
        main += 1.0
        factors.append((_factor_tridiagonal(lower, main, upper), tiles))

    edges = np.flatnonzero(pattern[1:] != pattern[:-1]) + 1
    halves = []
    cut = n_lines // 2
    for half in (slice(0, cut), slice(cut, n_lines)):
        starts = [half.start, *edges[(edges > half.start) & (edges < half.stop)].tolist()]
        stops = [*starts[1:], half.stop]
        halves.append((half, tuple(
            _Run(slice(lo * n_points, hi * n_points), *factors[pattern[lo]])
            for lo, hi in zip(starts, stops)
        )))
    return halves


@dataclass(frozen=True)
class _LineBlock:
    """One of the two independent halves of a sweep's line system.

    ``lines`` indexes the sweep's lines and ``cells`` the flat vector of its
    layout; ``runs`` tile ``cells`` in order.  A y block also carries its
    slices of the edge damping: ``damp_at`` counts from the block's first
    cell and ``losses`` is its share of the per-step loss array.
    """

    lines: slice
    cells: slice
    runs: tuple
    damp_at: np.ndarray | None = None
    damp: np.ndarray | None = None
    keep: np.ndarray | None = None
    losses: slice | None = None


def _transpose_into(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src.T``, copied in square tiles that stay in cache.

    A plain transposed copy strides through one side a whole line at a
    time; on the 512x384 grid tiles of 64 halve the y phase's copy.
    """
    tile = 64
    rows, cols = dst.shape
    for i in range(0, rows, tile):
        for j in range(0, cols, tile):
            dst[i : i + tile, j : j + tile] = src[j : j + tile, i : i + tile].T


class _Work:
    """Work arrays of one ``Propagator.run`` call; blocks write disjoint slices.

    The state ``z`` starts as ``psi`` transposed to the y layout.  Each
    block has its own ``TILE_LINES``-line scratch row for the explicit y half.
    """

    def __init__(self, psi: np.ndarray, n_damped: int, per_step_losses: bool):
        self.z = np.empty(psi.size, dtype=complex)  # the state, y layout
        _transpose_into(self.z.reshape(psi.shape[::-1]), psi)
        self.w = np.empty_like(self.z)  # explicit y half of the next step, y layout
        self.u = np.empty_like(self.z)  # x solve of w, x layout
        self.scratch = np.empty((2, TILE_LINES * psi.shape[0] - 1), dtype=complex)
        self.held = np.empty(n_damped, dtype=complex)
        self.loss = np.empty(n_damped) if per_step_losses else None


def _on_both(pool, sweep, *args) -> None:
    """Run ``sweep`` on block 1 in ``pool`` and on block 0 here, or both here."""
    if pool is None:
        sweep(0, *args)
        sweep(1, *args)
        return
    other = pool.submit(sweep, 1, *args)
    try:
        sweep(0, *args)
    finally:
        other.result()


def _solve_runs(runs, flat: np.ndarray, n_points: int) -> None:
    """Solve each run's lines of ``flat`` in place, one ``zgttrs`` per run.

    A run's lines are a C-ordered ``(lines, n_points)`` block, so its
    transpose is the F-ordered right-hand side LAPACK overwrites in place.
    """
    for run in runs:
        lapack.zgttrs(*run.lu, flat[run.cells].reshape(-1, n_points).T, overwrite_b=1)


class Propagator:
    """Alternating-direction Crank-Nicolson stepper for one wall mask.

    Each step is ``(1 + i a H_y) psi' = (1 - i a H_x)(1 + i a H_x)^-1
    (1 - i a H_y) psi`` with ``a = dt / 2`` (hbar = mass = 1), followed by
    the edge damping.  The explicit x half needs no operator:
    ``(1 - i a H)(1 + i a H)^-1 = 2 (1 + i a H)^-1 - 1``, so it is
    ``2u - w`` for ``u`` the x solve of ``w``.

    Each sweep acts on independent grid lines, rows for x and columns for
    y; couplings never cross line ends.  A line's operator depends only on
    its free cells and its stretch, so lines that agree in both form one
    pattern with one operator: the production walls leave 2 or 3 patterns
    per sweep.  Each pattern is factored once at construction (LAPACK
    ``zgttrf``); reuse the instance for chunked runs.  A run is a stretch of
    consecutive lines of one pattern.  One ``zgttrs`` call solves a whole
    run, its lines the right-hand sides, and the explicit y half works
    through a run ``TILE_LINES`` lines at a time with the pattern's
    diagonals repeated over one tile.

    This is the arithmetic of one solve of the whole flattened system.
    Its factorization meets zero couplings at every line end, so it never
    pivots across one and factors each line as if it stood alone; LAPACK's
    ``zgtts2`` does the same operations on each right-hand-side column; and
    a flat explicit product only adds zero couplings across a tile edge.
    Only the sign of an exact zero can differ.

    Runs are cut at the middle line, which splits each sweep into two
    blocks: rows ``[0, ny//2)`` and ``[ny//2, ny)`` for x, columns
    ``[0, nx//2)`` and ``[nx//2, nx)`` for y.  ``run`` can step the two
    blocks on two threads.  An instance holds no per-run state, so several
    threads may run it at once.
    """

    def __init__(
        self,
        potential: Potential2D,
        dt: float,
        *,
        sponge: SpongeConfig | None = None,
    ):
        if not (np.isfinite(dt) and dt > 0):
            raise StabilityViolation(f"time step {dt!r} must be positive and finite")
        grid = potential.grid
        self.grid = grid
        self.potential = potential
        self.dt = float(dt)
        free = ~potential.blocked
        a = dt / 2.0

        # x lines are the rows of the (ny, nx) layout; no stretch acts along x
        cx = 1.0 / (2.0 * grid.dx**2)
        self._x_blocks = tuple(
            _LineBlock(lines, slice(lines.start * grid.nx, lines.stop * grid.nx), runs)
            for lines, runs in _line_runs(free, cx, a)
        )

        # y lines are the rows of the transposed (nx, ny) layout
        cy = 1.0 / (2.0 * grid.dy**2)
        stretch = None if potential.septum is None else potential.septum.T
        y_halves = _line_runs(free.T, cy, a, stretch, explicit=True)

        if sponge is None:
            damp = np.ones(grid.nx * grid.ny)
        else:
            w = min(sponge.width, grid.nx // 4, grid.ny // 4)
            ix = np.arange(grid.nx)
            iy = np.arange(grid.ny)
            rx = np.maximum(w - ix, ix - (grid.nx - 1 - w)).clip(0) / w
            ry = np.maximum(w - iy, iy - (grid.ny - 1 - w)).clip(0) / w
            # laid out (nx, ny) to match the flattened vector the step ends on
            ramp = np.maximum(rx[:, None], ry[None, :])
            gamma = sponge.strength * ramp**2
            damp = np.exp(-gamma * dt).ravel()
        damped = np.flatnonzero(damp < 1.0)
        self._n_damped = damped.size

        y_blocks = []
        for lines, runs in y_halves:
            cells = slice(lines.start * grid.ny, lines.stop * grid.ny)
            lo, hi = np.searchsorted(damped, (cells.start, cells.stop))
            at = damped[lo:hi]
            y_blocks.append(_LineBlock(
                lines, cells, runs,
                damp_at=at - cells.start,
                damp=damp[at],
                keep=1.0 - damp[at] ** 2,
                losses=slice(lo, hi),
            ))
        self._y_blocks = tuple(y_blocks)

    def run(
        self, packet: WavePacket2D, steps: int, pool: Executor | None = None
    ) -> WavePacket2D:
        """Advance a packet; returns a new packet, absorbed mass accumulated.

        Any amplitude the incoming packet carries on blocked cells is
        removed and the rest rescaled to the incoming norm: the packet is
        projected onto the states compatible with the hard walls.  The
        stepping itself keeps blocked cells at exactly zero, so this is a
        no-op for packets already produced by a run.

        Each step has two phases over the two line blocks, with a join after
        each: the x solve in the x layout, then in the y layout ``2u - w``,
        the y solve, the edge damping and the next step's explicit y half.
        Within a block every run is one multi-right-hand-side ``zgttrs``
        call, and the explicit half goes tile by tile through each run.
        Given ``pool``, an executor with a worker to spare, block 1 of each
        phase runs on it while the calling thread runs block 0; without one
        both run here in turn.  Either way the result is the same to the bit.
        Work arrays are allocated once per call.
        """
        if steps < 0:
            raise ValidationError("steps must be nonnegative")
        if packet.grid != self.grid:
            raise ValidationError("packet grid does not match the propagator grid")
        psi = packet.amplitudes.copy()
        blocked = self.potential.blocked
        wall_mass = float(np.sum(np.abs(psi[blocked]) ** 2))
        if wall_mass > 0.0:
            psi[blocked] = 0.0
            remaining = float(np.sum(np.abs(psi) ** 2))
            if remaining <= 0.0:
                raise ValidationError("packet has no support outside the walls")
            psi *= np.sqrt((remaining + wall_mass) / remaining)
        absorbed = packet.absorbed
        area = self.grid.cell_area
        ny, nx = self.grid.ny, self.grid.nx
        # sponge and matched-layer dissipation both show up as norm loss;
        # the per-step losses telescope, so one norm at each end suffices
        track_by_norm = self.potential.septum is not None
        if track_by_norm:
            n0 = float(np.sum(np.abs(psi) ** 2))
        # the state is carried in the (nx, ny) layout between steps
        work = _Work(psi, self._n_damped, not track_by_norm and self._n_damped > 0)
        if steps:
            _on_both(pool, self._explicit_y, work)
        for step in range(steps):
            _on_both(pool, self._x_sweep, work)
            _on_both(pool, self._y_sweep, work, step + 1 < steps)
            if work.loss is not None:
                # one sum over both blocks' losses keeps the summation order
                absorbed += float(np.sum(work.loss)) * area
        # the result reuses the entry copy: an array made after the work
        # arrays and kept would stop the heap shrinking when they are freed
        _transpose_into(psi, work.z.reshape(nx, ny))
        if track_by_norm:
            absorbed += (n0 - float(np.sum(np.abs(psi) ** 2))) * area
        return WavePacket2D(self.grid, psi, absorbed)

    def _explicit_y(self, k: int, work: _Work) -> None:
        """w = (1 - i a H_y) z on y block k, one tile of lines at a time."""
        tile = TILE_LINES * self.grid.ny
        for run in self._y_blocks[k].runs:
            main, low, up = run.explicit
            for start in range(run.cells.start, run.cells.stop, tile):
                z = work.z[start : min(start + tile, run.cells.stop)]
                w = work.w[start : start + z.size]
                product = work.scratch[k, : z.size - 1]
                np.multiply(main[: z.size], z, out=w)
                np.multiply(up[: z.size - 1], z[1:], out=product)
                w[:-1] += product
                np.multiply(low[: z.size - 1], z[:-1], out=product)
                w[1:] += product

    def _x_sweep(self, k: int, work: _Work) -> None:
        """u = (1 + i a H_x)^-1 w on x block k, w transposed in."""
        block = self._x_blocks[k]
        ny, nx = self.grid.ny, self.grid.nx
        _transpose_into(
            work.u[block.cells].reshape(-1, nx), work.w.reshape(nx, ny)[:, block.lines]
        )
        _solve_runs(block.runs, work.u, nx)

    def _y_sweep(self, k: int, work: _Work, more: bool) -> None:
        """z = (1 + i a H_y)^-1 (2u - w) on y block k, u transposed in, then damped.

        With ``more`` steps to go, also forms the next step's explicit half.
        """
        block = self._y_blocks[k]
        ny, nx = self.grid.ny, self.grid.nx
        z = work.z[block.cells]
        _transpose_into(z.reshape(-1, ny), work.u.reshape(ny, nx)[:, block.lines])
        # the explicit x half 2u - w, elementwise, so in either layout
        z *= 2.0
        z -= work.w[block.cells]
        _solve_runs(block.runs, work.z, ny)
        if block.damp_at.size:
            held = work.held[block.losses]
            np.take(z, block.damp_at, out=held, mode="clip")
            if work.loss is not None:
                loss = work.loss[block.losses]
                np.abs(held, out=loss)
                np.square(loss, out=loss)
                loss *= block.keep
            held *= block.damp
            z[block.damp_at] = held
        if more:
            self._explicit_y(k, work)


def evolve(
    packet: WavePacket2D,
    potential: Potential2D,
    dt: float,
    steps: int,
    *,
    sponge: SpongeConfig | None = None,
) -> WavePacket2D:
    """One-shot propagation; see Propagator for chunked runs."""
    return Propagator(potential, dt, sponge=sponge).run(packet, steps)


# -------------------------------------------------------------- detection


def detector_pmf(packet: WavePacket2D, binning: DetectorBinning) -> Pmf:
    """Bin masses of |psi|^2: strip bins beyond the screen, bin 0 in front.

    Mass removed by an absorbing layer (packet.absorbed) plus any numerical
    deficit shows up as the no-detection probability.
    """
    labels = binning.indices(packet.grid).ravel()
    # a stable sort keeps each bin's cells in grid order, so every bin is
    # summed as one contiguous run of the same values as a masked gather
    order = np.argsort(labels, kind="stable")
    grouped = labels[order]
    cuts = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
    runs = np.split(packet.density().ravel()[order], cuts)
    sums = {int(n): float(run.sum()) for n, run in zip(grouped[np.r_[0, cuts]], runs)}
    sums.setdefault(0, 0.0)
    keys = sorted(sums.keys())
    probs = {n: min(max(sums[n], 0.0), 1.0) for n in keys}
    nd = min(max(1.0 - sum(probs.values()), 0.0), 1.0)
    return Pmf(probs, nd)


def bin_indicator_expectation(packet: WavePacket2D, binning: DetectorBinning, n: int) -> float:
    """<psi, chi_n psi> computed as an inner product with the bin indicator.

    Mathematically the same number as detector_pmf(...)[n]; kept as an
    independent code path against the density-summation route.
    """
    chi = (binning.indices(packet.grid) == n).astype(float)
    psi = packet.amplitudes
    return float(np.vdot(psi, chi * psi).real * packet.grid.cell_area)


def fringe_visibility(pmf: Pmf, window: Sequence[int], smooth: int = 3) -> float:
    """(max - min) / (max + min) of smoothed bin probabilities in a window.

    ``window`` is an ordered run of strip indices (bin 0 is not a strip and
    is rejected).  Bins absent from the pmf count as zero.  Smoothing is a
    centered moving average of ``smooth`` bins, shrinking at the edges.
    """
    window = list(window)
    if not window:
        raise EmptyWindow("window contains no bins")
    if any(n == 0 for n in window):
        raise EmptyWindow("bin 0 is the front region, not a screen strip")
    vals = np.array([pmf.probabilities.get(n, 0.0) for n in window], dtype=float)
    if vals.sum() <= 0.0:
        raise EmptyWindow("window carries no probability mass")
    half = max(int(smooth) // 2, 0)
    smoothed = np.array(
        [vals[max(0, i - half) : i + half + 1].mean() for i in range(len(vals))]
    )
    hi, lo = smoothed.max(), smoothed.min()
    if hi + lo == 0.0:
        raise EmptyWindow("window carries no probability mass")
    return float((hi - lo) / (hi + lo))


def which_way_mass(packet: WavePacket2D, binning: DetectorBinning) -> WhichWayMass:
    """Mass beyond the screen split by sign of y; the rest is the remainder."""
    return _which_way_from_pmf(detector_pmf(packet, binning))


def _which_way_from_pmf(pmf: Pmf) -> WhichWayMass:
    """The split of ``which_way_mass`` from a detector pmf already at hand."""
    upper = sum(p for n, p in pmf.probabilities.items() if n >= 1)
    lower = sum(p for n, p in pmf.probabilities.items() if n <= -1)
    return WhichWayMass(upper, lower, pmf.probabilities.get(0, 0.0) + pmf.no_detection)


# ------------------------------------------------------------ expectations


def momentum_expectation(packet: WavePacket2D) -> tuple[float, float]:
    """Spectral momentum expectation, hbar = 1 (exact for band-limited amplitudes)."""
    psi = packet.amplitudes
    ft = np.fft.fft2(psi)
    weight = np.abs(ft) ** 2
    total = weight.sum()
    kx = 2 * np.pi * np.fft.fftfreq(packet.grid.nx, packet.grid.dx)
    ky = 2 * np.pi * np.fft.fftfreq(packet.grid.ny, packet.grid.dy)
    px = float((weight * kx[None, :]).sum() / total)
    py = float((weight * ky[:, None]).sum() / total)
    return px, py


def position_expectation(packet: WavePacket2D) -> tuple[float, float]:
    dens = packet.density()
    total = dens.sum()
    cx = float((dens * packet.grid.x[None, :]).sum() / total)
    cy = float((dens * packet.grid.y[:, None]).sum() / total)
    return cx, cy
