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
and bin n <= -1 the mirrored strip delta*n < y <= delta*(n+1).  Beyond
the first column at or past b, each strip is a band of whole rows, and
``which_way_mass`` splits such a detector pmf by the sign of y.  The stop
rule's constants are ``CHECK_INTERVAL``, ``PEAK_FLOOR`` and ``MASS_TARGET``
in :mod:`povmlab.scenarios`.

Every line solve, and the rest of each step around the solves, goes
through :mod:`povmlab._tridiag`, which factors each line's matrix and
steps with its C kernel, or with LAPACK's ``zgttrs`` and numpy where the
kernel cannot be built.  The first ``Propagator`` in a process compiles
or loads that kernel and loads SciPy for ``zgttrf``, on the thread that
builds it; this module imports no SciPy.  Importing
povmlab, the finite-dimensional layer and the canned scenarios never load
SciPy or the kernel; loading ``scipy.linalg`` takes about 0.2 s and 27 MB
on a 2-vCPU VM.
"""

from __future__ import annotations

import operator
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _tridiag
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
]


def _integers(**counts) -> None:
    """Refuses any of ``counts`` that is not an integer; numpy's integers pass."""
    for name, value in counts.items():
        try:
            operator.index(value)
        except TypeError:
            raise ValidationError(f"{name} must be an integer, not {value!r}") from None


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
        _integers(nx=self.nx, ny=self.ny)
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

    def first_column(self, x0: float) -> int:
        """Index of the first column at or beyond ``x0``; all later ones are too."""
        return int(np.searchsorted(self.x, x0))


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
        # summed column by column: the stop steps of recorded runs rest on this order
        beyond = np.abs(self.amplitudes[:, self.grid.first_column(x0) :]).T.ravel()
        return float(np.sum(beyond**2) * self.grid.cell_area)


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
    of magnitude ``septum_strength`` at the wall.  The defaults are the
    walls of the default double-slit run, ``DoubleSlitConfig``, which fixes
    the strength at ``DoubleSlitConfig.septum_strength``.

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
    hole_center: float = 5.5
    hole_width: float = 3.0
    wall_thickness: float = 0.3
    wedge_apex_x: float | None = None
    septum_half_width: float = 3.6
    septum_strength: float = 3.0
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

    def _screen(self, grid: Grid2D) -> tuple[int, np.ndarray]:
        """The first screen-side column and each row's strip; strips rise with y."""
        if not (-grid.lx / 2 < self.b < grid.lx / 2):
            raise GeometryOutOfDomain(f"screen b={self.b} is outside the domain")
        if self.delta < grid.dy:
            raise UnresolvableScale("bin height is below the grid spacing")
        return grid.first_column(self.b), self.bin_of(grid.y)

    def indices(self, grid: Grid2D) -> np.ndarray:
        """Per-cell bin label on a grid; 0 in front of the screen."""
        column, strips = self._screen(grid)
        labels = np.zeros((grid.ny, grid.nx), dtype=int)
        labels[:, column:] = strips[:, None]
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

    return Potential2D(grid, blocked, septum)


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


def _line_runs(free: np.ndarray, coeff: float, a: float, stretch=None):
    """The runs of each half of a sweep whose lines are the rows of ``free``.

    The halves are the first ``n_lines // 2`` lines and the rest.  Lines
    with equal free cells and equal stretch have equal operators, so each
    distinct line is built and factored once, at its first line.  A run is
    a maximal stretch of consecutive equal lines, cut at the edge of the
    halves, given as ``(lines, solve, explicit)``: its range, its pattern's
    ``LineSolve`` of ``1 + i a H`` and the diagonals of ``1 - i a H``.
    """
    n_lines, n_points = free.shape
    # each line's pattern, named by the first line that has it
    firsts: dict[bytes, int] = {}
    pattern = np.array([
        firsts.setdefault(
            free[i].tobytes() + (b"" if stretch is None else stretch[i].tobytes()), i
        )
        for i in range(n_lines)
    ])
    factors = {}
    for i in firsts.values():
        row_stretch = 0.0 if stretch is None else stretch[i]
        main, lower, upper = _line_operator(1, n_points, free[i], coeff, row_stretch)
        diagonals = (-1j * a * lower, 1.0 - 1j * a * main, -1j * a * upper)
        for diagonal in (lower, main, upper):
            diagonal *= 1j * a
        main += 1.0
        factors[i] = (_tridiag.LineSolve(lower, main, upper), diagonals)

    edges = np.flatnonzero(pattern[1:] != pattern[:-1]) + 1
    halves = []
    cut = n_lines // 2
    for first, last in ((0, cut), (cut, n_lines)):
        starts = [first, *edges[(edges > first) & (edges < last)].tolist()]
        stops = [*starts[1:], last]
        halves.append(tuple(
            (slice(lo, hi), *factors[pattern[lo]]) for lo, hi in zip(starts, stops)
        ))
    return halves


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
    per sweep.  Each pattern is factored once at construction, by its
    ``_tridiag.LineSolve``; reuse the instance for chunked runs.  A run is a
    stretch of consecutive lines of one pattern.  The x phase of a run is
    its ``LineSolve``, which solves ``w`` and leaves ``2u - w`` in its
    place, on an x run's ``(lines, solve)`` pair; the y phase is a
    ``_tridiag.LinePhase``, which is the y run: it holds its lines and its
    share of the edge damping, and solves, damps and forms the next
    explicit y half from the pattern's three diagonals.  Both run through
    the C kernel, one forward and one back sweep per group of 16 lines, or
    through ``zgttrs`` and numpy with the same bits.

    ``start`` makes a packet's ``Stepping``, whose state lives in one
    ``_tridiag.Field`` for as long as it is stepped, in the form its
    backend steps: on the kernel, real and imaginary planes in tiles of 16
    x lines, so that a tile row of an x run is one contiguous block and a
    y run's lines come in and go out by 16x16 transposes of contiguous
    tiles, as its sweeps reach them.  The only conversions are the entry
    copy into the field and the field into each packet read.  ``run`` is
    one such stepping, read into the entry copy.

    This is the arithmetic of one solve of the whole flattened system.
    Its factorization meets zero couplings at every line end, so it never
    pivots across one and factors each line as if it stood alone; LAPACK's
    ``zgtts2`` does the same operations on each right-hand-side column, and
    the kernel does them on many lines at once; and a flat explicit
    product only adds zero couplings across a line end.  Only the sign of
    an exact zero can differ.  The explicit half's complex products are
    the plain ``(ac - bd, ad + bc)`` and a damped cell's loss is
    ``re*re + im*im`` times its keep, so neither rounds by numpy's SIMD
    dispatch.

    Runs are cut at the middle line, which splits each sweep into two
    blocks: rows ``[0, ny//2)`` and ``[ny//2, ny)`` for x, columns
    ``[0, nx//2)`` and ``[nx//2, nx)`` for y.  A stepping can step the two
    blocks on two threads.  An instance holds no per-run state, so several
    threads may run it, or step its steppings, at once.
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

        # x lines are the rows of the (ny, nx) mask; no stretch acts along x.
        # A pattern's LineSolve serves each of its runs, so a run is a pair
        cx = 1.0 / (2.0 * grid.dx**2)
        self._x_blocks = tuple(
            tuple((lines, solve) for lines, solve, _ in runs) for runs in _line_runs(free, cx, a)
        )

        # ``damped`` lists the damped cells of the flattened (nx, ny) layout
        # the step ends on, ascending, and ``damp`` their factors
        if sponge is None:
            damped, damp = np.empty(0, dtype=np.intp), np.empty(0)
        else:
            w = min(sponge.width, grid.nx // 4, grid.ny // 4)
            ix = np.arange(grid.nx)
            iy = np.arange(grid.ny)
            rx = np.maximum(w - ix, ix - (grid.nx - 1 - w)).clip(0) / w
            ry = np.maximum(w - iy, iy - (grid.ny - 1 - w)).clip(0) / w
            margin = np.flatnonzero((rx > 0)[:, None] | (ry > 0)[None, :])
            ramp = np.maximum(rx[margin // grid.ny], ry[margin % grid.ny])
            gamma = sponge.strength * ramp**2
            damp = np.exp(-gamma * dt)
            # a tiny gamma * dt rounds to no damping at all
            damping = damp < 1.0
            damped, damp = margin[damping], damp[damping]
        self._n_damped = damped.size

        # y lines are the rows of the transposed mask, the state's layout; a
        # y run is its LinePhase, which takes its own share of the damping
        cy = 1.0 / (2.0 * grid.dy**2)
        stretch = None if potential.septum is None else potential.septum.T
        self._y_blocks = tuple(
            tuple(
                _tridiag.LinePhase(solve, explicit, lines, damped, damp)
                for lines, solve, explicit in runs
            )
            for runs in _line_runs(free.T, cy, a, stretch)
        )

    def start(self, packet: WavePacket2D) -> Stepping:
        """A ``Stepping`` of ``packet``, at step 0, to advance and read.

        Any amplitude the incoming packet carries on blocked cells is
        removed and the rest rescaled to the incoming norm: the packet is
        projected onto the states compatible with the hard walls.  The
        stepping itself keeps blocked cells at exactly zero, so this is a
        no-op for packets already produced by a run.
        """
        return self._start(packet)[1]

    def _start(self, packet: WavePacket2D) -> tuple[np.ndarray, Stepping]:
        """The projected entry copy of ``packet``'s amplitudes, and its ``Stepping``."""
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
        return psi, Stepping(self, psi, packet.absorbed)

    def run(
        self, packet: WavePacket2D, steps: int, pool: Executor | None = None
    ) -> WavePacket2D:
        """Advance a packet; returns a new packet, absorbed mass accumulated.

        ``start``, then ``advance(steps, pool)``, then the state read back
        into the entry copy, which becomes the result.  A call allocates the
        entry copy, then the field, a scratch per line block and the damped
        cells' losses: about two fields in all, and the field goes before
        the closing norm's temporaries are made, so an array made after the
        field is not kept and the heap can shrink when it is freed.
        """
        _check_steps(steps)  # before the entry copy
        psi, stepping = self._start(packet)
        stepping.advance(steps, pool)
        return stepping.close(psi)


def _check_steps(steps: int) -> None:
    _integers(steps=steps)
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    if steps > _tridiag.MAX_STEPS:
        raise ValidationError(f"steps must be at most {_tridiag.MAX_STEPS} in one call")


class Stepping:
    """A packet being stepped by one ``Propagator``: its work field and absorbed mass.

    ``advance`` makes steps, and ``read`` returns the packet stepped so
    far, so the field and its bound runs outlive a chunk of steps.  Each
    step has two phases over the two line blocks, with a join after each,
    both on the one work field: the x solve ``u`` of ``w`` and ``2u - w``
    in its place, then the y solve, the edge damping and the next step's
    explicit y half, or the state after the last step of an ``advance``.
    A ``_tridiag.Stepper`` makes them: on the kernel an ``advance`` is one
    kernel call per thread, which releases the GIL for all of its steps,
    joins the threads in C, makes no numpy pass over a field and allocates
    nothing, and each phase sweeps each group of 16 lines twice, forward
    and back, with the damping and the explicit half in the back sweep.
    Given ``pool``, an executor with a worker to spare, block 1 runs on it
    while the calling thread runs block 0; without one both run here.
    Either way the result is the same to the bit.  The bound runs hold the
    propagator's operators, so a stepping may outlive its ``Propagator``.

    The field starts as the projected packet and holds the explicit y half
    ``w`` between the phases of a step, ``2u - w`` between its x and y
    phase, and the state after each ``advance``.  Without a septum the
    damped cells' losses are summed into ``absorbed`` every step; with
    one, sponge and matched-layer dissipation both show up as norm loss,
    and since the per-step losses telescope, each read books the fall of
    the norm since the last one.  ``absorbed`` is the absorbed mass of the
    last packet read.
    """

    def __init__(self, prop: Propagator, psi: np.ndarray, absorbed: float):
        self.grid, self.absorbed = prop.grid, absorbed
        self._area = self.grid.cell_area
        # the norm at the last read, when the norm books the losses
        self._norm2 = None if prop.potential.septum is None else float(np.sum(np.abs(psi) ** 2))
        n_losses = 0 if self._norm2 is not None else prop._n_damped
        self._stepper = _tridiag.Stepper(
            psi, prop._x_blocks, prop._y_blocks, n_losses, self._area, absorbed
        )

    def advance(self, steps: int, pool: Executor | None = None) -> None:
        """Makes ``steps`` more steps, block 1's share on ``pool`` when given."""
        _check_steps(steps)
        self._stepper.advance(steps, pool)

    def read(self) -> WavePacket2D:
        """The packet stepped so far, in a new array."""
        return self._book(np.empty((self.grid.ny, self.grid.nx), dtype=complex))

    def close(self, out: np.ndarray) -> WavePacket2D:
        """The packet stepped so far, in ``out``, after which the stepping is over."""
        return self._book(out, release=True)

    def _book(self, psi: np.ndarray, release: bool = False) -> WavePacket2D:
        """``psi`` set to the state, its absorbed mass booked, as a packet."""
        self._stepper.field.read(psi)
        if self._norm2 is None:
            self.absorbed = self._stepper.absorbed
        if release:
            # the field goes before the norm's temporaries are made
            self._stepper = None
        if self._norm2 is not None:
            norm2 = float(np.sum(np.abs(psi) ** 2))
            self.absorbed += (self._norm2 - norm2) * self._area
            self._norm2 = norm2
        return WavePacket2D(self.grid, psi, self.absorbed)


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
    column, strips = binning._screen(packet.grid)
    density = packet.density()
    # a bin is raveled before it is summed, so its cells are added pairwise
    # in grid order, as from a masked gather, not row by row
    sums = {0: float(density[:, :column].ravel().sum())}
    if column < packet.grid.nx:
        cuts = np.flatnonzero(np.diff(strips)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(strips)]):
            sums[int(strips[lo])] = float(density[lo:hi, column:].ravel().sum())
    probs = {n: min(max(sums[n], 0.0), 1.0) for n in sorted(sums)}
    nd = min(max(1.0 - sum(probs.values()), 0.0), 1.0)
    return Pmf(probs, nd)


def bin_indicator_expectation(packet: WavePacket2D, binning: DetectorBinning, n: int) -> float:
    """<psi, chi_n psi> computed as an inner product with the bin indicator.

    The reference for detector_pmf(...)[n].  The two share the column cut
    and ``bin_of``, not the arithmetic: only this route builds the label
    array of ``DetectorBinning.indices``, and it sums an inner product where
    ``detector_pmf`` sums row bands of the density.
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


def which_way_mass(pmf: Pmf) -> WhichWayMass:
    """A detector pmf's screen-side mass split by sign of y; the rest is the remainder."""
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
