import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lapack

from povmlab.doubleslit import (
    DetectorBinning,
    Grid2D,
    PhysicalParams,
    Propagator,
    SlitGeometry,
    SpongeConfig,
    WavePacket2D,
    _factor_tridiagonal,
    _line_operator,
    bin_indicator_expectation,
    build_potential,
    detector_pmf,
    evolve,
    fringe_visibility,
    init_packet,
    momentum_expectation,
    which_way_mass,
)
from povmlab.errors import (
    EmptyWindow,
    GeometryOutOfDomain,
    StabilityViolation,
    UnresolvableScale,
    ValidationError,
)
from povmlab.measurement import Pmf
from povmlab.scenarios import DoubleSlitConfig

GRID = Grid2D(128, 96, 38.4, 28.8)
PARAMS = PhysicalParams(k0=3.0, sigma=1.4, delta=0.5, b=8.0)
GEOMETRY = SlitGeometry(
    hole_center=2.0, hole_width=1.6, wall_thickness=0.3,
    septum_half_width=1.1, septum_strength=3.0,
)


def small_packet(center=(-6.0, 0.5)):
    return init_packet(GRID, PARAMS, center=center)


# ----------------------------------------------------------------- geometry


def test_branch_masks_differ_exactly_by_separator_cells():
    p1 = build_potential(GRID, PARAMS, 1, GEOMETRY)
    p2 = build_potential(GRID, PARAMS, 2, GEOMETRY)
    diff = p2.blocked & ~p1.blocked
    xs = GRID.x[None, :]
    yabs = np.abs(GRID.y)[:, None]
    separator = (
        (yabs <= GEOMETRY.wall_thickness / 2)
        & (xs >= GEOMETRY.slit_x)
        & ~p1.blocked
    )
    assert np.array_equal(diff, separator)
    assert not (p1.blocked & ~p2.blocked).any()


def test_absorbing_lining_hugs_the_separator():
    p2 = build_potential(GRID, PARAMS, 2, GEOMETRY)
    assert p2.septum is not None
    xs = GRID.x[None, :]
    yabs = np.abs(GRID.y)[:, None]
    inside = (yabs < GEOMETRY.septum_half_width) & (xs >= GEOMETRY.slit_x)
    assert not p2.septum[~inside & ~p2.blocked].any()
    assert (p2.septum[p2.blocked] == 0).all()
    assert p2.septum.max() <= GEOMETRY.septum_strength + 1e-12
    # obstruction = walls plus lining, and it exceeds the branch-1 mask
    assert np.array_equal(p2.obstructed(), p2.blocked | (p2.septum > 0))


def test_branch_one_mask_is_mirror_symmetric():
    p1 = build_potential(GRID, PARAMS, 1, GEOMETRY)
    assert np.array_equal(p1.blocked, np.flipud(p1.blocked))
    assert p1.septum is None


def test_holes_are_open_in_both_branches():
    iy_up = np.argmin(np.abs(GRID.y - GEOMETRY.hole_center))
    iy_dn = np.argmin(np.abs(GRID.y + GEOMETRY.hole_center))
    ix = np.argmin(np.abs(GRID.x - GEOMETRY.slit_x))
    for branch in (1, 2):
        mask = build_potential(GRID, PARAMS, branch, GEOMETRY).blocked
        assert not mask[iy_up, ix]
        assert not mask[iy_dn, ix]


def test_sealing_closes_exactly_one_opening():
    import dataclasses

    sealed = dataclasses.replace(GEOMETRY, seal_lower=True)
    mask = build_potential(GRID, PARAMS, 2, sealed).blocked
    iy_up = np.argmin(np.abs(GRID.y - GEOMETRY.hole_center))
    iy_dn = np.argmin(np.abs(GRID.y + GEOMETRY.hole_center))
    ix = np.argmin(np.abs(GRID.x - GEOMETRY.slit_x))
    assert not mask[iy_up, ix]
    assert mask[iy_dn, ix]


def test_geometry_rejects_impossible_layouts():
    with pytest.raises(ValidationError):
        SlitGeometry(hole_center=0.5, hole_width=1.6)
    with pytest.raises(ValidationError):
        SlitGeometry(hole_center=2.0, hole_width=1.6, septum_half_width=1.5)
    with pytest.raises(ValidationError):
        SlitGeometry(hole_width=-1.0)
    with pytest.raises(GeometryOutOfDomain):
        build_potential(GRID, PhysicalParams(k0=3.0, sigma=1.4, delta=0.5, b=50.0),
                        1, GEOMETRY)
    with pytest.raises(GeometryOutOfDomain):
        big = SlitGeometry(hole_center=14.0, hole_width=1.6)
        build_potential(GRID, PARAMS, 1, big)
    with pytest.raises(GeometryOutOfDomain):
        bad_wedge = SlitGeometry(hole_center=2.0, hole_width=1.6, wedge_apex_x=1.0,
                                 septum_half_width=1.1)
        build_potential(GRID, PARAMS, 1, bad_wedge)


def test_branch_must_be_one_or_two():
    with pytest.raises(ValidationError):
        build_potential(GRID, PARAMS, 3, GEOMETRY)


# -------------------------------------------------------------- propagation


def test_masked_cells_stay_exactly_zero():
    pot = build_potential(GRID, PARAMS, 2, GEOMETRY)
    out = evolve(small_packet(), pot, 0.01, 150)
    assert np.abs(out.amplitudes[pot.blocked]).max() == 0.0


def test_norm_drift_without_absorbers_stays_in_budget():
    # the alternating-direction splitting is not exactly unitary once the
    # mask couples the axes, but the drift must stay far under the closure
    # budget and none of it may be booked as absorption
    pot = build_potential(GRID, PARAMS, 1, GEOMETRY)
    out = evolve(small_packet(), pot, 0.01, 400)
    assert abs(out.norm() ** 2 - 1.0) <= 1e-4
    assert out.absorbed == 0.0


def test_propagation_is_linear():
    pot = build_potential(GRID, PARAMS, 1, GEOMETRY)
    prop = Propagator(pot, 0.01)
    # project onto wall-compatible states first so superposing commutes
    # with the entry clipping
    a = prop.run(small_packet(center=(-7.0, 1.0)), 0)
    b = prop.run(small_packet(center=(-5.0, -2.0)), 0)
    mix = WavePacket2D(GRID, 0.6 * a.amplitudes + 0.8j * b.amplitudes)
    left = prop.run(mix, 120).amplitudes
    right = 0.6 * prop.run(a, 120).amplitudes + 0.8j * prop.run(b, 120).amplitudes
    assert np.abs(left - right).max() <= 1e-10


def test_free_packet_moves_at_the_group_velocity():
    # open grid: no walls anywhere, small k0 h so the lattice dispersion
    # stays close to the continuum
    from povmlab.doubleslit import Potential2D

    grid = Grid2D(256, 64, 76.8, 19.2)
    params = PhysicalParams(k0=0.6, sigma=2.0, delta=0.5, b=30.0)
    packet = init_packet(grid, params, center=(-20.0, 0.0))
    pot = Potential2D(grid, np.zeros((64, 256), dtype=bool), 1)
    steps, dt = 500, 0.01
    out = evolve(packet, pot, dt, steps)
    dens = out.density()
    cx = float((dens * grid.x[None, :]).sum() / dens.sum())
    assert cx - (-20.0) == pytest.approx(params.k0 * steps * dt, rel=0.02)


def test_free_packet_speed_at_the_production_spacing_is_the_lattice_one():
    # at the production dx = 0.15 and k0 = 5, k0 dx = 0.75: the 3-point
    # stencil moves the packet at sin(k0 dx)/dx = 4.544, about 9% below
    # the continuum speed k0 = 5
    from povmlab.doubleslit import Potential2D

    grid = Grid2D(256, 128, 38.4, 19.2)
    params = PhysicalParams(k0=5.0, sigma=3.0, delta=0.5, b=10.0)
    packet = init_packet(grid, params, center=(-8.0, 0.0))
    pot = Potential2D(grid, np.zeros((128, 256), dtype=bool), 1)
    steps, dt = 250, 0.004
    out = evolve(packet, pot, dt, steps)

    def centroid(p):
        dens = p.density()
        return float((dens * grid.x[None, :]).sum() / dens.sum())

    speed = (centroid(out) - centroid(packet)) / (steps * dt)
    assert grid.dx == pytest.approx(0.15)
    assert speed == pytest.approx(np.sin(params.k0 * grid.dx) / grid.dx, rel=0.01)


def test_wall_overlap_is_projected_out_and_rescaled():
    pot = build_potential(GRID, PARAMS, 1, GEOMETRY)
    prop = Propagator(pot, 0.01)
    packet = small_packet(center=(-1.0, 0.0))  # straddles the barrier
    out = prop.run(packet, 0)
    assert np.abs(out.amplitudes[pot.blocked]).max() == 0.0
    assert out.norm() == pytest.approx(packet.norm(), abs=1e-12)
    assert out.absorbed == 0.0


def test_packet_swallowed_by_walls_is_rejected():
    pot = build_potential(GRID, PARAMS, 1, GEOMETRY)
    psi = np.zeros((GRID.ny, GRID.nx), dtype=complex)
    psi[pot.blocked] = 1.0
    with pytest.raises(ValidationError):
        Propagator(pot, 0.01).run(WavePacket2D(GRID, psi), 1)


def test_sponge_only_touches_the_grid_margin():
    # regression for a layout mix-up that scattered edge damping into the
    # interior on non-square grids: a packet far from every edge must keep
    # its mass, while one sent into the margin must lose it
    pot = build_potential(GRID, PARAMS, 1, GEOMETRY)
    prop = Propagator(pot, 0.01, sponge=SpongeConfig(12, 6.0))
    held = prop.run(small_packet(center=(-7.0, 0.5)), 40)
    assert held.absorbed <= 1e-8
    assert held.norm() ** 2 >= 1.0 - 1e-4
    edge = prop.run(small_packet(center=(-15.5, 0.5)), 40)
    assert edge.absorbed >= 0.02
    assert abs(1.0 - (edge.norm() ** 2 + edge.absorbed)) <= 1e-4


def test_matched_layer_dissipates_monotonically_with_exact_closure():
    pot = build_potential(GRID, PARAMS, 2, GEOMETRY)
    prop = Propagator(pot, 0.01, sponge=SpongeConfig(10, 6.0))
    out = small_packet(center=(-6.0, 0.3))
    norms = []
    for _ in range(5):
        out = prop.run(out, 80)
        norms.append(out.norm() ** 2)
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert abs(1.0 - (out.norm() ** 2 + out.absorbed)) <= 1e-12


def _plain_line_operator(n_lines, n_points, free_flat, coeff):
    """The Hermitian 3-point line operator, written from its definition.

    ``2 coeff`` on free cells, ``-coeff`` between free in-line neighbours,
    nothing across line ends.  Returns (main, off) diagonals.
    """
    n = n_lines * n_points
    main = np.zeros(n)
    off = np.zeros(n - 1)
    for k in range(n):
        if free_flat[k]:
            main[k] = 2.0 * coeff
        if (k + 1) % n_points and free_flat[k] and free_flat[k + 1]:
            off[k] = -coeff
    return main, off


def test_stretched_operator_reduces_to_plain_when_unstretched():
    rng = np.random.default_rng(3)
    free = rng.uniform(size=40) > 0.2
    main, off = _plain_line_operator(4, 10, free, 0.7)
    s_main, s_low, s_up = _line_operator(4, 10, free, 0.7, np.zeros(40))
    assert np.abs(s_main - main).max() <= 1e-15
    assert np.abs(s_low - off).max() <= 1e-15
    assert np.abs(s_up - off).max() <= 1e-15


def _dense(main, lower, upper):
    return np.diag(main) + np.diag(lower, -1) + np.diag(upper, 1)


@pytest.mark.parametrize("branch", [1, 2])
def test_one_step_matches_dense_sweep_solves(branch):
    # an independent reference for the banded kernel: the four sweep
    # matrices of one step, built dense from the line operators and solved
    # with numpy on a grid small enough for dense algebra
    grid = Grid2D(32, 24, 9.6, 7.2)
    params = PhysicalParams(k0=1.0, sigma=1.2, delta=0.3, b=2.0)
    geometry = SlitGeometry(
        hole_center=2.0, hole_width=1.2, wall_thickness=0.3,
        septum_half_width=1.0, septum_strength=3.0,
    )
    pot = build_potential(grid, params, branch, geometry)
    dt, sponge = 0.05, SpongeConfig(4, 6.0)
    rng = np.random.default_rng(11)
    psi = rng.normal(size=(grid.ny, grid.nx)) + 1j * rng.normal(size=(grid.ny, grid.nx))
    psi[pot.blocked] = 0.0
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_area)
    out = Propagator(pot, dt, sponge=sponge).run(WavePacket2D(grid, psi), 1)

    a = dt / 2.0
    free = ~pot.blocked
    main_x, off_x = _plain_line_operator(grid.ny, grid.nx, free.ravel(), 0.5 / grid.dx**2)
    h_x = _dense(main_x, off_x, off_x)
    free_t = free.T.ravel()
    if branch == 2:
        h_y = _dense(*_line_operator(
            grid.nx, grid.ny, free_t, 0.5 / grid.dy**2, pot.septum.T.ravel()
        ))
    else:
        main_y, off_y = _plain_line_operator(grid.nx, grid.ny, free_t, 0.5 / grid.dy**2)
        h_y = _dense(main_y, off_y, off_y)
    one = np.eye(grid.nx * grid.ny)
    w = (one - 1j * a * h_y) @ psi.T.ravel()
    u = np.linalg.solve(one + 1j * a * h_x, w.reshape(grid.nx, grid.ny).T.ravel())
    v = (one - 1j * a * h_x) @ u
    z = np.linalg.solve(one + 1j * a * h_y, v.reshape(grid.ny, grid.nx).T.ravel())
    z = z.reshape(grid.nx, grid.ny).T

    # quadratic edge ramp of the sponge, written out in the (ny, nx) layout
    iy, ix = np.indices((grid.ny, grid.nx))
    depth = np.maximum.reduce([
        sponge.width - ix, ix - (grid.nx - 1 - sponge.width),
        sponge.width - iy, iy - (grid.ny - 1 - sponge.width), np.zeros_like(ix),
    ])
    damped = z * np.exp(-sponge.strength * (depth / sponge.width) ** 2 * dt)
    expected_absorbed = (
        np.sum(np.abs(z) ** 2 - np.abs(damped) ** 2) * grid.cell_area
        if branch == 1
        else 1.0 - np.sum(np.abs(damped) ** 2) * grid.cell_area
    )

    assert np.abs(out.amplitudes - damped).max() <= 1e-12
    assert abs(out.absorbed - expected_absorbed) <= 1e-12
    assert out.absorbed > 1e-3  # the sponge and the lining both did work


# ------------------------------------------------------------- line blocks

# odd in both axes, so the two line blocks of each sweep differ in size
ODD_GRID = Grid2D(67, 49, 20.1, 14.7)


def _flat_reference_run(pot, dt, sponge, amplitudes, steps):
    """The stepper on one flattened system per sweep, without runs or blocks.

    Same operators, same arithmetic, one ``zgttrs`` call per sweep over all
    lines; the per-run solves must reproduce it bit for bit.
    """
    grid = pot.grid
    nx, ny, area = grid.nx, grid.ny, grid.cell_area
    psi = amplitudes.copy()
    wall_mass = float(np.sum(np.abs(psi[pot.blocked]) ** 2))
    if wall_mass > 0.0:
        psi[pot.blocked] = 0.0
        remaining = float(np.sum(np.abs(psi) ** 2))
        psi *= np.sqrt((remaining + wall_mass) / remaining)
    a = dt / 2.0
    free = ~pot.blocked
    main_x, off_x = _plain_line_operator(ny, nx, free.ravel(), 0.5 / grid.dx**2)
    lu_x = _factor_tridiagonal(1j * a * off_x, 1.0 + 1j * a * main_x, 1j * a * off_x)
    free_t = free.T.ravel()
    if pot.septum is not None:
        main_y, low_y, up_y = _line_operator(
            nx, ny, free_t, 0.5 / grid.dy**2, pot.septum.T.ravel()
        )
    else:
        main_y, low_y = _plain_line_operator(nx, ny, free_t, 0.5 / grid.dy**2)
        up_y = low_y
    lu_y = _factor_tridiagonal(1j * a * low_y, 1.0 + 1j * a * main_y, 1j * a * up_y)
    # quadratic edge ramp in the (nx, ny) layout the step ends on
    ix, iy = np.indices((nx, ny))
    depth = np.maximum.reduce([
        sponge.width - ix, ix - (nx - 1 - sponge.width),
        sponge.width - iy, iy - (ny - 1 - sponge.width), np.zeros_like(ix),
    ])
    damp = np.exp(-sponge.strength * (depth / sponge.width) ** 2 * dt).ravel()
    at = np.flatnonzero(damp < 1.0)

    absorbed = 0.0
    n0 = float(np.sum(np.abs(psi) ** 2))
    z = psi.T.ravel()
    for _ in range(steps):
        w = (1.0 - 1j * a * main_y) * z
        w[:-1] += (-1j * a * up_y) * z[1:]
        w[1:] += (-1j * a * low_y) * z[:-1]
        w = w.reshape(nx, ny).T.ravel()
        u, _ = lapack.zgttrs(*lu_x, w)
        u *= 2.0
        u -= w
        z, _ = lapack.zgttrs(*lu_y, u.reshape(ny, nx).T.ravel())
        before = z[at]
        if pot.septum is None:
            absorbed += float(np.sum(np.abs(before) ** 2 * (1.0 - damp[at] ** 2))) * area
        z[at] = before * damp[at]
    psi = np.ascontiguousarray(z.reshape(nx, ny).T)
    if pot.septum is not None:
        absorbed += (n0 - float(np.sum(np.abs(psi) ** 2))) * area
    return psi, absorbed


@pytest.mark.parametrize("steps", [0, 1, 40])
@pytest.mark.parametrize("branch", [1, 2])
def test_line_blocks_step_exactly_like_one_flat_system(branch, steps):
    # branch 1 books the sponge loss every step; branch 2 (with the septum)
    # books it from the norm at the ends of the run
    pot = build_potential(ODD_GRID, PARAMS, branch, GEOMETRY)
    sponge = SpongeConfig(6, 6.0)
    prop = Propagator(pot, 0.01, sponge=sponge)
    packet = init_packet(ODD_GRID, PARAMS, center=(-1.0, 0.5))  # straddles the barrier
    assert np.abs(packet.amplitudes[pot.blocked]).max() > 0.0

    inline = prop.run(packet, steps)
    with ThreadPoolExecutor(1) as pool:
        pooled = prop.run(packet, steps, pool=pool)
    expected, absorbed = _flat_reference_run(pot, 0.01, sponge, packet.amplitudes, steps)

    assert np.array_equal(pooled.amplitudes, inline.amplitudes)
    assert pooled.absorbed == inline.absorbed
    assert np.array_equal(inline.amplitudes, expected)
    assert inline.absorbed == absorbed
    if steps == 40:
        assert inline.absorbed > 0.0


# a splitter in front of a shifted barrier: most lines of both sweeps are
# distinct, and a run of open y lines crosses the middle column
WEDGE = replace(GEOMETRY, slit_x=3.0, wall_thickness=0.6, wedge_apex_x=0.6)


@pytest.mark.parametrize("branch", [1, 2])
def test_many_line_patterns_step_exactly_like_one_flat_system(branch):
    pot = build_potential(ODD_GRID, PARAMS, branch, WEDGE)
    sponge = SpongeConfig(6, 6.0)
    prop = Propagator(pot, 0.01, sponge=sponge)
    for blocks in (prop._x_blocks, prop._y_blocks):
        runs = blocks[0].runs + blocks[1].runs
        assert len({id(run.lu) for run in runs}) >= 8
    # the run that crosses the block edge is cut there and keeps its factors
    assert prop._y_blocks[0].runs[-1].lu is prop._y_blocks[1].runs[0].lu
    packet = init_packet(ODD_GRID, PARAMS, center=(1.0, 0.5))  # over the wedge
    assert np.abs(packet.amplitudes[pot.blocked]).max() > 0.0

    inline = prop.run(packet, 40)
    with ThreadPoolExecutor(1) as pool:
        pooled = prop.run(packet, 40, pool=pool)
    expected, absorbed = _flat_reference_run(pot, 0.01, sponge, packet.amplitudes, 40)

    assert np.array_equal(pooled.amplitudes, inline.amplitudes)
    assert pooled.absorbed == inline.absorbed
    assert np.array_equal(inline.amplitudes, expected)
    assert inline.absorbed == absorbed
    assert inline.absorbed > 0.0


def test_production_propagator_keeps_one_operator_per_distinct_line():
    # the default run's branch-2 walls leave 3 distinct lines per sweep;
    # full-size factors and explicit diagonals held 35.6 MiB and peaked at
    # 45 MiB during construction
    c = DoubleSlitConfig()
    grid = Grid2D(c.nx, c.ny, c.lx, c.ly)
    params = PhysicalParams(k0=c.k0, sigma=c.sigma, delta=c.delta, b=c.b)
    geometry = SlitGeometry(**{name: getattr(c, name) for name in c.GEOMETRY})
    pot = build_potential(grid, params, 2, geometry)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prop = Propagator(pot, c.dt, sponge=SpongeConfig(c.sponge_width, c.sponge_strength))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prop.grid == grid
    assert held - before < 4 * 2**20
    assert peak - before < 16 * 2**20


def test_one_propagator_runs_on_many_threads_at_once():
    # more threads than cores, each with its own packet, all on one
    # instance: per-run work arrays keep the runs from mixing
    pot = build_potential(GRID, PARAMS, 1, GEOMETRY)
    prop = Propagator(pot, 0.01, sponge=SpongeConfig(10, 6.0))
    packets = [small_packet(center=(-7.0 + i, 0.4 * i - 1.0)) for i in range(4)]
    serial = [prop.run(p, 60) for p in packets]
    results = [None] * len(packets)
    start = threading.Barrier(len(packets))

    def worker(i):
        start.wait(timeout=60)
        results[i] = prop.run(packets[i], 60)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(packets))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert np.array_equal(got.amplitudes, want.amplitudes)
        assert got.absorbed == want.absorbed


def test_bad_time_steps_are_rejected():
    pot = build_potential(GRID, PARAMS, 1, GEOMETRY)
    for dt in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(StabilityViolation):
            Propagator(pot, dt)
    with pytest.raises(ValidationError):
        Propagator(pot, 0.01).run(small_packet(), -1)


def test_packet_scales_must_be_resolvable():
    with pytest.raises(UnresolvableScale):
        init_packet(GRID, PhysicalParams(k0=3.0, sigma=0.5, delta=0.5, b=8.0),
                    center=(-6.0, 0.0))
    with pytest.raises(UnresolvableScale):
        init_packet(GRID, PhysicalParams(k0=9.0, sigma=1.4, delta=0.5, b=8.0),
                    center=(-6.0, 0.0))
    with pytest.raises(GeometryOutOfDomain):
        init_packet(GRID, PARAMS, center=(100.0, 0.0))


def test_initial_packet_momentum_is_the_carrier():
    packet = small_packet()
    px, py = momentum_expectation(packet)
    assert px == pytest.approx(PARAMS.k0, rel=1e-4)
    assert abs(py) <= 1e-10


# ---------------------------------------------------------------- detection


def test_detector_pmf_accounts_for_all_mass():
    pot = build_potential(GRID, PARAMS, 1, GEOMETRY)
    out = evolve(small_packet(), pot, 0.01, 300)
    pmf = detector_pmf(out, DetectorBinning(PARAMS.b, PARAMS.delta))
    total = sum(pmf.probabilities.values()) + pmf.no_detection
    assert total == pytest.approx(1.0, abs=1e-12)


def test_packet_in_front_of_screen_lands_in_bin_zero():
    pmf = detector_pmf(small_packet(), DetectorBinning(PARAMS.b, PARAMS.delta))
    assert pmf[0] == pytest.approx(1.0, abs=1e-9)
    assert all(p <= 1e-12 for n, p in pmf.probabilities.items() if n != 0)


def test_mass_beyond_the_screen_is_the_detectors_screen_side():
    # a grid column exactly on the screen line lies beyond it, as for the bins
    grid = Grid2D(32, 32, 16.0, 16.0)
    b = float(grid.x[19])
    assert b == 1.75
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    packet = WavePacket2D(grid, psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_area))
    pmf = detector_pmf(packet, DetectorBinning(b, 0.5))
    screen_side = sum(p for n, p in pmf.probabilities.items() if n != 0)
    assert packet.mass_beyond(b) == pytest.approx(screen_side, abs=1e-12)


def test_bin_indicator_route_agrees_with_density_route():
    pot = build_potential(GRID, PARAMS, 1, GEOMETRY)
    out = evolve(small_packet(), pot, 0.01, 350)
    binning = DetectorBinning(PARAMS.b, PARAMS.delta)
    pmf = detector_pmf(out, binning)
    for n in (0, 1, 2, -1, -3):
        assert bin_indicator_expectation(out, binning, n) == pytest.approx(
            pmf.probabilities.get(n, 0.0), abs=1e-10
        )


def test_strip_indices_split_by_sign_of_y():
    binning = DetectorBinning(8.0, 0.5)
    y = np.array([0.2, 0.4, 0.7, -0.2, -0.7, 1.3])
    assert list(binning.bin_of(y)) == [1, 1, 2, -1, -2, 3]


def test_binning_validation():
    with pytest.raises(ValidationError):
        DetectorBinning(8.0, 0.0)
    with pytest.raises(UnresolvableScale):
        DetectorBinning(8.0, 0.01).indices(GRID)
    with pytest.raises(GeometryOutOfDomain):
        DetectorBinning(100.0, 0.5).indices(GRID)


def test_visibility_reads_contrast_not_level():
    flat = Pmf({0: 0.0, **{n: 0.1 for n in range(1, 6)}}, 0.5)
    assert fringe_visibility(flat, range(1, 6), smooth=1) == pytest.approx(0.0)
    striped = Pmf({1: 0.2, 2: 0.0, 3: 0.2, 4: 0.0, 5: 0.2}, 0.4)
    assert fringe_visibility(striped, range(1, 6), smooth=1) == pytest.approx(1.0)


def test_visibility_window_validation():
    pmf = Pmf({0: 0.5, 1: 0.5}, 0.0)
    with pytest.raises(EmptyWindow):
        fringe_visibility(pmf, [])
    with pytest.raises(EmptyWindow):
        fringe_visibility(pmf, [0, 1])
    with pytest.raises(EmptyWindow):
        fringe_visibility(pmf, [5, 6, 7])


def test_which_way_mass_is_balanced_for_a_centered_packet():
    pot = build_potential(GRID, PARAMS, 2, GEOMETRY)
    packet = small_packet(center=(-6.0, 0.0))
    out = evolve(packet, pot, 0.01, 450, sponge=SpongeConfig(10, 6.0))
    way = which_way_mass(out, DetectorBinning(PARAMS.b, PARAMS.delta))
    assert way.upper == pytest.approx(way.lower, rel=0.02)
    assert way.upper + way.lower + way.remainder == pytest.approx(1.0, abs=1e-9)


def test_sealed_opening_starves_its_side_of_the_screen():
    import dataclasses

    sealed = dataclasses.replace(GEOMETRY, seal_lower=True)
    pot = build_potential(GRID, PARAMS, 2, sealed)
    packet = small_packet(center=(-6.0, 0.0))
    out = evolve(packet, pot, 0.01, 450, sponge=SpongeConfig(10, 6.0))
    way = which_way_mass(out, DetectorBinning(PARAMS.b, PARAMS.delta))
    assert way.lower <= 1e-6
    assert way.upper > 1e-4
