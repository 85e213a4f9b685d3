"""The C tridiagonal kernel against LAPACK's ``zgttrs``, and how it is built."""

import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import lapack

import povmlab
from povmlab import _tridiag
from povmlab.doubleslit import (
    Grid2D,
    PhysicalParams,
    Propagator,
    SlitGeometry,
    SpongeConfig,
    build_potential,
    init_packet,
)
from povmlab.errors import StabilityViolation
from povmlab.scenarios import DoubleSlitConfig, run_doubleslit
from povmlab.serialize import emit


def _kernel_and_lapack(solve, rhs):
    """``rhs`` (n, lines) solved by the kernel in both layouts and by ``zgttrs``, as uint64 bits.

    The kernel's views sit inside wider arrays, as runs sit inside the
    state: adjacent lines with a line step beyond the line count,
    contiguous lines with a leading dimension beyond the line length.
    Either has a group of 16 lines on each side, which must keep its value.
    """
    assert solve._lib is not None, "the C kernel did not build"
    n, m = rhs.shape
    lines, margin = slice(16, m + 16), 1.0 - 1.0j
    adjacent = np.full((n, m + 32), margin)
    contiguous = np.full((n + 2, m + 32), margin, order="F")
    results = []
    for wide, view in ((adjacent, adjacent[:, lines]), (contiguous, contiguous[1 : n + 1, lines])):
        view[...] = rhs
        solve(view)
        results.append(view.copy())
        view[...] = margin
        assert (wide == margin).all(), "the solve wrote outside its lines"
    expected, info = lapack.zgttrs(*solve.lu, np.asfortranarray(rhs))
    assert info == 0
    return [np.ascontiguousarray(a).view(np.uint64) for a in (*results, expected)]


def test_kernel_matches_zgttrs_bit_for_bit_on_every_production_run():
    c = DoubleSlitConfig()
    grid = Grid2D(c.nx, c.ny, c.lx, c.ly)
    params = PhysicalParams(k0=c.k0, sigma=c.sigma, delta=c.delta, b=c.b)
    geometry = SlitGeometry(**{name: getattr(c, name) for name in c.GEOMETRY})
    rng = np.random.default_rng(11)
    checked = 0
    for branch in (1, 2):
        pot = build_potential(grid, params, branch, geometry)
        prop = Propagator(pot, c.dt, sponge=SpongeConfig(c.sponge_width, c.sponge_strength))
        for blocks in (prop._x_blocks, prop._y_blocks):
            for run in blocks[0].runs + blocks[1].runs:
                n = run.solve.lu[1].size
                shape = (n, run.lines.stop - run.lines.start)
                rhs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                adjacent, contiguous, expected = _kernel_and_lapack(run.solve, rhs)
                assert np.array_equal(adjacent, expected)
                assert np.array_equal(contiguous, expected)
                checked += 1
    assert checked == 22  # every run of both sweeps of both branches


def test_kernel_matches_zgttrs_bit_for_bit_where_the_factorization_pivots():
    rng = np.random.default_rng(12)
    n, m = 64, 37  # 37 lines: two full groups of 16 and a short one
    phase = lambda k: np.exp(2j * np.pi * rng.uniform(size=k))  # noqa: E731
    # a sub-diagonal entry larger than the diagonal makes zgttrf swap rows;
    # about half of them are
    lower = np.where(rng.uniform(size=n - 1) < 0.5, 3.0, 0.05) * phase(n - 1)
    main = rng.uniform(0.1, 1.0, size=n) * phase(n)
    upper = rng.uniform(0.5, 2.0, size=n - 1) * phase(n - 1)
    solve = _tridiag.LineSolve(lower, main, upper)
    dl, d, du, du2, ipiv = solve.lu
    swapped = ipiv != np.arange(1, n + 1)
    assert 10 < swapped.sum() < n - 1  # both branches of the elimination
    assert np.abs(du2).max() > 0.0
    # both branches of Smith's division
    assert (np.abs(d.real) < np.abs(d.imag)).any() and (np.abs(d.real) > np.abs(d.imag)).any()
    rhs = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    adjacent, contiguous, expected = _kernel_and_lapack(solve, rhs)
    assert np.array_equal(adjacent, expected)
    assert np.array_equal(contiguous, expected)


@pytest.mark.parametrize("backend", ["kernel", "zgttrs"])
def test_both_backends_hold_the_line_solve_to_one_view_contract(backend, monkeypatch):
    if backend == "zgttrs":
        monkeypatch.setattr(_tridiag, "kernel", lambda: None)
    n, m = 24, 5
    lower, main, upper = np.full(n - 1, -1.0 + 0j), np.full(n, 3.0 + 1j), np.full(n - 1, -1.0 + 0j)
    solve = _tridiag.LineSolve(lower, main, upper)
    assert (solve._lib is None) == (backend == "zgttrs")
    rng = np.random.default_rng(13)
    rhs = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    # both unit-stride layouts, each inside a wider array, are solved in place
    expected, _ = lapack.zgttrs(*solve.lu, np.asfortranarray(rhs))
    adjacent = np.zeros((n, m + 2), dtype=complex)[:, 1 : m + 1]
    contiguous = np.zeros((n + 3, m), dtype=complex, order="F")[2 : n + 2]
    for lines in (adjacent, contiguous):
        lines[...] = rhs
        solve(lines)
        assert np.array_equal(lines, expected)

    read_only = np.asfortranarray(rhs)  # a layout zgttrs would solve in place
    read_only.flags.writeable = False
    item = rhs.itemsize
    wide = np.zeros(4 * n * m, dtype=complex)
    refused = {
        "line length": rhs[1:],
        # strides of whole complex items, so only the dtype is wrong
        "float view": rhs.real,
        "read-only view": read_only,
        "no unit stride, rows": np.zeros((2 * n, 2 * m), dtype=complex)[::2, ::2],
        "no unit stride, columns": np.zeros((2 * n, 2 * m), dtype=complex, order="F")[::2, ::2],
        "line step of half an item": as_strided(wide, (n, m), (m * item + item // 2, item)),
        "leading dimension of half an item": as_strided(wide, (n, m), (item, n * item + item // 2)),
        # contiguous lines with a leading dimension below the line length,
        # and adjacent lines with a line step below the line count
        "overlapping columns": as_strided(rhs, (n, m), (item, (n - 1) * item)),
        "overlapping rows": as_strided(rhs, (n, m), ((m - 1) * item, item)),
    }
    for name, lines in refused.items():
        before = lines.copy()
        with pytest.raises(ValueError):
            solve(lines)
        assert np.array_equal(lines, before), name

    # upper triangular with a zero on the diagonal
    zero = np.zeros(n, dtype=complex)
    with pytest.raises(StabilityViolation):
        _tridiag.LineSolve(zero[1:], zero, upper)


def _production_propagators(branch, sponge, monkeypatch):
    """The default run's propagator for ``branch``, on the kernel and on ``zgttrs``."""
    c = DoubleSlitConfig()
    grid = Grid2D(c.nx, c.ny, c.lx, c.ly)
    params = PhysicalParams(k0=c.k0, sigma=c.sigma, delta=c.delta, b=c.b)
    geometry = SlitGeometry(**{name: getattr(c, name) for name in c.GEOMETRY})
    pot = build_potential(grid, params, branch, geometry)
    kernel = Propagator(pot, c.dt, sponge=sponge)
    with monkeypatch.context() as patch:
        patch.setattr(_tridiag, "kernel", lambda: None)
        fallback = Propagator(pot, c.dt, sponge=sponge)
    assert kernel._x_blocks[0].runs[0].solve._lib is not None, "the C kernel did not build"
    assert fallback._x_blocks[0].runs[0].solve._lib is None
    return kernel, fallback


@pytest.mark.parametrize("sponge", [SpongeConfig(), None], ids=["sponge", "no-sponge"])
@pytest.mark.parametrize("branch", [1, 2])
def test_kernel_phases_match_the_numpy_route_bit_for_bit_on_every_production_run(
    branch, sponge, monkeypatch
):
    # every run of both phases, on the state's own layout: x runs solve w
    # into z, y runs do the first step's explicit half alone, a whole step,
    # and a last step without the explicit half
    kernel, fallback = _production_propagators(branch, sponge, monkeypatch)
    nx, ny = kernel.grid.nx, kernel.grid.ny
    rng = np.random.default_rng(14)
    field = lambda: rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))  # noqa: E731
    checked = 0
    runs = lambda blocks: blocks[0].runs + blocks[1].runs  # noqa: E731
    for k_run, f_run in zip(runs(kernel._x_blocks), runs(fallback._x_blocks)):
        assert k_run.lines == f_run.lines
        z, w = field(), field()
        source = w.copy()
        results = []
        for run in (k_run, f_run):
            out = z.copy()
            run.solve(out[:, run.lines], w[:, run.lines])
            results.append(out.view(np.uint64))
        assert np.array_equal(*results)
        assert np.array_equal(w, source)  # read, never written
        checked += 1
    for k_run, f_run in zip(runs(kernel._y_blocks), runs(fallback._y_blocks)):
        assert k_run.lines == f_run.lines
        for solve, explicit in ((False, True), (True, True), (True, False)):
            z, w, loss = field(), field(), rng.normal(size=kernel._n_damped)
            results = []
            for run in (k_run, f_run):
                state, half, losses = z.copy(), w.copy(), loss.copy()
                run.phase.bind(state.T[:, run.lines], half.T[:, run.lines], losses)(solve, explicit)
                results.append([a.view(np.uint64) for a in (state, half, losses)])
            for got, want in zip(*results):
                assert np.array_equal(got, want), (k_run.lines, solve, explicit)
            # the run wrote its own lines and losses, and nothing else
            changed = (results[0][0] != z.view(np.uint64)).any(axis=1)
            assert not changed[: k_run.lines.start].any() and not changed[k_run.lines.stop :].any()
            booked = results[0][2] != loss.view(np.uint64)
            at = k_run.phase._losses
            assert not booked[: at.start].any() and not booked[at.stop :].any()
            assert booked[at].all() if solve else not booked[at].any()
        checked += 1
    assert checked == {1: 10, 2: 12}[branch]  # the 22 runs of both branches' sweeps
    assert (kernel._n_damped > 0) == (sponge is not None)


@pytest.mark.parametrize("backend", ["kernel", "zgttrs"])
def test_line_phase_refuses_to_write_outside_its_run(backend, monkeypatch):
    if backend == "zgttrs":
        monkeypatch.setattr(_tridiag, "kernel", lambda: None)
    n, m = 24, 5
    rng = np.random.default_rng(15)
    # a stretched operator: lower and upper differ
    lower, upper = -1.0 + 0.3j * rng.uniform(size=n - 1), -1.0 - 0.2j * rng.uniform(size=n - 1)
    main = 3.0 + 1j * rng.uniform(size=n)
    solve = _tridiag.LineSolve(lower, main, upper)
    assert (solve._lib is None) == (backend == "zgttrs")
    explicit = (-0.5j * lower, 1.0 - 0.5j * main, -0.5j * upper)
    damp = np.array([0.5, 0.7, 0.9])
    good = dict(
        at=np.array([0, n + 2, n * m - 1]), damp=damp, keep=1.0 - damp**2,
        losses=slice(2, 5), n_losses=6,
    )

    refused = {
        "unsorted cells": dict(at=np.array([n + 2, 0, n * m - 1])),
        "a repeated cell": dict(at=np.array([0, n + 2, n + 2])),
        "a cell before the run": dict(at=np.array([-1, n + 2, n * m - 1])),
        "a cell after the run": dict(at=np.array([0, n + 2, n * m])),
        "a damping factor short": dict(damp=good["damp"][:2]),
        "a keep short": dict(keep=good["keep"][:2]),
        "losses short": dict(losses=slice(2, 4)),
        "losses past the array": dict(losses=slice(4, 7)),
        "losses before the array": dict(losses=slice(-1, 2)),
        "strided losses": dict(losses=slice(0, 6, 2)),
    }
    for name, change in refused.items():
        arrays = {**good, **change}
        before = {k: v.copy() for k, v in arrays.items() if isinstance(v, np.ndarray)}
        with pytest.raises(ValueError):
            _tridiag.LinePhase(solve, explicit, m, **arrays)
        for k, v in before.items():
            assert np.array_equal(arrays[k], v), name
    with pytest.raises(ValueError):
        _tridiag.LinePhase(solve, (explicit[0][1:], *explicit[1:]), m, **good)

    phase = _tridiag.LinePhase(solve, explicit, m, **good)
    # a run's lines inside the state: contiguous, with room on both sides
    z = rng.normal(size=(m + 2, n)) + 1j * rng.normal(size=(m + 2, n))
    w = rng.normal(size=(m + 2, n)) + 1j * rng.normal(size=(m + 2, n))
    loss = rng.normal(size=6)
    read_only = w.copy()
    read_only.flags.writeable = False
    item = z.itemsize
    calls = {
        "too many lines": (z.T[:, :m + 1], w.T[:, :m + 1], loss),
        "too few lines": (z.T[:, 1:m], w.T[:, 1:m], loss),
        "lines of another length": (z.T[1:, 1:m + 1], w.T[1:, 1:m + 1], loss),
        "w laid out otherwise": (z.T[:, 1:m + 1], np.asfortranarray(w)[1:m + 1].T.copy(order="C"), loss),
        "w over z": (z.T[:, 1:m + 1], z.T[:, 1:m + 1], loss),
        "w overlapping z": (z.T[:, 1:m + 1], z.T[:, 2:m + 2], loss),
        "read-only w": (z.T[:, 1:m + 1], read_only.T[:, 1:m + 1], loss),
        "z of floats": (z.real.T[:, 1:m + 1], w.T[:, 1:m + 1], loss),
        "z without unit stride": (
            as_strided(z, (n, m), (2 * item, n * item)), w.T[:, 1:m + 1], loss),
        "a short loss": (z.T[:, 1:m + 1], w.T[:, 1:m + 1], loss[:5]),
        "a strided loss": (z.T[:, 1:m + 1], w.T[:, 1:m + 1], np.zeros(12)[::2]),
        "a complex loss": (z.T[:, 1:m + 1], w.T[:, 1:m + 1], loss.astype(complex)),
    }
    before = [a.copy() for a in (z, w, loss)]
    for name, (zv, wv, lv) in calls.items():
        with pytest.raises(ValueError):
            phase.bind(zv, wv, lv)
        for got, want in zip((z, w, loss), before):
            assert np.array_equal(got, want), name

    # the same views, rightly laid out, are written where the run's are
    phase.bind(z.T[:, 1:m + 1], w.T[:, 1:m + 1], loss)(True, True)
    assert np.array_equal(z[[0, m + 1]], before[0][[0, m + 1]])
    assert np.array_equal(w[[0, m + 1]], before[1][[0, m + 1]])
    assert np.array_equal(loss[[0, 1, 5]], before[2][[0, 1, 5]])
    assert not np.array_equal(loss[2:5], before[2][2:5])


# numpy's SIMD dispatch turned down to its baseline loops, as on a host
# without AVX2, FMA3 or AVX-512
BASELINE_LOOPS = "X86_V4 AVX512_ICL AVX512_SPR X86_V3"

# steps a fixed packet on the coarse both-branch oracle's branch-2 walls,
# matched layer and sponge, and prints the bits of the amplitudes
DISPATCH_PROBE = """
import hashlib, sys
import numpy as np
from povmlab.doubleslit import Grid2D, PhysicalParams, SlitGeometry, WavePacket2D, build_potential
from povmlab.scenarios import DoubleSlitConfig, _propagator

config = DoubleSlitConfig(
    nx=128, ny=96, dt=0.05, k0=2.0, sigma=3.0, b=8.0,
    source_x=-12.0, hole_center=3.0, hole_width=5.0, septum_half_width=0.4,
)
grid = Grid2D(config.nx, config.ny, config.lx, config.ly)
params = PhysicalParams(k0=config.k0, sigma=config.sigma, delta=config.delta, b=config.b)
walls = SlitGeometry(**{name: getattr(config, name) for name in config.GEOMETRY})
potential = build_potential(grid, params, 2, walls)
packet = WavePacket2D(grid, np.load(sys.argv[1]))
out = _propagator(config, potential).run(packet, 60)
print(hashlib.sha256(out.amplitudes.tobytes()).hexdigest())
"""


def test_the_step_bits_do_not_depend_on_numpys_simd_dispatch(tmp_path):
    # the packet is passed in: init_packet's np.exp rounds by the dispatch
    # too.  The absorbed mass of a branch-2 field comes from np.abs norms,
    # which this does not cover
    rng = np.random.default_rng(17)
    packet = tmp_path / "packet.npy"
    np.save(packet, rng.normal(size=(96, 128)) + 1j * rng.normal(size=(96, 128)))
    digests = []
    for loops in (None, BASELINE_LOOPS):
        env = _probe_env(os.environ.get("XDG_CACHE_HOME", tmp_path / "cache"))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if loops:
            env["NPY_DISABLE_CPU_FEATURES"] = loops
        done = subprocess.run(
            [sys.executable, "-c", DISPATCH_PROBE, str(packet)],
            env=env, capture_output=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr.decode()
        digests.append(done.stdout.decode().split()[-1])
    assert digests[0] == digests[1]


def test_the_kernel_compiles_without_a_warning(tmp_path):
    compiler = shlex.split(sysconfig.get_config_var("CC") or "")
    if not compiler or shutil.which(compiler[0]) is None:
        pytest.skip("no C compiler")
    subprocess.run(
        [*compiler, *_tridiag.FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "lint.so"), str(_tridiag.SOURCE)],
        check=True, capture_output=True, timeout=300,
    )


# runs in a fresh interpreter, where FLAGS plus the arguments build the
# kernel anew.  On the production propagators of both branches, every run's
# solve must give zgttrs's bits and every y run's whole phase the numpy
# route's; so must the pivoting 64x64 matrix on 37 lines, one group short.
# Prints a digest of all those bits
BUILD_PROBE = """
import hashlib, sys
import numpy as np
from scipy.linalg import lapack
from povmlab import _tridiag
from povmlab.doubleslit import (
    Grid2D, PhysicalParams, Propagator, SlitGeometry, SpongeConfig, build_potential,
)
from povmlab.scenarios import DoubleSlitConfig

_tridiag.FLAGS += tuple(sys.argv[1:])
digest = hashlib.sha256()
rng = np.random.default_rng(18)
normal = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)

def solved(solve, rhs):
    assert solve._lib is not None, "the C kernel did not build"
    lines = rhs.copy(order="A")
    solve(lines)
    expected, info = lapack.zgttrs(*solve.lu, np.asfortranarray(rhs))
    assert info == 0 and lines.tobytes() == expected.tobytes()
    digest.update(lines.tobytes())

c = DoubleSlitConfig()
grid = Grid2D(c.nx, c.ny, c.lx, c.ly)
params = PhysicalParams(k0=c.k0, sigma=c.sigma, delta=c.delta, b=c.b)
geometry = SlitGeometry(**{name: getattr(c, name) for name in c.GEOMETRY})
sponge = SpongeConfig(c.sponge_width, c.sponge_strength)
runs = lambda blocks: blocks[0].runs + blocks[1].runs
for branch in (1, 2):
    pot = build_potential(grid, params, branch, geometry)
    kernel = Propagator(pot, c.dt, sponge=sponge)
    load, _tridiag.kernel = _tridiag.kernel, lambda: None
    fallback = Propagator(pot, c.dt, sponge=sponge)
    _tridiag.kernel = load
    for run in runs(kernel._x_blocks):  # adjacent lines, as in the state
        solved(run.solve, normal(run.solve.lu[1].size, run.lines.stop - run.lines.start))
    for run in runs(kernel._y_blocks):  # contiguous lines
        lines = normal(run.lines.stop - run.lines.start, run.solve.lu[1].size)
        solved(run.solve, lines.T)
    z, w, loss = normal(grid.nx, grid.ny), normal(grid.nx, grid.ny), rng.normal(size=kernel._n_damped)
    for k_run, f_run in zip(runs(kernel._y_blocks), runs(fallback._y_blocks)):
        bits = []
        for run in (k_run, f_run):
            state, half, losses = z.copy(), w.copy(), loss.copy()
            run.phase.bind(state.T[:, run.lines], half.T[:, run.lines], losses)(True, True)
            bits.append(b"".join(a.tobytes() for a in (state, half, losses)))
        assert bits[0] == bits[1], (branch, k_run.lines)
        digest.update(bits[0])
n = 64
phase = lambda k: np.exp(2j * np.pi * rng.uniform(size=k))
lower = np.where(rng.uniform(size=n - 1) < 0.5, 3.0, 0.05) * phase(n - 1)
main = rng.uniform(0.1, 1.0, size=n) * phase(n)
upper = rng.uniform(0.5, 2.0, size=n - 1) * phase(n - 1)
pivoting = _tridiag.LineSolve(lower, main, upper)
assert (pivoting.lu[4] != np.arange(1, n + 1)).any()
solved(pivoting, normal(n, 37))
print(digest.hexdigest())
"""


def _build_probe(tmp_path, *flags) -> str:
    done = subprocess.run(
        [sys.executable, "-c", BUILD_PROBE, *flags],
        env=_probe_env(tmp_path / "-".join(("cache",) + flags)), capture_output=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode().split()[-1]


def _cpu_flags() -> set:
    if platform.machine() not in ("x86_64", "AMD64"):
        return set()
    try:
        info = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in info.splitlines() if line.startswith("flags") for flag in line.split()}


def test_the_kernel_keeps_its_bits_when_built_with_fma(tmp_path):
    # gcc fuses interleaved complex products into vfmaddsub under -mfma,
    # whatever -ffp-contract says; the planar lanes give it nothing to fuse
    if not {"avx2", "fma"} <= _cpu_flags():
        pytest.skip("needs an x86-64 host with AVX2 and FMA")
    _build_probe(tmp_path, "-mavx2", "-mfma")


def test_both_clones_of_the_kernel_give_the_same_bits(tmp_path):
    # on an AVX2 host the loader always picks the AVX2 clone, so the
    # baseline one is built alone, without the clone attribute
    assert _build_probe(tmp_path) == _build_probe(tmp_path, "-DTRIDIAG_NO_CLONES")


# ------------------------------------------------------------------- build

# runs in a fresh interpreter: this process has its kernel loaded already.
# Prints whether the kernel loaded and the bits of 30 steps of a walled,
# layered, sponged branch-2 field.  The mode "zgttrs" replaces the loader,
# "broken-compiler" makes the compiler reject its command line, and
# "threads" builds the propagator on 4 threads released together by a
# barrier, with a short switch interval and a build that takes at least
# half a second, and checks that the process compiled once and that every
# thread's propagator got the kernel and steps to the same bits.
STEP_PROBE = """
import hashlib, sys, threading, time
from concurrent.futures import ThreadPoolExecutor
from povmlab import _tridiag
from povmlab.doubleslit import (
    Grid2D, PhysicalParams, Propagator, SlitGeometry, SpongeConfig, build_potential,
    init_packet,
)

builds = []
if sys.argv[1] == "zgttrs":
    _tridiag.kernel = lambda: None
if sys.argv[1] == "broken-compiler":
    _tridiag.FLAGS += ("-fno-such-option",)
build = _tridiag._build

def counted_build(*args):
    builds.append(args)
    time.sleep(0.5 if sys.argv[1] == "threads" else 0.0)
    build(*args)

_tridiag._build = counted_build
grid = Grid2D(64, 48, 19.2, 14.4)
params = PhysicalParams(k0=3.0, sigma=1.4, delta=0.5, b=4.0)
geometry = SlitGeometry(hole_center=2.0, hole_width=1.6, septum_half_width=1.1)
potential = build_potential(grid, params, 2, geometry)
packet = init_packet(grid, params, center=(-3.0, 0.5))

start = threading.Barrier(4 if sys.argv[1] == "threads" else 1, timeout=60)

def step(_):
    start.wait()
    prop = Propagator(potential, 0.01, sponge=SpongeConfig(6, 6.0))
    out = prop.run(packet, 30)
    bits = out.amplitudes.tobytes() + out.absorbed.hex().encode()
    return prop._x_blocks[0].runs[0].solve._lib is not None, hashlib.sha256(bits).hexdigest()

if sys.argv[1] == "threads":
    sys.setswitchinterval(1e-6)
    with ThreadPoolExecutor(4) as pool:
        results = set(pool.map(step, range(4)))
    assert len(results) == 1 and len(builds) == 1, (results, builds)
    (result,) = results
else:
    result = step(0)
print(*result)
"""


def _probe_env(cache_home) -> dict:
    src = str(Path(povmlab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": src if not path else src + os.pathsep + path,
        "XDG_CACHE_HOME": str(cache_home),
    }


def _start_probe(cache_home, mode="build"):
    return subprocess.Popen(
        [sys.executable, "-c", STEP_PROBE, mode],
        env=_probe_env(cache_home), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _probe_result(proc):
    """Whether the kernel loaded, the bits' digest, and whether a fallback was announced."""
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err.decode()
    loaded, digest = out.decode().split()
    return loaded == "True", digest, b"no C tridiagonal kernel" in err


@pytest.fixture(scope="module")
def zgttrs_digest(tmp_path_factory):
    """The probe's bits with the loader forced to the ``zgttrs`` backend."""
    cache_home = tmp_path_factory.mktemp("cache")
    loaded, digest, warned = _probe_result(_start_probe(cache_home, "zgttrs"))
    assert not loaded and not warned
    assert not (cache_home / "povmlab").exists()
    return digest


def test_two_cold_builds_at_once_step_to_the_same_bits(tmp_path, zgttrs_digest):
    procs = [_start_probe(tmp_path), _start_probe(tmp_path)]
    results = [_probe_result(proc) for proc in procs]
    assert results == [(True, zgttrs_digest, False)] * 2
    # one library, no temporary file left behind
    assert [p.suffix for p in (tmp_path / "povmlab").iterdir()] == [".so"]


def test_threads_that_build_at_once_compile_once(tmp_path, zgttrs_digest):
    assert _probe_result(_start_probe(tmp_path, "threads")) == (True, zgttrs_digest, False)


def test_unwritable_cache_falls_back_to_zgttrs_with_the_same_bits(tmp_path, zgttrs_digest):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    # a cache under a regular file cannot be created, even by root
    assert _probe_result(_start_probe(blocker / "cache")) == (False, zgttrs_digest, True)


def test_failing_compiler_falls_back_to_zgttrs_with_the_same_bits(tmp_path, zgttrs_digest):
    assert _probe_result(_start_probe(tmp_path, "broken-compiler")) == (False, zgttrs_digest, True)
    assert list((tmp_path / "povmlab").iterdir()) == []


def test_a_truncated_cached_library_is_built_again(tmp_path, monkeypatch, zgttrs_digest):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    compiler = shlex.split(sysconfig.get_config_var("CC"))
    target = _tridiag._library_path(_tridiag.SOURCE.read_bytes(), compiler)
    target.parent.mkdir(parents=True)
    target.write_bytes(b"")  # what a crash before the compiler's write leaves
    assert _probe_result(_start_probe(tmp_path)) == (True, zgttrs_digest, False)
    assert target.stat().st_size > 0
    assert list(target.parent.iterdir()) == [target]


def test_zgttrs_backend_reproduces_the_coarse_both_branch_oracle(monkeypatch):
    # scripts/byte_oracle.py's SLIT_BOTH run and its recorded digest
    monkeypatch.setattr(_tridiag, "kernel", lambda: None)
    config = DoubleSlitConfig(
        branch="both", nx=128, ny=96, dt=0.05, max_steps=500,
        k0=2.0, sigma=3.0, b=8.0, shots=2000, seed=5,
        source_x=-12.0, hole_center=3.0, hole_width=5.0, septum_half_width=0.4,
    )
    assert hashlib.sha256(emit(run_doubleslit(config))).hexdigest() == (
        "756ddc04ae14a85efb9697ae6312db0749253d1c68ce009d021f19fcbda7aba8"
    )
