"""The C tridiagonal kernel against LAPACK's ``zgttrs``, and how it is built."""

import functools
import hashlib
import importlib.util
import os
import platform
import shlex
import shutil
import subprocess
import sys
import sysconfig
import threading
from concurrent.futures import CancelledError, Executor, Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from povmlab import _tridiag
from povmlab.doubleslit import (
    Grid2D,
    PhysicalParams,
    Propagator,
    SlitGeometry,
    SpongeConfig,
    WavePacket2D,
    build_potential,
    init_packet,
)
from povmlab.errors import StabilityViolation, ValidationError
from povmlab.scenarios import DoubleSlitConfig, _advance, run_doubleslit
from povmlab.serialize import emit

from conftest import probe_env

MARGIN = 1.0 - 1.0j
# a NaN with a payload that no arithmetic here makes: the cells of a kernel
# field that still hold it after a write are the padding of its last tile
PAD = np.uint64(0x7FF4DEADBEEF0001)


def _normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _stepped(solve, psi, call):
    """``psi`` through a field of ``solve``'s backend and ``call(field)``, read back.

    A kernel field starts with ``PAD`` in every cell; the write must leave
    exactly its padding, ``nx * (-ny % 16)`` cells per plane, and the call
    must leave the padding as it was.
    """
    field = _tridiag.Field(solve, *psi.shape)
    bits = field.data.view(np.uint64)
    bits[...] = PAD
    field.write(psi)
    padding = bits == PAD
    if solve._lib is not None:
        assert padding.sum() == field.data.size - 2 * psi.size, "a write missed a cell"
    call(field)
    assert (bits[padding] == PAD).all(), "the field's padding was written"
    out = np.empty_like(psi)
    field.read(out)
    return out


def _bare_phase(solve, lines):
    """A y phase of ``solve`` on ``lines`` with no damped cell: with ``(True, False)``, a solve."""
    n = solve.lu[1].size
    return _tridiag.LinePhase(
        solve, (np.zeros(n - 1), np.ones(n), np.zeros(n - 1)), lines,
        damped=np.empty(0, dtype=np.intp), damp=np.empty(0),
    )


def _runs(blocks):
    """The runs of both blocks of a sweep, in order."""
    return blocks[0] + blocks[1]


def _on_lines(solve, rhs, shape, lines, axis, explicit=False):
    """``rhs`` (n, m) as ``lines`` of an otherwise ``MARGIN`` field, stepped, as uint64 bits.

    Axis 0 puts it on x lines, the grid's rows, through the x phase; axis
    1 on y lines, its columns, through a y phase without damping or its
    explicit half.  Every other line must keep ``MARGIN``.
    """
    psi = np.full(shape, MARGIN)
    place = (lines, slice(None)) if axis == 0 else (slice(None), lines)
    psi[place] = rhs.T if axis == 0 else rhs
    if axis == 0:
        out = _stepped(solve, psi, lambda field: solve.bind(field, lines)(explicit))
    else:
        phase = _bare_phase(solve, lines)
        out = _stepped(solve, psi, lambda field: phase.bind(field, None)(True, False))
    result = np.array(out[place].T if axis == 0 else out[place], order="C")
    out[place] = MARGIN
    assert (out == MARGIN).all(), "the run wrote outside its lines"
    return result.view(np.uint64)


def _zgttrs(solve, rhs, explicit=False):
    """``zgttrs``'s solve ``u`` of ``rhs``, or ``2.0 * u - rhs`` per part, as uint64 bits."""
    u, info = lapack.zgttrs(*solve.lu, np.asfortranarray(rhs))
    assert info == 0
    if explicit:
        u.real, u.imag = 2.0 * u.real - rhs.real, 2.0 * u.imag - rhs.imag
    return np.ascontiguousarray(u).view(np.uint64)


def _production_propagator(branch, sponge=DoubleSlitConfig().sponge):
    """The default run's propagator for ``branch``, with ``sponge``."""
    c = DoubleSlitConfig()
    return Propagator(build_potential(c.grid, c.params, branch, c.geometry), c.dt, sponge=sponge)


def test_kernel_matches_zgttrs_bit_for_bit_on_every_production_run():
    # each run on its own lines of a production field: x runs through the
    # x phase, with and without the explicit half, y runs through a y phase
    # that only solves
    rng = np.random.default_rng(11)
    checked = 0
    for branch in (1, 2):
        prop = _production_propagator(branch)
        shape = (prop.grid.ny, prop.grid.nx)
        y_runs = [(phase.lines, phase.solve) for phase in _runs(prop._y_blocks)]
        for axis, runs in enumerate((_runs(prop._x_blocks), y_runs)):
            for lines, solve in runs:
                assert solve._lib is not None, "the C kernel did not build"
                rhs = _normal(rng, solve.lu[1].size, lines.stop - lines.start)
                for explicit in (False, True) if axis == 0 else (False,):
                    got = _on_lines(solve, rhs, shape, lines, axis, explicit)
                    assert np.array_equal(got, _zgttrs(solve, rhs, explicit))
                checked += 1
    assert checked == 22  # every run of both sweeps of both branches


def _pivoting(rng, n):
    """A tridiagonal matrix whose factorization swaps about half its rows."""
    phase = lambda k: np.exp(2j * np.pi * rng.uniform(size=k))  # noqa: E731
    # a sub-diagonal entry larger than the diagonal makes zgttrf swap rows
    lower = np.where(rng.uniform(size=n - 1) < 0.5, 3.0, 0.05) * phase(n - 1)
    main = rng.uniform(0.1, 1.0, size=n) * phase(n)
    upper = rng.uniform(0.5, 2.0, size=n - 1) * phase(n - 1)
    return lower, main, upper


def test_kernel_matches_zgttrs_bit_for_bit_where_the_factorization_pivots():
    rng = np.random.default_rng(12)
    n, m = 64, 37  # 37 lines: two full groups of 16 and a short one
    solve = _tridiag.LineSolve(*_pivoting(rng, n))
    assert solve._lib is not None, "the C kernel did not build"
    dl, d, du, du2, ipiv = solve.lu
    swapped = ipiv != np.arange(1, n + 1)
    assert 10 < swapped.sum() < n - 1  # both branches of the elimination
    assert np.abs(du2).max() > 0.0
    # both branches of Smith's division
    assert (np.abs(d.real) < np.abs(d.imag)).any() and (np.abs(d.real) > np.abs(d.imag)).any()
    rhs = _normal(rng, n, m)
    # x lines from a tile edge, and from mid-tile to mid-tile of a field
    # whose last tile is short; y lines of a field of 50 y lines
    for axis, shape, lines in (
        (0, (69, n), slice(16, 53)), (0, (50, n), slice(5, 42)), (1, (n, 50), slice(5, 42)),
    ):
        for explicit in (False, True) if axis == 0 else (False,):
            got = _on_lines(solve, rhs, shape, lines, axis, explicit)
            assert np.array_equal(got, _zgttrs(solve, rhs, explicit)), (axis, shape, lines)


def _both_backends(monkeypatch, lower, main, upper):
    """The same ``LineSolve`` on the kernel and on ``zgttrs``."""
    kernel = _tridiag.LineSolve(lower, main, upper)
    with monkeypatch.context() as patch:
        patch.setattr(_tridiag, "kernel", lambda: None)
        fallback = _tridiag.LineSolve(lower, main, upper)
    assert kernel._lib is not None, "the C kernel did not build"
    assert fallback._lib is None
    return kernel, fallback


@pytest.mark.parametrize("backend", ["kernel", "zgttrs"])
def test_both_backends_hold_the_line_solve_to_one_view_contract(backend, monkeypatch):
    n, m, ny = 24, 5, 21
    lower, main, upper = np.full(n - 1, -1.0 + 0j), np.full(n, 3.0 + 1j), np.full(n - 1, -1.0 + 0j)
    solve, other = _both_backends(monkeypatch, lower, main, upper)
    if backend == "zgttrs":
        solve, other = other, solve
    rng = np.random.default_rng(13)
    rhs = _normal(rng, n, m)
    # lines at the top, across the edge of the first tile and down to the
    # end of the short last one
    for lines in (slice(0, m), slice(14, 14 + m), slice(ny - m, ny)):
        for explicit in (False, True):
            got = _on_lines(solve, rhs, (ny, n), lines, 0, explicit)
            assert np.array_equal(got, _zgttrs(solve, rhs, explicit)), (lines, explicit)

    psi = _normal(rng, ny, n)
    field = _tridiag.Field(solve, ny, n)
    field.write(psi)
    refused = {
        "line length": (_tridiag.Field(solve, ny, n + 1), slice(0, m)),
        "a field of the other backend": (_tridiag.Field(other, ny, n), slice(0, m)),
        "an array, not a field": (np.zeros((ny, n), dtype=complex), slice(0, m)),
        "lines past the field": (field, slice(ny - m + 1, ny + 1)),
        "lines before the field": (field, slice(-1, m - 1)),
        "a strided range": (field, slice(0, 2 * m, 2)),
        "an open range": (field, slice(None, m)),
        "a reversed range": (field, slice(m, 0)),
        "a range of floats": (field, slice(0.0, float(m))),
    }
    for name, (target, lines) in refused.items():
        data = target.data if isinstance(target, _tridiag.Field) else target
        before = data.tobytes()
        with pytest.raises(ValueError):
            solve.bind(target, lines)
        assert data.tobytes() == before, name

    # grid arrays that do not fit the field are refused both ways
    read_only = psi.copy()
    read_only.flags.writeable = False
    for name, grid in {
        "shape": psi[1:].copy(), "floats": psi.real.copy(),
        "Fortran order": np.asfortranarray(psi), "a strided view": np.repeat(psi, 2, axis=1)[:, ::2],
    }.items():
        before = field.data.tobytes()
        with pytest.raises(ValueError):
            field.write(grid)
        assert field.data.tobytes() == before, name
        with pytest.raises(ValueError):
            field.read(grid)
    with pytest.raises(ValueError):
        field.read(read_only)
    out = np.empty_like(psi)
    field.read(out)
    assert np.array_equal(out, psi)  # write and read are inverses

    # upper triangular with a zero on the diagonal
    zero = np.zeros(n, dtype=complex)
    with pytest.raises(StabilityViolation):
        _tridiag.LineSolve(zero[1:], zero, upper)


def test_a_bound_run_refuses_a_scratch_it_could_overrun():
    # a stepper's runs share their thread's scratch; each bind checks it
    n, m = 24, 5
    lower, main, upper = np.full(n - 1, -1.0 + 0j), np.full(n, 3.0 + 1j), np.full(n - 1, -1.0 + 0j)
    solve = _tridiag.LineSolve(lower, main, upper)
    assert solve._lib is not None, "the C kernel did not build"
    need = solve._lib.tridiag_scratch(n, m)
    read_only = np.empty(need)
    read_only.flags.writeable = False
    x_field, y_field = _tridiag.Field(solve, 21, n), _tridiag.Field(solve, n, 21)
    phase = _bare_phase(solve, slice(0, m))
    # short, of float32, 2-d, strided, read-only
    for scratch in (
        np.empty(need - 1), np.empty(need, dtype=np.float32), np.empty((need, 1)),
        np.empty(2 * need)[::2], read_only,
    ):
        with pytest.raises(ValueError):
            solve.bind(x_field, slice(0, m), scratch)
        with pytest.raises(ValueError):
            phase.bind(y_field, None, scratch)
    solve.bind(x_field, slice(0, m), np.empty(need))(True)
    phase.bind(y_field, None, np.empty(need))(True, True)


def _production_propagators(branch, sponge, monkeypatch):
    """The default run's propagator for ``branch``, on the kernel and on ``zgttrs``."""
    kernel = _production_propagator(branch, sponge)
    with monkeypatch.context() as patch:
        patch.setattr(_tridiag, "kernel", lambda: None)
        fallback = _production_propagator(branch, sponge)
    assert kernel._x_blocks[0][0][1]._lib is not None, "the C kernel did not build"
    assert fallback._x_blocks[0][0][1]._lib is None
    return kernel, fallback


@pytest.mark.parametrize("sponge", [SpongeConfig(), None], ids=["sponge", "no-sponge"])
@pytest.mark.parametrize("branch", [1, 2])
def test_kernel_phases_match_the_numpy_route_bit_for_bit_on_every_production_run(
    branch, sponge, monkeypatch
):
    # every run of both phases on a production field: x runs with and
    # without the explicit half, y runs the first step's explicit half
    # alone, a whole step, and a last step without the explicit half
    kernel, fallback = _production_propagators(branch, sponge, monkeypatch)
    shape = (kernel.grid.ny, kernel.grid.nx)
    rng = np.random.default_rng(14)
    checked = 0
    for (lines, k_solve), (f_lines, f_solve) in zip(
        _runs(kernel._x_blocks), _runs(fallback._x_blocks)
    ):
        assert lines == f_lines
        psi = _normal(rng, *shape)
        for explicit in (True, False):
            results = [
                _stepped(s, psi, lambda f: s.bind(f, lines)(explicit)) for s in (k_solve, f_solve)
            ]
            assert np.array_equal(*(r.view(np.uint64) for r in results)), (lines, explicit)
            # the run wrote its own lines, and nothing else
            changed = (results[0] != psi).any(axis=1)
            assert not changed[: lines.start].any() and not changed[lines.stop :].any()
        checked += 1
    for k_phase, f_phase in zip(_runs(kernel._y_blocks), _runs(fallback._y_blocks)):
        lines = k_phase.lines
        assert lines == f_phase.lines
        for solve, explicit in ((False, True), (True, True), (True, False)):
            psi, loss = _normal(rng, *shape), rng.normal(size=kernel._n_damped)
            results = []
            for phase in (k_phase, f_phase):
                losses = loss.copy()
                state = _stepped(
                    phase.solve, psi, lambda f: phase.bind(f, losses)(solve, explicit)
                )
                results.append((state, losses))
            for got, want in zip(*results):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
                    lines, solve, explicit,
                )
            # the run wrote its own lines and losses, and nothing else
            changed = (results[0][0] != psi).any(axis=0)
            assert not changed[: lines.start].any() and not changed[lines.stop :].any()
            booked = results[0][1] != loss
            at = k_phase._losses
            assert not booked[: at.start].any() and not booked[at.stop :].any()
            assert booked[at].all() if solve else not booked[at].any()
        checked += 1
    assert checked == {1: 10, 2: 12}[branch]  # the 22 runs of both branches' sweeps
    assert (kernel._n_damped > 0) == (sponge is not None)


@pytest.mark.parametrize("backend", ["kernel", "zgttrs"])
def test_line_phase_refuses_to_write_outside_its_run(backend, monkeypatch):
    n, m, nx = 24, 5, 12
    rng = np.random.default_rng(15)
    # a stretched operator: lower and upper differ
    lower, upper = -1.0 + 0.3j * rng.uniform(size=n - 1), -1.0 - 0.2j * rng.uniform(size=n - 1)
    main = 3.0 + 1j * rng.uniform(size=n)
    solve, other = _both_backends(monkeypatch, lower, main, upper)
    if backend == "zgttrs":
        solve, other = other, solve
    explicit = (-0.5j * lower, 1.0 - 0.5j * main, -0.5j * upper)
    # the run is y lines 1..m of a field of nx; damped entries 2..4 are its
    # cells, the first, one inside and the last, and the others flank them
    lines = slice(1, m + 1)
    good = dict(
        damped=np.array([3, n - 1, n, 2 * n + 2, n * (m + 1) - 1, n * (m + 1)]),
        damp=np.array([0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
    )

    refused = {
        "unsorted cells": dict(damped=good["damped"][[0, 1, 3, 2, 4, 5]]),
        "a repeated cell": dict(damped=good["damped"][[0, 1, 2, 2, 4, 5]]),
        "a cell before the field": dict(damped=np.r_[-1, good["damped"][1:]]),
        "a damping factor short": dict(damp=good["damp"][:5]),
        "lines before the field": dict(lines=slice(-1, m - 1)),
        "a strided range": dict(lines=slice(1, 2 * m + 1, 2)),
        "an open range": dict(lines=slice(None, m)),
        "a reversed range": dict(lines=slice(m, 0)),
        "a range of floats": dict(lines=slice(1.0, float(m + 1))),
        # the kernel numbers a run's cells and its losses in 32 bits
        "a run of more cells than 32 bits number": dict(lines=slice(0, 2**31 // n + 1)),
    }
    for name, change in refused.items():
        arrays = {"lines": lines, **good, **change}
        before = {k: v.copy() for k, v in arrays.items() if isinstance(v, np.ndarray)}
        with pytest.raises(ValueError):
            _tridiag.LinePhase(solve, explicit, **arrays)
        for k, v in before.items():
            assert np.array_equal(arrays[k], v), name
    with pytest.raises(ValueError):
        _tridiag.LinePhase(solve, (explicit[0][1:], *explicit[1:]), lines, **good)

    phase = _tridiag.LinePhase(solve, explicit, lines, **good)
    assert phase.solve is solve and phase.lines == lines
    # the run's y lines inside a field, with lines on both sides
    psi = _normal(rng, n, nx)
    field = _tridiag.Field(solve, n, nx)
    field.write(psi)
    loss = rng.normal(size=6)
    read_only = loss.copy()
    read_only.flags.writeable = False
    # a damped field's last cell lies inside it, the cell after it does not
    last = dict(good, damped=np.r_[good["damped"][:5], n * nx - 1])
    past = dict(good, damped=np.r_[good["damped"][:5], n * nx])
    bound = {
        "lines of another length": (phase, _tridiag.Field(solve, n + 1, nx), loss),
        "a field of the other backend": (phase, _tridiag.Field(other, n, nx), loss),
        "an array, not a field": (phase, psi.T.copy(), loss),
        "lines past the field": (phase, _tridiag.Field(solve, n, m), loss),
        "a cell past the field": (_tridiag.LinePhase(solve, explicit, lines, **past), field, loss),
        "a short loss": (phase, field, loss[:5]),
        "a strided loss": (phase, field, np.zeros(12)[::2]),
        "a complex loss": (phase, field, loss.astype(complex)),
        "a read-only loss": (phase, field, read_only),
    }
    before = [a.tobytes() for a in (field.data, loss)]
    for name, (refusing, *args) in bound.items():
        with pytest.raises(ValueError):
            refusing.bind(*args)
        assert [a.tobytes() for a in (field.data, loss)] == before, name
    _tridiag.LinePhase(solve, explicit, lines, **last).bind(field, loss)

    # the same field and loss are written where the run's are
    phase.bind(field, loss)(True, True)
    out = np.empty_like(psi)
    field.read(out)
    assert np.array_equal(out[:, [0, *range(m + 1, nx)]], psi[:, [0, *range(m + 1, nx)]])
    assert not np.array_equal(out[:, lines], psi[:, lines])
    booked = loss != np.frombuffer(before[1])
    assert booked[2:5].all() and not booked[[0, 1, 5]].any()


@pytest.mark.parametrize("backend", ["kernel", "zgttrs"])
def test_lines_of_fewer_than_3_cells_are_refused(backend, monkeypatch):
    # SciPy's zgttrf and zgttrs wrappers fail on them with f2py's
    # "unexpected array size"; the refusal comes first and says why
    if backend == "zgttrs":
        monkeypatch.setattr(_tridiag, "kernel", lambda: None)

    def line(n):
        return np.full(n - 1, -1.0 + 0j), np.full(n, 3.0 + 1j), np.full(n - 1, -1.0 + 0j)

    for n in (1, 2):
        with pytest.raises(ValueError, match="at least 3 cells"):
            _tridiag.LineSolve(*line(n))
    assert _tridiag.LineSolve(*line(3)).lu[1].size == 3


def test_the_kernels_loss_sum_is_numpys_bit_for_bit():
    # the step loop books a step's losses in numpy's pairwise order, which
    # the recorded bytes rest on (numpy 2.4.6); were numpy's reduction
    # order to change, this test would be the first to say so
    lib = _tridiag.kernel()
    assert lib is not None, "the C kernel did not build"
    rng = np.random.default_rng(19)

    def check(a):
        got = lib.tridiag_loss_sum(a.size, a.ctypes.data)
        assert got.hex() == float(np.sum(a)).hex(), a.size

    for n in range(1101):
        check(rng.normal(size=n))
        check(10.0 ** rng.uniform(-30, 2, size=n))  # entries from 1e-30 to 1e2
    # the production sponge's losses, each y run's share booked by its phase
    prop = _production_propagator(1)
    field = _tridiag.Field(prop._x_blocks[0][0][1], prop.grid.ny, prop.grid.nx)
    field.write(_normal(rng, prop.grid.ny, prop.grid.nx))
    loss = np.full(prop._n_damped, np.nan)
    for phase in _runs(prop._y_blocks):
        phase.bind(field, loss)(True, False)
    assert loss.size == 47040 and (loss > 0.0).all()
    check(loss)


@pytest.mark.parametrize("branch", [1, 2])
def test_a_production_chunk_on_two_threads_steps_like_the_inline_one(branch):
    # the kernel's join between the threads' phases: a random packet
    # reaches the sponge, so branch 1 books its losses every step
    prop = _production_propagator(branch)
    rng = np.random.default_rng(20 + branch)
    packet = WavePacket2D(prop.grid, _normal(rng, prop.grid.ny, prop.grid.nx))
    inline = prop.run(packet, 25)
    with ThreadPoolExecutor(1) as pool:
        pooled = prop.run(packet, 25, pool=pool)
    assert np.array_equal(pooled.amplitudes.view(np.uint64), inline.amplitudes.view(np.uint64))
    assert pooled.absorbed.hex() == inline.absorbed.hex()
    assert inline.absorbed > packet.absorbed


class _Dropping(Executor):
    """An executor that cancels whatever it is given."""

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        future.cancel()
        return future


class _Finishing(Executor):
    """An executor that hands back a finished future without calling what it is given."""

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        future.set_result(None)
        return future


def _raises_on_pools_that_take_no_work(call) -> None:
    """``call(pool)`` raises, and does not hang, on a shut pool, on a cancelling
    one and on one that finishes the work without running it."""
    shut = ThreadPoolExecutor(1)
    shut.shutdown()
    pools = (
        (shut, RuntimeError, "after shutdown"),
        (_Dropping(), CancelledError, ""),
        (_Finishing(), RuntimeError, "finished block 1 without running it"),
    )
    for pool, error, fragment in pools:
        raised = []

        def attempt():
            try:
                call(pool)
            except error as caught:
                if fragment in str(caught):
                    raised.append(caught)

        thread = threading.Thread(target=attempt, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and len(raised) == 1, pool


def _coarse_propagator(branch=1):
    grid = Grid2D(64, 48, 19.2, 14.4)
    params = PhysicalParams(k0=3.0, sigma=1.4, delta=0.5, b=4.0)
    geometry = SlitGeometry(hole_center=2.0, hole_width=1.6, septum_half_width=1.1)
    potential = build_potential(grid, params, branch, geometry)
    prop = Propagator(potential, 0.01, sponge=SpongeConfig(6, 6.0))
    return prop, init_packet(grid, params, center=(-3.0, 0.5))


@pytest.mark.parametrize("backend", ["kernel", "zgttrs"])
def test_a_run_on_a_pool_that_takes_no_work_raises_instead_of_hanging(backend, monkeypatch):
    # this thread enters the kernel only once the pool has begun its
    # share, so a pool that refuses or drops the work cannot leave it
    # waiting at the join
    if backend == "zgttrs":
        monkeypatch.setattr(_tridiag, "kernel", lambda: None)
    prop, packet = _coarse_propagator()
    assert (prop._x_blocks[0][0][1]._lib is None) == (backend == "zgttrs")
    _raises_on_pools_that_take_no_work(lambda pool: prop.run(packet, 5, pool=pool))


class _Logged:
    """A stepping that logs each advance and read, with its thread, and reads as its name."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def advance(self, steps, pool=None):
        self.log.append((self.name, "advance", steps, pool, threading.current_thread()))

    def read(self):
        self.log.append((self.name, "read", threading.current_thread()))
        return self.name.upper()


def test_a_lone_stepping_steps_here_with_its_blocks_on_the_pool():
    log = []
    with ThreadPoolExecutor(1) as pool:
        assert _advance(pool, [_Logged("a", log)], 7) == ["A"]
    here = threading.current_thread()
    assert log == [("a", "advance", 7, pool, here), ("a", "read", here)]


def test_a_pair_of_fields_steps_field_0_here_and_field_1_on_the_pool():
    # the calling thread is the pair's other worker, neither stepping
    # passes the pool on to its own line blocks, and each is read on the
    # thread that stepped it, in the order given
    log = []
    with ThreadPoolExecutor(1) as pool:
        assert _advance(pool, [_Logged("a", log), _Logged("b", log)], 7) == ["A", "B"]
        worker = pool.submit(threading.current_thread).result()
    here = threading.current_thread()
    for name, thread in (("a", here), ("b", worker)):
        assert [entry for entry in log if entry[0] == name] == [
            (name, "advance", 7, None, thread), (name, "read", thread)
        ]
    assert len(log) == 4


def test_a_pair_of_fields_on_a_pool_that_takes_no_work_raises_instead_of_hanging():
    # stepping 0 starts here only once stepping 1 has begun on the pool,
    # so neither is stepped
    log = []
    pair = [_Logged("a", log), _Logged("b", log)]
    _raises_on_pools_that_take_no_work(lambda pool: _advance(pool, pair, 5))
    assert log == []


@pytest.mark.parametrize("backend", ["kernel", "zgttrs"])
def test_step_counts_past_the_kernels_int_are_refused(backend, monkeypatch):
    # ctypes wraps a C int without an error: on the kernel, 2**31 steps
    # made the bits of none and 2**32 + 1 those of one
    if backend == "zgttrs":
        monkeypatch.setattr(_tridiag, "kernel", lambda: None)
        advance = _tridiag.Stepper.advance

        def bounded(stepper, steps, pool=None):
            # such a count would step for hours here: fail at once instead
            assert steps <= _tridiag.MAX_STEPS, f"{steps} steps reached the stepper"
            advance(stepper, steps, pool)

        monkeypatch.setattr(_tridiag.Stepper, "advance", bounded)
    grid = Grid2D(32, 32, 12.8, 12.8)
    params = PhysicalParams(k0=2.0, sigma=1.4, delta=0.5, b=4.0)
    geometry = SlitGeometry(hole_center=2.0, hole_width=1.6, septum_half_width=1.1)
    prop = Propagator(build_potential(grid, params, 1, geometry), 0.01)
    assert (prop._x_blocks[0][0][1]._lib is None) == (backend == "zgttrs")
    packet = WavePacket2D(grid, _normal(np.random.default_rng(26), 32, 32))
    stepping = prop.start(packet)
    before = stepping.read().amplitudes
    for steps in (2**31, 2**32 + 1):
        with pytest.raises(ValidationError, match="steps"):
            stepping.advance(steps)
        with monkeypatch.context() as patch:
            patch.setattr(prop, "start", lambda packet: pytest.fail("run made its entry copy"))
            with pytest.raises(ValidationError, match="steps"):
                prop.run(packet, steps)
    assert np.array_equal(stepping.read().amplitudes.view(np.uint64), before.view(np.uint64))
    assert _tridiag.MAX_STEPS == 2**31 - 1


def _side_by_side(rng, axis, n, count, cuts, pivots, mode, share):
    """Adjacent runs of one field, each with its own factors, on both backends.

    ``cuts`` split lines ``cuts[0]..cuts[-1]`` of a field of ``count``
    lines of ``n`` cells into runs, each called once, in order, with
    ``mode``: ``(explicit,)`` for x runs, ``(solve, explicit)`` for y runs,
    whose damped cells, a ``share`` of the field's, lie anywhere in it.
    After each call every line but the run's, and every loss but its
    share's, must hold the bits it held before.  Both backends must end on
    the same bits, and the losses of the runs' cells must be written on a
    solve and not otherwise.
    """
    runs = []  # each run's lines and its (kernel, zgttrs) calls of a field
    damped = np.flatnonzero(rng.uniform(size=n * count) < share)  # over the whole field
    damp = rng.uniform(0.5, 1.0, size=damped.size)
    loss = rng.normal(size=damped.size)
    losses = [loss.copy(), loss.copy()]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if pivots:
            lower, main, upper = _pivoting(rng, n)
        else:
            lower, main, upper = _normal(rng, n - 1), 4.0 + _normal(rng, n), _normal(rng, n - 1)
        with pytest.MonkeyPatch.context() as monkeypatch:
            solves = _both_backends(monkeypatch, lower, main, upper)
        lines = slice(lo, hi)
        if axis == "x":
            calls = [functools.partial(s.bind, lines=lines) for s in solves]
        else:
            diagonals = (_normal(rng, n - 1), _normal(rng, n), _normal(rng, n - 1))
            calls = [
                functools.partial(_tridiag.LinePhase(s, diagonals, lines, damped, damp).bind,
                                  loss=booked)
                for s, booked in zip(solves, losses)
            ]
        runs.append((lines, solves, calls))
    shape = (count, n) if axis == "x" else (n, count)
    psi = _normal(rng, *shape)

    def step(backend, field):
        for lines, _, calls in runs:
            before, booked = np.empty_like(psi), losses[backend].copy()
            field.read(before)
            calls[backend](field)(*mode)
            after = np.empty_like(psi)
            field.read(after)
            others = np.ones(count, dtype=bool)
            others[lines] = False
            if axis == "y":
                before, after = before.T, after.T
            assert np.array_equal(after[others].view(np.uint64), before[others].view(np.uint64))
            ours = (damped >= lines.start * n) & (damped < lines.stop * n)
            assert np.array_equal(losses[backend][~ours].view(np.uint64),
                                  booked[~ours].view(np.uint64))

    states = [
        _stepped(runs[0][1][backend], psi, functools.partial(step, backend)) for backend in (0, 1)
    ]
    assert np.array_equal(*(state.view(np.uint64) for state in states))
    assert np.array_equal(*(booked.view(np.uint64) for booked in losses))
    if axis == "y":
        ours = (damped >= cuts[0] * n) & (damped < cuts[-1] * n)
        assert (losses[0][ours] != loss[ours]).all() if mode[0] else (losses[0] == loss).all()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_both_tiled_entries_match_the_fallback_to_the_bit(data):
    # random fields, adjacent runs and factors: line lengths from 3
    # (LineSolve refuses shorter lines:
    # test_lines_of_fewer_than_3_cells_are_refused), fields whose last tile
    # is short, runs that start and end mid-tile beside other runs, line
    # counts on both sides of the 4- and 16-lane groups, pivoting factors
    # and random damped cells; the x phase with and without its explicit
    # half, the y phase as the first call, a whole step and the last step
    axis = data.draw(st.sampled_from(["x", "y"]), label="axis")
    n = data.draw(st.integers(3, 40), label="line length")
    count = data.draw(st.integers(1, 50), label="lines in the field")
    cuts = sorted(data.draw(
        st.sets(st.integers(0, count), min_size=2, max_size=4), label="run edges"
    ))
    pivots = data.draw(st.booleans(), label="pivots")
    if axis == "x":
        mode = (data.draw(st.booleans(), label="explicit"),)
    else:
        modes = [(False, True), (True, True), (True, False)]
        mode = data.draw(st.sampled_from(modes), label="(solve, explicit)")
    share = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]), label="damped share")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    _side_by_side(rng, axis, n, count, cuts, pivots, mode, share)


@pytest.mark.parametrize("mode", [(False, True), (True, True), (True, False)])
@pytest.mark.parametrize(
    "n, count, cuts",
    [
        (40, 48, [5, 21, 27, 43]),  # runs that meet mid-group, 16-lane and partial groups
        (37, 40, [0, 16, 19, 40]),  # ny % 16 != 0, and a narrow run between two others
        (24, 21, [0, 1, 4, 21]),  # narrow runs of 1 and 3 lines, and one of 17
        (48, 34, [2, 18, 29, 34]),  # whole blocks, and groups of 11 and 5 lines through a buffer
    ],
    ids=["mid-group", "short-tile", "narrow", "whole-blocks"],
)
def test_the_y_group_worker_keeps_to_its_lines_at_every_edge(n, count, cuts, mode):
    # each case through the kernel's one y worker against zgttrs, with
    # every damped cell's damping and loss; each run's call leaves every
    # other run's lines and losses bit-untouched
    rng = np.random.default_rng(sum(cuts) + 100 * n)
    _side_by_side(rng, "y", n, count, cuts, True, mode, 0.5)


# numpy's SIMD dispatch turned down to its baseline loops, as on a host
# without AVX2, FMA3 or AVX-512
BASELINE_LOOPS = "X86_V4 AVX512_ICL AVX512_SPR X86_V3"

# steps a fixed packet on the coarse both-branch oracle's branch-2 walls,
# matched layer and sponge, and prints the bits of the amplitudes
DISPATCH_PROBE = """
import hashlib, sys
import numpy as np
from povmlab.doubleslit import Propagator, WavePacket2D, build_potential
from povmlab.scenarios import DoubleSlitConfig

config = DoubleSlitConfig(
    nx=128, ny=96, dt=0.05, k0=2.0, sigma=3.0, b=8.0,
    source_x=-12.0, hole_center=3.0, hole_width=5.0, septum_half_width=0.4,
)
potential = build_potential(config.grid, config.params, 2, config.geometry)
packet = WavePacket2D(config.grid, np.load(sys.argv[1]))
out = Propagator(potential, config.dt, sponge=config.sponge).run(packet, 60)
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
        env = probe_env(os.environ.get("XDG_CACHE_HOME", tmp_path / "cache"))
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


def test_the_phase_split_script_prints_every_piece(tmp_path):
    # one call a piece on branch 2's production walls, with a kernel cache of its own
    script = Path(__file__).resolve().parents[1] / "scripts" / "phase_split.py"
    done = subprocess.run([sys.executable, str(script), "--branch", "2", "--calls", "1"],
                          env=probe_env(tmp_path), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    head, columns, *rows = done.stdout.splitlines()
    assert head in [f"branch 2, 512x384, {backend}, least of 1 calls, ns per cell"
                    for backend in ("C kernel", "zgttrs")]
    assert columns.split() == ["piece", "no", "sponge", "sponge"]
    pieces = [(row[:18].strip(), [float(figure) for figure in row[18:].split()]) for row in rows]
    assert [name for name, _ in pieces] == ["x phase", "y phase", "y solve only", "y explicit only"]
    assert all(len(figures) == 2 and min(figures) > 0 for _, figures in pieces)


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
# kernel anew.  On production fields of both branches, every x run's solve
# and every y run's bare solve must give zgttrs's bits, and every run's
# whole phase (the x phase with its explicit half, the y phase with damping
# and its explicit half) the numpy route's, and so must a 25-step chunk of
# a random packet through the kernel's step loop, on one thread and on
# two; so must the pivoting 64x64 matrix on 37 lines that start and end
# mid-tile, along x and along y, and the loss sum must be np.sum's on
# vectors of every length up to 300.  It takes its helpers from this module
# and prints a digest of all those bits
BUILD_PROBE = """
import hashlib, sys
from concurrent.futures import ThreadPoolExecutor
import numpy as np
import pytest
from povmlab import _tridiag
from povmlab.doubleslit import WavePacket2D
from povmlab.scenarios import DoubleSlitConfig

_tridiag.FLAGS += tuple(sys.argv[2:])
sys.path.insert(0, sys.argv[1])
import test_tridiag as t

digest = hashlib.sha256()
rng = np.random.default_rng(18)

def solved(solve, shape, lines, axis):
    assert solve._lib is not None, "the C kernel did not build"
    rhs = t._normal(rng, solve.lu[1].size, lines.stop - lines.start)
    bits = t._on_lines(solve, rhs, shape, lines, axis)
    assert np.array_equal(bits, t._zgttrs(solve, rhs))
    digest.update(bits.tobytes())

for branch in (1, 2):
    kernel, fallback = t._production_propagators(
        branch, DoubleSlitConfig().sponge, pytest.MonkeyPatch()
    )
    shape = (kernel.grid.ny, kernel.grid.nx)
    y_runs = [(phase.lines, phase.solve) for phase in t._runs(kernel._y_blocks)]
    for axis, sweep in enumerate((t._runs(kernel._x_blocks), y_runs)):
        for lines, solve in sweep:
            solved(solve, shape, lines, axis)
    psi, loss = t._normal(rng, *shape), rng.normal(size=kernel._n_damped)
    x_pairs = zip(t._runs(kernel._x_blocks), t._runs(fallback._x_blocks))
    for (lines, k_solve), (_, f_solve) in x_pairs:
        bits = [
            t._stepped(s, psi, lambda f: s.bind(f, lines)(True)).tobytes()
            for s in (k_solve, f_solve)
        ]
        assert bits[0] == bits[1], (branch, lines)
        digest.update(bits[0])
    for k_phase, f_phase in zip(t._runs(kernel._y_blocks), t._runs(fallback._y_blocks)):
        bits = []
        for phase in (k_phase, f_phase):
            losses = loss.copy()
            out = t._stepped(phase.solve, psi, lambda f: phase.bind(f, losses)(True, True))
            bits.append(out.tobytes() + losses.tobytes())
        assert bits[0] == bits[1], (branch, k_phase.lines)
        digest.update(bits[0])
    # a 25-step chunk through the kernel's step loop, on one thread and on two
    packet = WavePacket2D(kernel.grid, t._normal(rng, *shape))
    chunk = lambda prop, on: prop.run(packet, 25, pool=on)
    result = lambda out: out.amplitudes.tobytes() + out.absorbed.hex().encode()
    want = result(chunk(fallback, None))
    with ThreadPoolExecutor(1) as pool:
        for on in (None, pool):
            assert result(chunk(kernel, on)) == want, (branch, on)
    digest.update(want)
pivoting = _tridiag.LineSolve(*t._pivoting(rng, 64))
assert (pivoting.lu[4] != np.arange(1, 65)).any()
solved(pivoting, (50, 64), slice(5, 42), 0)
solved(pivoting, (64, 50), slice(5, 42), 1)
lib = _tridiag.kernel()
for n in range(300):
    a = 10.0 ** rng.uniform(-30, 2, size=n)
    assert lib.tridiag_loss_sum(n, a.ctypes.data).hex() == float(np.sum(a)).hex(), n
print(digest.hexdigest())
"""


def _build_probe(tmp_path, *flags) -> str:
    done = subprocess.run(
        [sys.executable, "-c", BUILD_PROBE, str(Path(__file__).resolve().parent), *flags],
        env=probe_env(tmp_path / "-".join(("cache",) + flags)), capture_output=True, timeout=300,
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
# "broken-compiler" makes the compiler reject its command line,
# "no-compiler" names a compiler that is not on the PATH, and
# "threads" builds the propagator on 4 threads released together by a
# barrier, with a short switch interval and a build that takes at least
# half a second, and checks that the process compiled once and that every
# thread's propagator got the kernel and steps to the same bits.
STEP_PROBE = """
import hashlib, sys, sysconfig, threading, time
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
if sys.argv[1] == "no-compiler":
    sysconfig.get_config_vars()["CC"] = "povmlab-no-such-compiler -O2"
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
    return prop._x_blocks[0][0][1]._lib is not None, hashlib.sha256(bits).hexdigest()

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


def _start_probe(cache_home, mode="build"):
    return subprocess.Popen(
        [sys.executable, "-c", STEP_PROBE, mode],
        env=probe_env(cache_home), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _probe_result(proc, fallback=b"no C tridiagonal kernel"):
    """Whether the kernel loaded, the bits' digest, and whether ``fallback`` was announced."""
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err.decode()
    loaded, digest = out.decode().split()
    return loaded == "True", digest, fallback in err


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


def test_a_compiler_that_is_not_there_falls_back_to_zgttrs_with_the_same_bits(
    tmp_path, zgttrs_digest
):
    announced = b"no C tridiagonal kernel (no C compiler: povmlab-no-such-compiler -O2)"
    result = _probe_result(_start_probe(tmp_path, "no-compiler"), announced)
    assert result == (False, zgttrs_digest, True)
    assert not (tmp_path / "povmlab").exists()


def test_a_truncated_cached_library_is_built_again(tmp_path, monkeypatch, zgttrs_digest):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    compiler = shlex.split(sysconfig.get_config_var("CC"))
    target = _tridiag._library_path(_tridiag.SOURCE.read_bytes(), compiler)
    target.parent.mkdir(parents=True)
    target.write_bytes(b"")  # what a crash before the compiler's write leaves
    assert _probe_result(_start_probe(tmp_path)) == (True, zgttrs_digest, False)
    assert target.stat().st_size > 0
    assert list(target.parent.iterdir()) == [target]


def _byte_oracle(monkeypatch):
    """``scripts/byte_oracle.py`` as a module, with this test's ``sys.path`` kept."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its src
    path = Path(__file__).resolve().parents[1] / "scripts" / "byte_oracle.py"
    spec = importlib.util.spec_from_file_location("byte_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def test_zgttrs_backend_reproduces_the_coarse_both_branch_oracle(monkeypatch):
    # scripts/byte_oracle.py's SLIT_BOTH run and its recorded digest
    config = DoubleSlitConfig(**_byte_oracle(monkeypatch).SLIT_BOTH)
    monkeypatch.setattr(_tridiag, "kernel", lambda: None)
    assert hashlib.sha256(emit(run_doubleslit(config))).hexdigest() == (
        "756ddc04ae14a85efb9697ae6312db0749253d1c68ce009d021f19fcbda7aba8"
    )


# scripts/byte_oracle.py --slit's four double-slit lines, by the name of
# the script's run: the documented one-field command and the three coarse
# both-branch runs
SLIT_ORACLE = {
    "SLIT": "9b8b92da5040b76658ff515c40cf970eb828135a3149b53f016728bbbe629461",
    "SLIT_BOTH": "756ddc04ae14a85efb9697ae6312db0749253d1c68ce009d021f19fcbda7aba8",
    "SLIT_WEDGE": "4bc8bb4219840605b21fb174aa30e240dcf9020280cffbdf44bd1927f6603338",
    "SLIT_WALLED": "8618660aac176667c70aaafe051a6d156fad0ddc22fbfc0d6dba5d06442a2263",
}


@pytest.mark.parametrize("run", list(SLIT_ORACLE))
def test_kernel_backend_reproduces_the_slit_oracle(run, tmp_path, monkeypatch):
    # the zgttrs test above pins one of these lines on the other route.
    # Like it, these pins hold under the host's numpy loops but not under
    # emulated baseline numpy (ROADMAP item 8): init_packet's np.exp
    # rounds by numpy's dispatch
    assert _tridiag.kernel() is not None
    oracle = _byte_oracle(monkeypatch)
    if run == "SLIT":
        digest = oracle._digest(oracle.SLIT, tmp_path / "out")
    else:
        payload = emit(run_doubleslit(DoubleSlitConfig(**getattr(oracle, run))))
        digest = hashlib.sha256(payload).hexdigest()
    assert digest == SLIT_ORACLE[run]
