"""The grid's line arithmetic on many lines at once: a C kernel, or ``zgttrs`` and numpy.

A ``Stepper`` keeps a packet's state in one ``Field`` for as long as it
is stepped.  ``LineSolve`` factors one line's matrix with LAPACK's
``zgttrf`` and binds to a range of the field's x lines: the x phase, a
solve ``u`` of every line and the explicit x half ``2u - w`` written back
in place.  A ``LinePhase`` is one run of y lines, with its share of the
field's edge damping, and binds to the field: the solve, the damping and
its losses, and the next step's explicit half, all in place.  Each has
two backends that give the same bits under one field contract, and the
backend decides the field's form: the C kernel in ``_tridiag.c``, on two
real planes in tiles of 16 x lines that it lays out, converts and works
16 lines at a time in vector lanes; LAPACK's ``zgttrs`` with numpy, on a
complex ``(nx, ny)`` array, runs only when the kernel cannot be built or
loaded.  ``bind`` checks the field and the range and takes the kernel's
scratch, sized by the library's ``tridiag_scratch``, or allocates it,
once per bound run, so a step allocates nothing.  On the kernel a
``Stepper`` makes a whole chunk of steps in one ``tridiag_steps`` call per
thread, and on ``zgttrs`` each phase in one call per run.  This is the
only module that imports SciPy, when the first ``LineSolve`` factors, and
the only one that knows which backend runs.

The kernel is compiled by ``kernel()``, on the first call in a process,
with the C compiler Python was built with (``sysconfig``'s ``CC``).  The
library goes to ``$XDG_CACHE_HOME/povmlab`` (default ``~/.cache/povmlab``)
under a name keyed by the source, the compiler command and flags, the
compiler executable's resolved path, size and modification time, and the
platform; a warm cache starts no process.  A build writes a temporary file
and renames it into place, so processes that build at once each load a
complete library.  A cached library that does not load (say, truncated by
a crash) is built again once.  When there is still no kernel, a warning
says so and the slower ``zgttrs`` backend runs.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import Executor
from pathlib import Path

import numpy as np

from .errors import StabilityViolation

SOURCE = Path(__file__).with_name("_tridiag.c")
# no fused multiply-add, no reassociation: the kernel rounds as its header states
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# lines per pass of the fallback's explicit half: a group and its
# temporaries stay in cache, which halved its time on a production run
FALLBACK_GROUP = 32
# the most steps of one advance: tridiag_steps counts them in a C int, which ctypes wraps
MAX_STEPS = 2**31 - 1

_lock = threading.Lock()


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "povmlab"


def _library_path(source: bytes, compiler: list[str]) -> Path | None:
    """Where the library built from ``source`` by ``compiler`` lives; None without a compiler."""
    import hashlib
    import shutil
    import sysconfig

    found = shutil.which(compiler[0])
    if found is None:
        return None
    exe = os.path.realpath(found)
    stat = os.stat(exe)
    key = hashlib.sha256(b"\0".join([
        source, *(s.encode() for s in compiler + list(FLAGS)), exe.encode(),
        f"{stat.st_size}:{stat.st_mtime_ns}:{sysconfig.get_platform()}".encode(),
    ])).hexdigest()[:16]
    return _cache_dir() / f"_tridiag-{key}.so"


def _build(compiler: list[str], target: Path) -> None:
    import subprocess
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.stem + "-", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(
            [*compiler, *FLAGS, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(compiler: list[str], target: Path) -> ctypes.CDLL:
    """The library at ``target``, built first if it is missing or does not load."""
    if target.exists():
        try:
            return ctypes.CDLL(str(target))
        except OSError:
            target.unlink(missing_ok=True)
    _build(compiler, target)
    return ctypes.CDLL(str(target))


@functools.lru_cache(maxsize=None)
def _load() -> ctypes.CDLL | None:
    # deferred, like the modules above: importing povmlab loads none of them
    import shlex
    import subprocess
    import sysconfig
    import warnings

    try:
        source = SOURCE.read_bytes()
        compiler = shlex.split(sysconfig.get_config_var("CC") or "")
        target = _library_path(source, compiler) if compiler else None
        if target is None:
            raise OSError(f"no C compiler: {' '.join(compiler) or 'CC is unset'}")
        lib = _open(compiler, target)
    except (OSError, subprocess.SubprocessError) as error:
        # no source, no compiler, a failed build or an unwritable cache
        warnings.warn(f"povmlab: no C tridiagonal kernel ({error}); the grid steps with zgttrs")
        return None
    grid, pointer = [ctypes.c_int] * 2, ctypes.c_void_p  # ny, nx
    # a phase takes the field and its run's record, then explicit, or solve and explicit
    for entry, flags in ((lib.tridiag_x_phase, 1), (lib.tridiag_y_phase, 2)):
        entry.argtypes, entry.restype = grid + [pointer] * 2 + [ctypes.c_int] * flags, None
    # the field and the steps; each sweep's run count and runs; the losses, area,
    # absorbed, the join and the count of threads that meet at it
    lib.tridiag_steps.argtypes = grid + [pointer, ctypes.c_int] + [ctypes.c_int, pointer] * 2 + [
        ctypes.c_ssize_t, pointer, ctypes.c_double, pointer, pointer, ctypes.c_int]
    lib.tridiag_steps.restype = None
    for entry in (lib.tridiag_to_field, lib.tridiag_from_field):
        entry.argtypes, entry.restype = grid + [pointer] * 2, None
    for entry in (lib.tridiag_field, lib.tridiag_scratch):
        entry.argtypes = [ctypes.c_int] * 2
        entry.restype = ctypes.c_size_t
    lib.tridiag_group.argtypes, lib.tridiag_group.restype = [], ctypes.c_int
    lib.tridiag_loss_sum.argtypes = [ctypes.c_ssize_t, pointer]
    lib.tridiag_loss_sum.restype = ctypes.c_double
    return lib


def kernel() -> ctypes.CDLL | None:
    """The loaded kernel, built on the first call; None when it cannot be."""
    with _lock:  # one build per process, whichever thread asks first
        return _load()


def _factor_tridiagonal(lower: np.ndarray, main: np.ndarray, upper: np.ndarray) -> tuple:
    """LU factors of a complex tridiagonal matrix, as LAPACK ``zgttrs`` takes them.

    ``lower[i]`` is the entry (i+1, i) and ``upper[i]`` the entry (i, i+1).
    """
    from scipy.linalg import lapack  # deferred: importing povmlab loads no SciPy

    dl, d, du, du2, ipiv, info = lapack.zgttrf(lower, main, upper)
    if info != 0:
        raise StabilityViolation(f"tridiagonal sweep matrix is singular (zgttrf info={info})")
    return dl, d, du, du2, ipiv


def _span(lines: slice, count: float) -> tuple[int, int]:
    """``(start, stop)`` of ``lines``, a unit-step range inside ``count`` lines."""
    start, stop = lines.start, lines.stop
    if not (
        lines.step in (None, 1) and isinstance(start, (int, np.integer))
        and isinstance(stop, (int, np.integer)) and 0 <= start <= stop <= count
    ):
        raise ValueError("lines must be a unit-step range inside the field")
    return int(start), int(stop)


def _range(field: Field, lib: ctypes.CDLL | None, lines: slice, count: int) -> tuple[int, int]:
    """``(start, stop)`` of ``lines``, a unit-step range of ``count`` lines of a field of ``lib``."""
    if not isinstance(field, Field) or field._lib is not lib:
        raise ValueError("the field is not in the form this backend steps")
    return _span(lines, count)


def _scratch(lib: ctypes.CDLL, n: int, lines: int, scratch: np.ndarray | None) -> np.ndarray:
    """The planes a kernel entry works ``lines`` lines of ``n`` cells in: ``scratch``, or new ones."""
    size = lib.tridiag_scratch(n, lines)
    if scratch is None:
        return np.empty(size)
    if not (
        scratch.dtype == float and scratch.ndim == 1 and scratch.flags.c_contiguous
        and scratch.flags.writeable and scratch.size >= size
    ):
        raise ValueError(f"scratch must be a writeable float vector of at least {size} doubles")
    return scratch


class _Factors(ctypes.Structure):
    """A ``LineSolve``'s ``lu``, in ``zgttrf``'s order: ``_tridiag.c``'s ``factors``."""

    _fields_ = [(name, ctypes.c_void_p) for name in ("dl", "d", "du", "du2", "ipiv")]


_HEAD = [("lo", ctypes.c_int), ("hi", ctypes.c_int), ("f", _Factors)]  # a run's lines, factors


class _XRun(ctypes.Structure):
    """An x run's record, built by field name, as the kernel reads ``_tridiag.c``'s ``x_run``."""

    _fields_ = [*_HEAD, ("scratch", ctypes.c_void_p)]


class _YRun(ctypes.Structure):
    """A y run's record, built by field name, as the kernel reads ``_tridiag.c``'s ``y_run``."""

    _fields_ = [
        *_HEAD, *((name, ctypes.c_void_p) for name in ("low", "main", "up")),
        ("n_rows", ctypes.c_ssize_t),
        *((name, ctypes.c_void_p) for name in ("rows", "damp", "keep", "slot", "loss", "scratch")),
    ]


class _Bound:
    """A run's phase on its lines of a field: a call of the phase's flags.

    ``run`` is the run's record, which the phase's entry reads and
    ``tridiag_steps`` reads a copy of; the bound phase keeps the arrays it
    points into alive, its ``LineSolve`` or ``LinePhase`` among them.
    """

    def __init__(self, entry, field: Field, run: ctypes.Structure, held: tuple):
        self.run, self._held, self._entry = run, held, entry
        self._head = (*field.shape, field.data.ctypes.data, ctypes.addressof(run))

    def __call__(self, *flags) -> None:
        self._entry(*self._head, *flags)


class LineSolve:
    """Solves with one line's tridiagonal matrix on a range of a field's x lines.

    The matrix has ``main`` on its diagonal, ``lower[i]`` at (i+1, i) and
    ``upper[i]`` at (i, i+1); its ``zgttrf`` factors are ``lu``.  It fits a
    ``Field`` whose x lines have as many cells.  ``bind(field, lines)``
    checks the field and the range once and returns the x phase on those
    lines as a call of ``explicit``, to repeat on whatever the field holds:
    it solves ``u = A^-1 w`` on every line, ``w`` the line's values, and
    sets the line to ``2u - w`` (per part ``2.0 * u - w``, the explicit x
    half of a step) with ``explicit``, to ``u`` without.  It writes no
    other line.  The C kernel works on the field's tiles; ``zgttrs``, where
    there is no kernel, solves a column-major copy of the lines.
    """

    def __init__(self, lower: np.ndarray, main: np.ndarray, upper: np.ndarray):
        if main.size < 3:
            # SciPy's zgttrf and zgttrs take du2's n - 2 entries
            raise ValueError(f"a line needs at least 3 cells to factor, not {main.size}")
        self._lib = kernel()
        self.lu = _factor_tridiagonal(lower, main, upper)  # the kernel reads these
        self._factors = _Factors(*(array.ctypes.data for array in self.lu))
        self._n = main.size

    def bind(self, field: Field, lines: slice, scratch: np.ndarray | None = None):
        """The x phase on ``lines`` of ``field``, checked, as a call of ``explicit``."""
        ny, nx = field.shape
        start, stop = _range(field, self._lib, lines, ny)
        if nx != self._n:
            raise ValueError("the field's x lines do not fit the factors")
        if self._lib is None:
            return functools.partial(self._zgttrs, field.data[:, start:stop])
        scratch = _scratch(self._lib, self._n, stop - start, scratch)
        run = _XRun(lo=start, hi=stop, f=self._factors, scratch=scratch.ctypes.data)
        return _Bound(self._lib.tridiag_x_phase, field, run, (self, field, scratch))

    def _zgttrs(self, lines: np.ndarray, explicit: bool = False) -> None:
        """``lines``, a complex ``(n, m)`` view, set to their solve ``u``, or to ``2u - w``."""
        from scipy.linalg import lapack  # loaded by zgttrf

        w = np.asfortranarray(lines)
        b = w.copy(order="F") if explicit else w
        lapack.zgttrs(*self.lu, b, overwrite_b=1)
        if explicit:
            # on the column-major copy of w, not on the strided lines
            for part, source in ((b.real, w.real), (b.imag, w.imag)):
                part *= 2.0
                part -= source
        if b is not lines:
            lines[...] = b


class Field:
    """The one work field of a stepper's ``run`` on an ``(ny, nx)`` grid.

    Its x lines are the grid's rows, ``ny`` lines of ``nx`` cells, and its
    y lines the columns, ``nx`` lines of ``ny`` cells.  The backend of
    ``solve`` decides its form.  On the C kernel it is two real planes in
    the tiles of 16 x lines that ``_tridiag.c`` lays out, sized and filled
    by the library; on ``zgttrs`` it is a complex ``(nx, ny)`` array,
    C-ordered, so y lines are contiguous and x lines adjacent.  ``write``
    sets the field from a C-ordered complex ``(ny, nx)`` array and ``read``
    writes it back into one; ``LineSolve`` and ``LinePhase`` of the same
    backend bind to ranges of its lines.
    """

    def __init__(self, solve: LineSolve, ny: int, nx: int):
        self._lib, self.shape = solve._lib, (ny, nx)
        if self._lib is None:
            self.data = np.empty((nx, ny), dtype=complex)
        else:
            self.data = np.empty(self._lib.tridiag_field(ny, nx))

    def _check(self, grid: np.ndarray) -> None:
        if not (grid.dtype == complex and grid.shape == self.shape and grid.flags.c_contiguous):
            raise ValueError("a grid array must be C-ordered complex of the field's shape")

    def write(self, psi: np.ndarray) -> None:
        """Sets the field to ``psi``."""
        self._check(psi)
        if self._lib is None:
            self.data[...] = psi.T
        else:
            self._lib.tridiag_to_field(*self.shape, psi.ctypes.data, self.data.ctypes.data)

    def read(self, out: np.ndarray) -> None:
        """Writes the field into ``out``."""
        self._check(out)
        if not out.flags.writeable:
            raise ValueError("the grid array must be writeable")
        if self._lib is None:
            out[...] = self.data.T
        else:
            self._lib.tridiag_from_field(*self.shape, self.data.ctypes.data, out.ctypes.data)


class LinePhase:
    """The y phase of a Crank-Nicolson step on one run of a field's y lines.

    With ``solve``, the phase sets ``z = A^-1 z`` on every line of
    ``lines``, ``A`` the matrix of ``solve`` and ``z`` the line's values
    (the explicit x half, in a step), then multiplies each damped cell of
    those lines by its ``damp`` and writes its loss, ``(re*re + im*im) *
    (1.0 - damp**2)`` of the cell before damping, into its entry of
    ``loss``.  With ``explicit``, it then sets ``z = E z``, ``E`` the
    tridiagonal ``(lower, main, upper)`` of ``explicit``, laid out like
    ``LineSolve``'s and without terms across line ends.  ``damped`` lists
    the whole field's damped cells, ascending, as ``j * n + i`` for y line
    j's cell i; construction checks it and takes the run's share, which it
    keeps in the form its backend reads.  ``loss`` is None or one entry
    per damped cell, so runs write disjoint slices.

    ``bind(field, loss)`` checks the field, the range and ``loss``, so the
    kernel writes only inside them, and returns the phase on ``lines`` of
    ``field`` as a call of ``(solve, explicit)``, to repeat on whatever the
    field holds.  The C kernel does it all in one call, in two sweeps of
    each group of 16 lines, and reads the share as a table of damped rows
    (``_damping_table``).  Where there is no kernel, numpy does the same
    arithmetic on real and imaginary parts around ``zgttrs``, on the
    share's list of cells, so both give the same bits.
    """

    def __init__(
        self, solve: LineSolve, explicit: tuple, lines: slice, damped: np.ndarray, damp: np.ndarray
    ):
        n = solve._n
        lower, main, upper = (np.ascontiguousarray(d, dtype=complex) for d in explicit)
        if main.shape != (n,) or lower.shape != (n - 1,) or upper.shape != (n - 1,):
            raise ValueError("the explicit diagonals do not fit the factors")
        start, stop = _span(lines, np.inf)
        damped, damp = np.ascontiguousarray(damped, np.intp), np.ascontiguousarray(damp, float)
        if damped.ndim != 1 or damp.shape != damped.shape:
            raise ValueError("each damped cell needs one damping factor")
        if damped.size and (damped[0] < 0 or (np.diff(damped) <= 0).any()):
            raise ValueError("damped cells must ascend inside the field")
        if n * (stop - start) > np.iinfo(np.int32).max:
            raise ValueError("a run's cells must be numbered in 32 bits")
        lo, hi = np.searchsorted(damped, (start * n, stop * n))
        self.solve, self.lines, self._n_losses = solve, lines, damped.size
        self._losses, self._reach = slice(int(lo), int(hi)), int(damped.max(initial=-1)) + 1
        self._explicit = (lower, main, upper)
        # the run's damped cells count from its first cell
        if solve._lib is None:
            at, damp = damped[lo:hi] - start * n, damp[lo:hi]
            self._damping = (at, damp, 1.0 - damp**2)
        else:
            at = np.subtract(damped[lo:hi], start * n, dtype=np.int32, casting="unsafe")
            self._damping = _damping_table(at, damp[lo:hi], n, solve._lib.tridiag_group())
            names = ("low", "main", "up", "rows", "damp", "keep", "slot")
            self._at = {k: d.ctypes.data for k, d in zip(names, (*self._explicit, *self._damping))}

    def bind(self, field: Field, loss: np.ndarray | None, scratch: np.ndarray | None = None):
        """The phase on its lines of ``field``, checked, as a call of ``(solve, explicit)``."""
        n, lib = self.solve._n, self.solve._lib
        ny, nx = field.shape
        start, stop = _range(field, lib, self.lines, nx)
        if ny != n:
            raise ValueError("the field's y lines do not fit the factors")
        if self._reach > n * nx:
            raise ValueError("damped cells must lie inside the field")
        if loss is not None and not (
            loss.dtype == float and loss.shape == (self._n_losses,)
            and loss.flags.c_contiguous and loss.flags.writeable
        ):
            raise ValueError("loss must be a writeable float vector of every damped cell's loss")
        if lib is None:
            return functools.partial(self._numpy, field.data.T[:, start:stop], loss)
        scratch = _scratch(lib, n, stop - start, scratch)
        run = _YRun(
            lo=start, hi=stop, f=self.solve._factors, n_rows=self._damping[0].size,
            loss=None if loss is None else loss.ctypes.data + self._losses.start * loss.itemsize,
            scratch=scratch.ctypes.data, **self._at,
        )
        return _Bound(lib.tridiag_y_phase, field, run, (self, field, loss, scratch))

    def _numpy(self, z, loss, solve: bool, explicit: bool) -> None:
        """The kernel's arithmetic in numpy, on real and imaginary parts, around ``zgttrs``."""
        n = self.solve._n
        if solve:
            self.solve._zgttrs(z)
            at, damp, keep = self._damping
            if at.size:
                cells = (at % n, at // n)
                held = z[cells]
                re, im = held.real, held.imag
                if loss is not None:
                    loss[self._losses] = (re * re + im * im) * keep
                re *= damp
                im *= damp
                z[cells] = held
        if not explicit:
            return
        (lr, li), (mr, mi), (ur, ui) = (
            (d.real[:, None], d.imag[:, None]) for d in self._explicit
        )
        for first in range(0, z.shape[1], FALLBACK_GROUP):
            # the group's explicit half is whole before it overwrites the group
            out = z[:, first : first + FALLBACK_GROUP]
            zr, zi = out.real, out.imag
            wr = mr * zr - mi * zi
            wi = mr * zi + mi * zr
            wr[:-1] += ur * zr[1:] - ui * zi[1:]
            wi[:-1] += ur * zi[1:] + ui * zr[1:]
            wr[1:] += lr * zr[:-1] - li * zi[:-1]
            wi[1:] += lr * zi[:-1] + li * zr[:-1]
            out.real, out.imag = wr, wi


def _damping_table(at: np.ndarray, damp: np.ndarray, n: int, group: int) -> tuple:
    """A y run's damped cells ``at``, ascending, as ``_tridiag.c``'s damping table.

    ``at``, int32, numbers line j's cell i as ``j * n + i`` from the run's
    first cell, and ``damp`` holds their factors; the kernel works ``group``
    lines at a time.  The table has one entry per row of a group that
    holds a damped cell, ascending by ``g * n + i`` for group g's cell i:
    on each of its ``group`` lanes a damp, 1.0 where the lane's cell is not
    damped, a keep ``1.0 - damp**2``, 0.0 there, and the loss slot, -1
    there, else k for the k-th cell of ``at``.  Each array is of the run's
    damped cells, not of its field.
    """
    line, row = np.divmod(at, np.int32(n))
    rows, place = np.unique(line // group * n + row, return_inverse=True)  # int32 g n + i
    lane = (place, line % group)
    factors, slots = np.ones((rows.size, group)), np.full((rows.size, group), -1, dtype=np.int32)
    factors[lane], slots[lane] = damp, np.arange(at.size, dtype=np.int32)
    return rows, factors, 1.0 - factors**2, slots


def _on_both(pool: Executor | None, block) -> list:
    """``[block(0), block(1)]``: block 1 on ``pool`` and block 0 here, or both here.

    Block 0 starts only once block 1 has begun on the pool, so a pool that
    refuses, drops or fails the work raises here instead of leaving this
    thread waiting for block 1, at the kernel's join or for its result.
    """
    if pool is None:
        return [block(0), block(1)]
    started = threading.Event()

    def other_block() -> object:
        started.set()
        return block(1)

    other = pool.submit(other_block)
    while not started.wait(0.01):
        if other.done():
            other.result()
            raise RuntimeError("the pool finished block 1 without running it")
    try:
        here = block(0)
    finally:
        there = other.result()
    return [here, there]


class Stepper:
    """The stepping of one field: the field, its bound runs, the losses and the join.

    ``x_blocks`` and ``y_blocks`` are the two blocks of each sweep's runs,
    the x runs as ``(lines, LineSolve)`` pairs and the y runs as
    ``LinePhase``s.  Construction makes the field, sets it to ``psi``,
    makes the vector of ``n_losses`` losses when there are any, and binds
    every run to its lines of the field, so every check has run before a
    step.  ``advance(steps)`` makes that many steps: the explicit y half
    of the state, then each step the x phase, the y phase with its
    explicit half on every step but the last, and, with losses, the
    addition of their sum times ``area`` to ``absorbed``, which starts at
    ``absorbed``.  The field holds the state after each ``advance``.

    Given ``pool``, an executor with a worker to spare, ``_on_both`` puts
    block 1's share on it and runs block 0's here once block 1's has
    begun.  On the C kernel, ``tridiag_steps`` makes a whole ``advance`` in
    one call per thread, and the two calls meet at a join of the kernel's
    after each phase; without a pool, a single call here steps both
    blocks.  Each block's runs are laid out once, as the kernel reads
    them.  Where there is no kernel, each phase is one call per run, and
    each phase's two blocks go through ``_on_both`` the same way.  Either
    way the result is the same to the bit.
    """

    def __init__(self, psi: np.ndarray, x_blocks, y_blocks, n_losses: int, area: float,
                 absorbed: float):
        self.field = field = Field(x_blocks[0][0][1], *psi.shape)
        field.write(psi)
        self.loss = np.empty(n_losses) if n_losses else None
        # a block's runs take turns on one thread, so they share its scratch
        lib, cells = field._lib, max(field.shape)
        size = None if lib is None else lib.tridiag_scratch(cells, cells)
        scratch = [None if size is None else np.empty(size) for _ in x_blocks]
        self._x = [
            [solve.bind(field, lines, scratch[k]) for lines, solve in block]
            for k, block in enumerate(x_blocks)
        ]
        self._y = [
            [phase.bind(field, self.loss, scratch[k]) for phase in block]
            for k, block in enumerate(y_blocks)
        ]
        self._area, self._absorbed = area, ctypes.c_double(absorbed)
        if lib is None:
            return
        # both blocks' runs, block 0's first; block 1's start where block 0's end
        runs = [
            (kind * sum(map(len, blocks)))(*(bound.run for block in blocks for bound in block))
            for kind, blocks in ((_XRun, self._x), (_YRun, self._y))
        ]
        self._runs, self._join = runs, (ctypes.c_int * 2)()  # the kernel reads both
        xs, ys = (ctypes.addressof(r) for r in runs)
        n_x, n_y = (len(r) for r in runs)
        n_x0, n_y0 = len(self._x[0]), len(self._y[0])
        loss = (0, None) if self.loss is None else (self.loss.size, self.loss.ctypes.data)
        tail = (area, ctypes.addressof(self._absorbed), ctypes.addressof(self._join))
        self._inline = (n_x, xs, n_y, ys, *loss, *tail, 1)
        # block 0's thread sums the losses
        self._blocks = (
            (n_x0, xs, n_y0, ys, *loss, *tail, 2),
            (n_x - n_x0, xs + n_x0 * ctypes.sizeof(_XRun),
             n_y - n_y0, ys + n_y0 * ctypes.sizeof(_YRun), 0, None, *tail, 2),
        )

    @property
    def absorbed(self) -> float:
        return self._absorbed.value

    def advance(self, steps: int, pool: Executor | None = None) -> None:
        """Makes ``steps`` steps, block 1's share on ``pool`` when given."""
        lib = self.field._lib
        if lib is None:
            self._zgttrs(steps, pool)
            return
        head = (*self.field.shape, self.field.data.ctypes.data, steps)
        if pool is None:
            lib.tridiag_steps(*head, *self._inline)
        else:
            _on_both(pool, lambda k: lib.tridiag_steps(*head, *self._blocks[k]))

    def _zgttrs(self, steps: int, pool: Executor | None) -> None:
        def phase(runs, *flags) -> None:
            def block(k: int) -> None:
                for call in runs[k]:
                    call(*flags)

            _on_both(pool, block)

        if steps:
            phase(self._y, False, True)
        for step in range(steps):
            phase(self._x, True)
            phase(self._y, True, step + 1 < steps)
            if self.loss is not None:
                # one sum over both blocks' losses keeps the summation order
                self._absorbed.value += float(np.sum(self.loss)) * self._area
