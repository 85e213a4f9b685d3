"""The grid's line arithmetic on many lines at once: a C kernel, or ``zgttrs`` and numpy.

``LineSolve`` factors one line's matrix with LAPACK's ``zgttrf`` and
solves with the factors on every line of a view.  ``LinePhase`` is the
rest of a y phase around such a solve: ``2u - w``, the edge damping and
its losses, and the next step's explicit half.  Each has two backends
that give the same bits under one view contract: the C kernel in
``_tridiag.c``, which copies each group of 16 lines into planar scratch
and works on all of them at once in vector lanes, and LAPACK's
``zgttrs`` with numpy on real and imaginary parts, which runs only when
the kernel cannot be built or loaded.  ``bind`` allocates the kernel's
scratch, sized by the library's ``tridiag_scratch``, once per bound call,
so a step allocates nothing.  This is the only module that
imports SciPy, when the first ``LineSolve`` factors, and the only one
that knows which backend runs.

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
from pathlib import Path

import numpy as np

from .errors import StabilityViolation

SOURCE = Path(__file__).with_name("_tridiag.c")
# no fused multiply-add, no reassociation: the kernel rounds as its header states
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
ITEM = np.dtype(complex).itemsize
# lines per pass of the fallback's explicit half: a group and its
# temporaries stay in cache, which halved its time on a production run
FALLBACK_GROUP = 32

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
    pointers = [ctypes.c_void_p] * 5  # a LineSolve's factors
    view = [ctypes.c_int, ctypes.c_int, ctypes.c_ssize_t, ctypes.c_ssize_t]
    lib.tridiag_solve_lines.argtypes = view + pointers + [ctypes.c_void_p] * 3
    lib.tridiag_phase.argtypes = (
        view + pointers + [ctypes.c_void_p] * 3 + [ctypes.c_ssize_t] + [ctypes.c_void_p] * 4
        + [ctypes.c_int] * 2 + [ctypes.c_void_p] * 3
    )
    for entry in (lib.tridiag_solve_lines, lib.tridiag_phase):
        entry.restype = None
    lib.tridiag_scratch.argtypes = [ctypes.c_int] * 2
    lib.tridiag_scratch.restype = ctypes.c_size_t
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


def _view(lines: np.ndarray, n: int) -> tuple[int, int]:
    """``(step, ld)`` of a view that keeps the line contract, counting complex numbers."""
    rows, m = lines.shape
    along, across = lines.strides
    if rows != n or lines.dtype != complex or not lines.flags.writeable:
        raise ValueError("lines do not fit the factors")
    step, ld = along // ITEM, across // ITEM
    if along % ITEM or across % ITEM or not (
        ld == 1 and step >= m or step == 1 and ld >= n
    ):
        raise ValueError("lines need unit stride along or across them, without overlap")
    return step, ld


def _scratch(lib: ctypes.CDLL, n: int, lines: int) -> np.ndarray:
    """The planes a kernel entry works a group of ``lines`` lines of ``n`` cells in."""
    return np.empty(lib.tridiag_scratch(n, lines))


def _beside(other: np.ndarray, lines: np.ndarray) -> None:
    """Checks that ``other`` is laid out like ``lines`` and shares no memory with it."""
    if other.dtype != complex or other.shape != lines.shape or other.strides != lines.strides:
        raise ValueError("a second view must have the lines' shape and strides")
    if np.may_share_memory(other, lines):
        raise ValueError("a second view must not overlap the lines")


class LineSolve:
    """Solves with one line's tridiagonal matrix on every line of a view.

    The matrix has ``main`` on its diagonal, ``lower[i]`` at (i+1, i) and
    ``upper[i]`` at (i, i+1); its ``zgttrf`` factors are ``lu``.  ``lines``
    is a writeable complex view of shape ``(n, n_lines)``, one line per
    column, with unit stride across the lines (adjacent lines) or along
    them (contiguous lines), and no two lines overlapping.  The solve
    writes ``lines``: it solves them in place, or solves ``rhs``, a view of
    the same shape and strides that does not overlap them.  The C kernel
    reads and writes the views themselves; ``zgttrs``, where there is no
    kernel, solves a column-major copy, or ``lines`` itself when it is
    column-major and solved in place.

    ``bind`` checks the views once and returns the solve as a call without
    arguments, to repeat on whatever the views hold; calling the instance
    binds and solves once.
    """

    def __init__(self, lower: np.ndarray, main: np.ndarray, upper: np.ndarray):
        self._lib = kernel()
        self.lu = _factor_tridiagonal(lower, main, upper)  # the kernel reads these
        self._at = tuple(array.ctypes.data for array in self.lu)
        self._n = main.size

    def __call__(self, lines: np.ndarray, rhs: np.ndarray | None = None) -> None:
        self.bind(lines, rhs)()

    def bind(self, lines: np.ndarray, rhs: np.ndarray | None = None):
        """The solve into ``lines`` (from ``rhs``), its views checked, as a call without arguments."""
        step, ld = _view(lines, self._n)
        if rhs is None:
            rhs = lines
        else:
            _beside(rhs, lines)
        if self._lib is None:
            return functools.partial(self._zgttrs, lines, rhs)
        entry = self._lib.tridiag_solve_lines
        scratch = _scratch(self._lib, self._n, lines.shape[1])
        args = (
            self._n, lines.shape[1], step, ld, *self._at,
            rhs.ctypes.data, lines.ctypes.data, scratch.ctypes.data,
        )

        def solve(views=(lines, rhs, scratch)):  # the views outlive the call
            entry(*args)

        return solve

    def _zgttrs(self, lines: np.ndarray, rhs: np.ndarray) -> None:
        from scipy.linalg import lapack  # loaded by zgttrf

        b = np.asfortranarray(lines) if rhs is lines else np.array(rhs, order="F")
        lapack.zgttrs(*self.lu, b, overwrite_b=1)
        if b is not lines:
            lines[...] = b


class LinePhase:
    """A Crank-Nicolson phase on one run of lines: solve, damp, then the explicit half.

    With ``solve``, the phase sets ``z = A^-1 (2 z - w)`` on every line,
    ``A`` the matrix of ``solve``, then multiplies each damped cell by its
    ``damp`` and writes its loss, ``(re*re + im*im) * keep`` of the cell
    before damping, into ``loss[losses]``.  With ``explicit``, it then sets
    ``w = E z``, ``E`` the tridiagonal ``(lower, main, upper)`` of
    ``explicit``, laid out like ``LineSolve``'s and without terms across
    line ends.  ``z`` and ``w`` are views of ``lines`` lines under
    ``LineSolve``'s contract, laid out alike and not overlapping.  ``at``
    lists the damped cells, ascending, as ``j * n + i`` for line j's cell
    i, and ``loss`` is None or the ``n_losses`` entries that ``losses``
    slices.  Construction checks the damped cells and the slice, and
    ``bind`` the views, so the kernel writes only inside them.

    ``bind(z, w, loss)`` returns the phase as a call of ``(solve,
    explicit)``, to repeat on whatever the views hold.  The C kernel does
    it all in one call, line group by line group.  Where there is no
    kernel, numpy does the same arithmetic on real and imaginary parts
    around ``zgttrs``, so both give the same bits.
    """

    def __init__(
        self, solve: LineSolve, explicit: tuple, lines: int,
        at: np.ndarray, damp: np.ndarray, keep: np.ndarray, losses: slice, n_losses: int,
    ):
        n = solve._n
        lower, main, upper = (np.ascontiguousarray(d, dtype=complex) for d in explicit)
        if main.shape != (n,) or lower.shape != (n - 1,) or upper.shape != (n - 1,):
            raise ValueError("the explicit diagonals do not fit the factors")
        at = np.ascontiguousarray(at, dtype=np.intp)
        damp, keep = (np.ascontiguousarray(f, dtype=float) for f in (damp, keep))
        if at.ndim != 1 or damp.shape != at.shape or keep.shape != at.shape:
            raise ValueError("each damped cell needs one damping factor and one keep")
        if at.size and (at[0] < 0 or at[-1] >= n * lines or (np.diff(at) <= 0).any()):
            raise ValueError("damped cells must ascend inside the run's cells")
        if not (
            losses.step in (None, 1) and 0 <= losses.start <= losses.stop <= n_losses
            and losses.stop - losses.start == at.size
        ):
            raise ValueError("the run's losses do not fit the loss array")
        self._solve, self._lines, self._n_losses, self._losses = solve, lines, n_losses, losses
        self._explicit = (lower, main, upper)
        self._damping = (at, damp, keep)
        self._at = tuple(d.ctypes.data for d in (*self._explicit, *self._damping))

    def bind(self, z: np.ndarray, w: np.ndarray, loss: np.ndarray | None):
        """The phase on these views, checked, as a call of ``(solve, explicit)``."""
        n = self._solve._n
        step, ld = _view(z, n)
        _beside(w, z)
        if z.shape[1] != self._lines or not w.flags.writeable:
            raise ValueError("z and w must be the run's writeable lines")
        if loss is not None and not (
            loss.dtype == float and loss.shape == (self._n_losses,)
            and loss.flags.c_contiguous and loss.flags.writeable
        ):
            raise ValueError("loss must be a writeable float vector of every run's losses")
        lib = self._solve._lib
        if lib is None:
            return functools.partial(self._numpy, z, w, loss)
        entry = lib.tridiag_phase
        head = (
            n, self._lines, step, ld, *self._solve._at, *self._at[:3],
            self._damping[0].size, *self._at[3:],
            None if loss is None else loss.ctypes.data + self._losses.start * loss.itemsize,
        )
        scratch = _scratch(lib, n, self._lines)
        tail = (z.ctypes.data, w.ctypes.data, scratch.ctypes.data)

        def phase(solve: bool, explicit: bool, views=(z, w, loss, scratch)):  # they outlive the call
            entry(*head, solve, explicit, *tail)

        return phase

    def _numpy(self, z, w, loss, solve: bool, explicit: bool) -> None:
        """The kernel's arithmetic in numpy, on real and imaginary parts, around ``zgttrs``."""
        n = self._solve._n
        if solve:
            for part, source in ((z.real, w.real), (z.imag, w.imag)):
                part *= 2.0
                part -= source
            self._solve(z)
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
        for first in range(0, self._lines, FALLBACK_GROUP):
            group = slice(first, first + FALLBACK_GROUP)
            zr, zi = z[:, group].real, z[:, group].imag
            wr = mr * zr - mi * zi
            wi = mr * zi + mi * zr
            wr[:-1] += ur * zr[1:] - ui * zi[1:]
            wi[:-1] += ur * zi[1:] + ui * zr[1:]
            wr[1:] += lr * zr[:-1] - li * zi[:-1]
            wi[1:] += lr * zi[:-1] + li * zr[:-1]
            out = w[:, group]
            out.real, out.imag = wr, wi
