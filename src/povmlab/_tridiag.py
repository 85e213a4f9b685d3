"""Tridiagonal solves on many grid lines at once: a C kernel, or ``zgttrs``.

``LineSolve`` factors one line's matrix with LAPACK's ``zgttrf`` and
applies the factors to every line of a view.  Its leaf solve has two
backends that give the same bits under one view contract: the C kernel in
``_tridiag.c``, which walks many lines in lockstep, and LAPACK's
``zgttrs``, which walks one line at a time and runs only when the kernel
cannot be built or loaded.  This is the only module that imports SciPy,
when the first ``LineSolve`` factors.

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
# no fused multiply-add, no reassociation: the kernel must round like zgtts2
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
ITEM = np.dtype(complex).itemsize

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
    entry = lib.tridiag_solve_lines
    entry.argtypes = [ctypes.c_int, ctypes.c_int] + [ctypes.c_ssize_t] * 2 + [ctypes.c_void_p] * 6
    entry.restype = None
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


class LineSolve:
    """Solves with one line's tridiagonal matrix, on every line of a view, in place.

    The matrix has ``main`` on its diagonal, ``lower[i]`` at (i+1, i) and
    ``upper[i]`` at (i, i+1); its ``zgttrf`` factors are ``lu``.  ``lines``
    is a writeable complex view of shape ``(n, n_lines)``, one line per
    column, with unit stride across the lines (adjacent lines) or along
    them (contiguous lines), and no two lines overlapping.  The C kernel
    solves the view itself; ``zgttrs``, where there is no kernel, solves a
    column-major copy, or the view itself when it is column-major.
    """

    def __init__(self, lower: np.ndarray, main: np.ndarray, upper: np.ndarray):
        self._lib = kernel()
        self.lu = _factor_tridiagonal(lower, main, upper)  # the kernel reads these
        self._at = tuple(array.ctypes.data for array in self.lu)
        self._n = main.size

    def __call__(self, lines: np.ndarray) -> None:
        n, m = lines.shape
        along, across = lines.strides
        if n != self._n or lines.dtype != complex or not lines.flags.writeable:
            raise ValueError("lines do not fit the factors")
        step, ld = along // ITEM, across // ITEM
        if along % ITEM or across % ITEM or not (
            ld == 1 and step >= m or step == 1 and ld >= n
        ):
            raise ValueError("lines need unit stride along or across them, without overlap")
        if self._lib is not None:
            self._lib.tridiag_solve_lines(n, m, step, ld, *self._at, lines.ctypes.data)
            return
        from scipy.linalg import lapack  # loaded by zgttrf

        b = np.asfortranarray(lines)
        lapack.zgttrs(*self.lu, b, overwrite_b=1)
        if b is not lines:
            lines[...] = b
