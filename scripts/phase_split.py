"""Print the ns per cell of each piece of a double-slit step on the production grid.

    python3 scripts/phase_split.py                 # branch 1, 125 calls a piece
    python3 scripts/phase_split.py --branch 2 --calls 50

The pieces are the x phase (the solve and ``2u - w``), the y phase (the
solve, the edge damping and the next explicit half), the y phase's solve
alone (with the damping) and its explicit half alone, each over every run
of both line blocks of one field, called from this thread.  Each is timed
with and without the production sponge, by this thread's CPU time, so a
busy machine's other work stays out of it; a figure is the least time of
``--calls`` calls divided by the grid's cells.  The field is set to the
same random packet before every call.  It imports ``povmlab`` from this
checkout's ``src`` and reports the backend that ran, the C kernel or
``zgttrs``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from povmlab import _tridiag  # noqa: E402
from povmlab.doubleslit import Propagator, build_potential  # noqa: E402
from povmlab.scenarios import DoubleSlitConfig  # noqa: E402

# each piece: the sweep and the flags its runs are called with
PIECES = {
    "x phase": ("x", (True,)),
    "y phase": ("y", (True, True)),
    "y solve only": ("y", (True, False)),
    "y explicit only": ("y", (False, True)),
}


def split(prop: Propagator, psi: np.ndarray, calls: int) -> dict[str, float]:
    """The least ns per cell of each piece over ``calls`` calls."""
    first = prop._x_blocks[0][0][1]
    field = _tridiag.Field(first, *psi.shape)
    loss = np.empty(prop._n_damped) if prop._n_damped else None
    cells = max(psi.shape)
    lib = first._lib
    scratch = None if lib is None else np.empty(lib.tridiag_scratch(cells, cells))
    runs = {
        "x": [
            solve.bind(field, lines, scratch) for block in prop._x_blocks for lines, solve in block
        ],
        "y": [phase.bind(field, loss, scratch) for block in prop._y_blocks for phase in block],
    }
    figures = {}
    for name, (sweep, flags) in PIECES.items():
        best = None
        for _ in range(calls):
            field.write(psi)
            start = time.thread_time_ns()
            for run in runs[sweep]:
                run(*flags)
            spent = time.thread_time_ns() - start
            best = spent if best is None else min(best, spent)
        figures[name] = best / psi.size
    return figures


def positive_int(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {count}")
    return count


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--branch", type=int, choices=(1, 2), default=1)
    parser.add_argument("--calls", type=positive_int, default=125)
    args = parser.parse_args(argv)
    c = DoubleSlitConfig()
    grid = c.grid
    potential = build_potential(grid, c.params, args.branch, c.geometry)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=(grid.ny, grid.nx)) + 1j * rng.normal(size=(grid.ny, grid.nx))
    psi[potential.blocked] = 0.0
    columns = {}
    for label, sponge in {"no sponge": None, "sponge": c.sponge}.items():
        columns[label] = split(Propagator(potential, c.dt, sponge=sponge), psi, args.calls)
    backend = "C kernel" if _tridiag.kernel() is not None else "zgttrs"
    print(f"branch {args.branch}, {grid.nx}x{grid.ny}, {backend}, "
          f"least of {args.calls} calls, ns per cell")
    print(f"{'piece':<18}" + "".join(f"{label:>12}" for label in columns))
    for name in PIECES:
        print(f"{name:<18}" + "".join(f"{columns[label][name]:>12.2f}" for label in columns))


if __name__ == "__main__":
    main()
