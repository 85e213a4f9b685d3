"""Print the sha256 of povmlab's deterministic outputs, one line each.

The JSON and CSV of the four finite scenarios and, with ``--slit``, the
JSON of the documented one-field double-slit command and of three coarse
``branch="both"`` runs are the equivalence oracle of a refactor: a change
that keeps the numbers keeps every line.  The both-branch run covers what
the one-field command does not: branch 2, the single-opening fields, the
ordering check and the geometry metadata.  The wedge run adds a V-shaped
splitter in front of the barrier, so most grid lines of each sweep differ
from their neighbours.  The walled run has both walls and a matched layer
on grid cells: at the coarse spacing of 0.6 the both-branch run's 0.3-thick
walls cover no cell centre, and the wedge run's 0.4 layer covers no cell
beside its separator.  Run it from anywhere; it imports ``povmlab`` from
this checkout's ``src``::

    python3 scripts/byte_oracle.py            # about a second
    python3 scripts/byte_oracle.py --slit     # adds the slit runs, 12-15 s
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from povmlab.cli import main  # noqa: E402
from povmlab.scenarios import DoubleSlitConfig, run_doubleslit  # noqa: E402
from povmlab.serialize import emit  # noqa: E402

FINITE = ("eraser", "wheeler", "hardy", "three-boxes")
SLIT = ["doubleslit", "--branch", "1", "--k0", "4", "--dt", "0.016", "--sigma", "3", "--b", "14", "--seed", "1"]
# a coarse run of all four fields and the ordering check, a few seconds
SLIT_BOTH = dict(
    branch="both", nx=128, ny=96, dt=0.05, max_steps=500,
    k0=2.0, sigma=3.0, b=8.0, shots=2000, seed=5,
    source_x=-12.0, hole_center=3.0, hole_width=5.0, septum_half_width=0.4,
)
# the same run with a thick splitter climbing from the axis to the inner hole
# edges: 7 distinct x lines and 9 distinct y lines, runs across the block cuts
SLIT_WEDGE = dict(SLIT_BOTH, hole_center=4.5, hole_width=3.0, wall_thickness=0.6, wedge_apex_x=-6.0)
# walls that cover cells: 172 barrier cells, 298 with the separator, 252
# matched-layer cells, and a stop at the screen-mass peak
SLIT_WALLED = dict(
    SLIT_BOTH, hole_center=4.5, hole_width=3.0, wall_thickness=0.6,
    septum_half_width=2.0, source_x=-6.0,
)


def _digest(argv: list[str], out: Path) -> str:
    code = main(argv + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"povmlab {' '.join(argv)} exited {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def oracle(slit: bool) -> list[tuple[str, str]]:
    """(what was run, sha256) pairs, in a fixed order."""
    commands = [["scenario", name] + fmt for name in FINITE for fmt in ([], ["--csv"])]
    if slit:
        commands.append(SLIT)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        lines = [("povmlab " + " ".join(argv), _digest(argv, out)) for argv in commands]
    for fields in (SLIT_BOTH, SLIT_WEDGE, SLIT_WALLED) if slit else ():
        config = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        payload = emit(run_doubleslit(DoubleSlitConfig(**fields)))
        lines.append((f"run_doubleslit({config})", hashlib.sha256(payload).hexdigest()))
    return lines


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--slit", action="store_true", help="also hash the four double-slit JSONs")
    args = parser.parse_args(argv)
    for command, digest in oracle(args.slit):
        print(f"{digest}  {command}")
    return 0


if __name__ == "__main__":
    raise SystemExit(cli())
