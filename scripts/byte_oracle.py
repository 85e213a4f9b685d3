"""Print the sha256 of povmlab's deterministic outputs, one line each.

The JSON and CSV of the four finite scenarios and, with ``--slit``, the
JSON of the documented one-field double-slit command are the equivalence
oracle of a refactor: a change that keeps the numbers keeps every line.
Run it from anywhere; it imports ``povmlab`` from this checkout's ``src``::

    python3 scripts/byte_oracle.py            # about a second
    python3 scripts/byte_oracle.py --slit     # adds the slit run, 10-20 s
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from povmlab.cli import main  # noqa: E402

FINITE = ("eraser", "wheeler", "hardy", "three-boxes")
SLIT = ["doubleslit", "--branch", "1", "--k0", "4", "--dt", "0.016", "--sigma", "3", "--b", "14", "--seed", "1"]


def _digest(argv: list[str], out: Path) -> str:
    code = main(argv + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"povmlab {' '.join(argv)} exited {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def oracle(slit: bool) -> list[tuple[str, str]]:
    """(command, sha256) pairs, in a fixed order."""
    commands = [["scenario", name] + fmt for name in FINITE for fmt in ([], ["--csv"])]
    if slit:
        commands.append(SLIT)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        return [(" ".join(argv), _digest(argv, out)) for argv in commands]


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--slit", action="store_true", help="also hash the one-field double-slit JSON")
    args = parser.parse_args(argv)
    for command, digest in oracle(args.slit):
        print(f"{digest}  povmlab {command}")
    return 0


if __name__ == "__main__":
    raise SystemExit(cli())
