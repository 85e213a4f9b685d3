"""Run Tier-1 under a line tracer and print every line of ``src/povmlab`` it leaves unrun.

    python3 scripts/linecov.py          # Tier-1 traced: 1.5-3 minutes on a 2-vCPU VM

Every Python process of the run is traced: a ``sitecustomize`` on a
temporary directory put first on ``PYTHONPATH`` sets ``sys.settrace`` and
``threading.settrace`` at interpreter start, so the pytest process, its
pool threads and the probes it starts (``conftest.probe_env`` keeps that
path) all record the lines of ``src/povmlab`` they run, and each writes
them out at exit.  The executable lines are those of the line-number
tables, as ``trace._find_executable_linenos`` counts them.  The script
prints a table per file and every unrun line, and exits 1 if any unrun
line is not in ``ALLOWED``: each entry there is a file, the line's exact
text (stripped) and why no test can run it.  Standard library only; it
edits no test.  A test that fails only under the tracer (a wall-clock
bound, say) is reported, and changes nothing in the coverage.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "povmlab"
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]

# (file under src/povmlab, the line's stripped text, why no Tier-1 test runs it)
ALLOWED: list[tuple[str, str, str]] = []

# written into the temporary directory as sitecustomize.py; the two
# placeholders are the package directory and the directory for the records
SITECUSTOMIZE = """
import atexit, os, sys, threading

_PACKAGE, _OUT = {package!r}, {out!r}
_ran, _wanted = set(), {{}}


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    wanted = _wanted.get(name)
    if wanted is None:
        wanted = _wanted[name] = os.path.realpath(name).startswith(_PACKAGE + os.sep)
    return _line if wanted else None


def _write():
    lines = sorted(f"{{os.path.realpath(name)}}:{{line}}" for name, line in _ran)
    with open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "w") as out:
        out.write("\\n".join(lines))


atexit.register(_write)
threading.settrace(_call)
sys.settrace(_call)
"""


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` in its code objects' line tables, docstrings left out.

    Line 0 is left out too: it numbers a module's first instruction, which
    belongs to no source line and raises no trace event.
    """
    return set(trace._find_executable_linenos(str(path))) - {0}


def traced_run(args: list[str], out: Path) -> tuple[int, int, str]:
    """``python args`` in ``ROOT``, every Python process it starts traced into ``out``.

    Returns the first process's pid, its exit status and its output.
    """
    site = out / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(package=str(PACKAGE.resolve()), out=str(out))
    )
    paths = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    output, _ = proc.communicate()
    return proc.pid, proc.returncode, output


def ran_lines(out: Path, pid: int | None = None) -> set[tuple[str, int]]:
    """Every ``(resolved file, line)`` that the traced processes, or process ``pid``, ran."""
    ran = set()
    for record in out.glob("*.txt" if pid is None else f"{pid}.txt"):
        for entry in record.read_text().split():
            name, line = entry.rsplit(":", 1)
            ran.add((name, int(line)))
    return ran


def unrun_lines(ran: set[tuple[str, int]]) -> dict[str, list[tuple[int, str]]]:
    """Per file of the package, its executable lines that are not in ``ran``."""
    unrun = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name, text = str(path.resolve()), path.read_text().splitlines()
        missed = sorted(executable_lines(path) - {line for f, line in ran if f == name})
        unrun[path.name] = [(line, text[line - 1].strip()) for line in missed]
    return unrun


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        pid, status, output = traced_run(TIER1, Path(tmp))
        unrun, unrun_here = unrun_lines(ran_lines(Path(tmp))), unrun_lines(ran_lines(Path(tmp), pid))
    lines = output.splitlines()
    print("\n".join(["Tier-1 under the tracer:"] + [
        line for line in lines if line.startswith(("FAILED", "ERROR"))
    ] + lines[-1:]))
    if status != 0:
        print(f"Tier-1 failed under the tracer (pytest exit {status}); "
              "the coverage below counts every line the run reached")
    # the last column leaves out the probes: lines that only child processes run
    print(f"\n{'file':<16}{'lines':>7}{'run':>7}{'unrun':>7}{'unrun by pytest alone':>23}")
    total = [0, 0, 0]
    for name, missed in unrun.items():
        row = [len(executable_lines(PACKAGE / name)), len(missed), len(unrun_here[name])]
        total = [t + r for t, r in zip(total, row)]
        print(f"{name:<16}{row[0]:>7}{row[0] - row[1]:>7}{row[1]:>7}{row[2]:>23}")
    print(f"{'total':<16}{total[0]:>7}{total[0] - total[1]:>7}{total[1]:>7}{total[2]:>23}")
    allowed = {(name, text): reason for name, text, reason in ALLOWED}
    failing = 0
    for name, missed in unrun.items():
        for line, text in missed:
            reason = allowed.get((name, text))
            failing += reason is None
            note = "unrun" if reason is None else f"allowed: {reason}"
            print(f"src/povmlab/{name}:{line}: {text}    [{note}]")
    if failing:
        print(f"{failing} unrun lines are not allowed: test them, delete them, "
              "or give each a reason in ALLOWED")
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
