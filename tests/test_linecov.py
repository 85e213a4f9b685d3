import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "linecov.py"


@pytest.fixture(scope="module")
def linecov():
    spec = importlib.util.spec_from_file_location("linecov", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowed_line_occurs_once_in_its_file(linecov):
    # an entry must name one line, so a moved or reworded line drops out of the list
    for name, text, reason in linecov.ALLOWED:
        lines = [line.strip() for line in (linecov.PACKAGE / name).read_text().splitlines()]
        assert lines.count(text) == 1, (name, text)
        assert reason.strip(), (name, text)


# runs traced: refuses an empty vector on a thread, then starts an
# interpreter of its own, which refuses a rectangular operator
PARENT = """
import subprocess, sys, threading
from povmlab import operators as op
from povmlab.errors import DimensionMismatch

def refuse(coerce, entries):
    try:
        coerce(entries)
    except DimensionMismatch:
        pass

thread = threading.Thread(target=refuse, args=(op.as_vector, []))
thread.start()
thread.join()
subprocess.run([sys.executable, "-c", sys.argv[1]], check=True)
"""
CHILD = """
from povmlab import operators as op
from povmlab.errors import DimensionMismatch

try:
    op.as_operator([[1, 2, 3]])
except DimensionMismatch:
    pass
"""


def test_the_tracer_sees_threads_and_child_processes(linecov, tmp_path):
    pid, status, output = linecov.traced_run(["-c", PARENT, CHILD], tmp_path)
    assert status == 0, output
    text = (linecov.PACKAGE / "operators.py").read_text().splitlines()

    def refusal(fragment: str) -> int:
        (line,) = [n for n, t in enumerate(text, 1) if "raise" in t and fragment in t]
        return line

    vector, operator = refusal("nonempty 1-d vector"), refusal("square operator")
    commutator = refusal("operator dims")
    unrun = dict(linecov.unrun_lines(linecov.ran_lines(tmp_path))["operators.py"])
    unrun_first = dict(linecov.unrun_lines(linecov.ran_lines(tmp_path, pid))["operators.py"])
    # the thread's refusal ran in the first process, the operator's only in
    # the child, and nothing ran the commutator's
    assert vector not in unrun_first and vector not in unrun
    assert operator in unrun_first and operator not in unrun
    assert commutator in unrun
