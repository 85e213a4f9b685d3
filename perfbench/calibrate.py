"""Host-speed probe for the finite-algebra workload; shares no code with povmlab.

The host these figures come from is shared: the speed of the same code
drifts by up to 20-30 % over minutes, CPU time drifts with wall time, and
the guest sees almost no steal time.  A finite-algebra round lasts about
0.1 s, so one run sees one phase of that drift.  The run times this probe,
small complex matrices and Python arithmetic like the rounds themselves,
after every round and scales its times by ``REFERENCE_S / probe``: the time
the round would have taken at the probe speed of a quiet host.  Over six
runs this cut the spread of the median round time from 0.19 to 0.04.

The slit workloads are not scaled: one 20-45 s round already averages the
drift, and a probe timed only before and after it widened their spread.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the reference host (perfbench/README.md) when quiet.
REFERENCE_S = 0.022

_rng = np.random.default_rng(0)
_SMALL = [_rng.normal(size=(3, 3)) + 1j * _rng.normal(size=(3, 3)) for _ in range(8)]


def probe() -> float:
    """Seconds one run of the probe takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(150):
        for m in _SMALL:
            h = m.conj().T @ m
            acc += float(np.linalg.eigvalsh(h).max()) + sum(abs(x) for x in h.ravel())
    return time.perf_counter() - t0
