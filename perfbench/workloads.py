"""The three workloads: inputs made from a seed, and one round of operations.

A round is a fixed list of operations run back to back by one caller, each
waiting for the previous one (a closed loop with one client).  Every round
of a run repeats the same operations on the same inputs.  Inputs are plain
numbers and numpy arrays; povmlab objects are built inside the timed
operations, because building them is the program's work.

The program is reached through module attributes (``S.run_doubleslit``), so
a tracer that replaces those attributes sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from povmlab import causality as C
from povmlab import cli as CLI
from povmlab import errors as E
from povmlab import measurement as M
from povmlab import scenarios as S
from povmlab import serialize as SER

# Production grid, smaller travel: the packet starts 4.5 to the left of a
# slit plane placed at x = 24 and the screen sits 4 beyond it, so branch 1
# peaks after 350 steps instead of the default run's ~3125.
SLIT_BOTH = dict(
    branch="both", k0=3.0, dt=0.013, sigma=1.8, source_x=19.5, source_y=0.5,
    slit_x=24.0, b=28.0, hole_center=1.8, hole_width=1.2, septum_half_width=1.1,
    smooth=1,
)
# The documented command line on the default geometry, with a faster,
# coarser time step: 825 steps to the screen-mass peak.
SLIT_OPEN_FLAGS = ["--branch", "1", "--k0", "4", "--dt", "0.016", "--sigma", "3", "--b", "14"]

CANNED = {"wheeler": "run_wheeler", "hardy": "run_hardy", "three-boxes": "run_three_boxes", "eraser": "run_eraser"}


class OpFailure:
    """An operation that raised where it should have returned."""

    def __init__(self, kind: str, error: BaseException):
        self.kind = kind
        self.message = f"{kind}: {type(error).__name__}: {error}"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _timed_ops(ops, tracer):
    """Run (kind, callable) pairs in order; returns (latencies, outputs)."""
    latencies, outputs = [], []
    for kind, op in ops:
        span = tracer.open("bench.op", {"kind": kind}) if tracer else None
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as err:  # a program fault: count it and carry on
            out = OpFailure(kind, err)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        if not isinstance(out, OpFailure):
            latencies.append(elapsed)
        outputs.append(out)
    return latencies, outputs


# ------------------------------------------------------------- double slit


class SlitBoth:
    """One ``run_doubleslit(branch='both')`` call plus ``emit``."""

    name = "slit-both"
    fields = 4
    scaled = False  # see perfbench/calibrate.py

    def __init__(self, root: Path):
        self.root = root

    def make_inputs(self, seed: int) -> dict:
        return dict(SLIT_BOTH, seed=seed)

    @property
    def production_cells(self) -> int:
        d = S.DoubleSlitConfig()
        return d.nx * d.ny

    def run_round(self, inputs, tracer=None):
        def op():
            result = S.run_doubleslit(S.DoubleSlitConfig(**inputs))
            return result, SER.emit(result)

        return _timed_ops([("run_doubleslit", op)], tracer)

    def check(self, inputs, outputs, first, checks):
        """Check each run's emitted JSON; compare it with the result when there is one."""
        failures, facts = [], {}
        for out in outputs:
            if isinstance(out, OpFailure):
                continue
            result, data = out
            payload = json.loads(data)
            if result is not None:
                failures += checks.check_roundtrip(result.to_payload(), data)
            found, facts = checks.check_slit(payload, both=self.fields > 1)
            failures += found
            facts["digest"] = _digest(data)
            facts["grid-digest"] = grid_digest(payload)
        return failures, facts

    def useful_steps(self, outputs) -> int:
        return sum(
            useful_steps(json.loads(out[1]), self.fields)
            for out in outputs if not isinstance(out, OpFailure)
        )


class SlitOpen(SlitBoth):
    """``povmlab doubleslit --branch 1 ... --out PATH`` through ``cli.main``."""

    name = "slit-open"
    fields = 1

    def make_inputs(self, seed: int) -> list:
        out = self.root / ".perfbench" / f"slit-open-{seed}.json"
        out.parent.mkdir(exist_ok=True)
        return ["doubleslit", *SLIT_OPEN_FLAGS, "--seed", str(seed), "--out", str(out)]

    def run_round(self, inputs, tracer=None):
        path = Path(inputs[-1])

        def op():
            path.unlink(missing_ok=True)
            code = CLI.main(list(inputs))
            if code != 0:
                raise RuntimeError(f"povmlab exited with code {code}")
            return None, path.read_bytes()

        return _timed_ops([("cli.main", op)], tracer)


def useful_steps(payload: dict, fields: int) -> int:
    """Steps the metadata reports, summed over the production-grid fields.

    With branch 'both' the second branch and the two single-opening fields
    each run the shared step count recorded as steps-branch-2.
    """
    meta = payload["metadata"]
    return meta["steps-branch-1"] + (fields - 1) * meta.get("steps-branch-2", 0)


def grid_digest(payload: dict) -> str:
    """Digest of the seed-independent part: pmfs and metadata without shots."""
    meta = {k: v for k, v in payload["metadata"].items() if k != "histograms"}
    return _digest(json.dumps([payload["pmfs"], meta], sort_keys=True).encode())


# ---------------------------------------------------------- finite algebra


def _unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unit_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _density(rng, dim):
    vs = [_unit_vector(rng, dim) for _ in range(3)]
    w = rng.dirichlet(np.ones(3))
    return sum(wk * np.outer(v, v.conj()) for wk, v in zip(w, vs))


def _povm_effects(rng, dim, n, scale):
    """n random positive effects whitened to sum to ``scale`` times I."""
    raws = []
    for _ in range(n):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raws.append(z.conj().T @ z)
    w, v = np.linalg.eigh(sum(raws))
    root_inv = v @ np.diag(w**-0.5) @ v.conj().T
    return {x + 1: scale * (root_inv @ r @ root_inv) for x, r in enumerate(raws)}


def _tree_spec(rng, nodes, outcomes, clash, dim=3):
    """A random causal tree whose pulled-back observables share one eigenbasis.

    Node t's observable is G_t W D W* G_t*, with G_t the product of edge
    unitaries from the root and D diagonal, so every pull-back to the root
    is diagonal in the basis W and the tree is realizable.  A clashing tree
    gives its last node a randomly rotated basis instead.  The shape (node
    t hangs under (t - 1) // 2) and the clashing node are fixed, so the work
    of realizing or refusing a tree does not depend on the seed.
    """
    parents = {t: (t - 1) // 2 for t in range(1, nodes)}
    unitaries = {t: _unitary(rng, dim) for t in parents}
    frames = {0: np.eye(dim, dtype=complex)}
    for t, p in parents.items():
        frames[t] = unitaries[t] @ frames[p]
    basis = _unitary(rng, dim)
    odd = nodes - 1 if clash else -1
    effects = {}
    for t in range(nodes):
        w = basis @ _unitary(rng, dim) if t == odd else basis
        weights = rng.dirichlet(np.ones(outcomes), size=dim) * rng.uniform(0.9, 1.0, size=(dim, 1))
        effects[t] = {
            x + 1: frames[t] @ w @ np.diag(weights[:, x]) @ w.conj().T @ frames[t].conj().T
            for x in range(outcomes)
        }
    return {
        "dim": dim, "parents": parents, "unitaries": unitaries, "effects": effects,
        "clash": clash, "state": _unit_vector(rng, dim),
    }


def make_finite_ops(seed: int) -> list[dict]:
    """One round's operations, the same mix and order for every seed.

    8 canned drivers (each twice), 16 random erasers (half with a random
    inner observable), 7 pull-back pmfs (dims 2-8 with 2-4 outcomes, mixed
    states in even dimensions) and 16 causal trees (2-5 nodes x 2-3
    outcomes x realizable/clashing).  The seed draws the numbers, never the
    shapes.  The erasers, at about 1.1 ms, are the largest group, and about
    as many operations are faster as are slower than them, so the median
    latency falls inside one group of like operations instead of on the
    edge between two.
    """
    rng = np.random.default_rng(seed)
    ops = [{"kind": "driver", "name": name} for name in CANNED for _ in range(2)]
    for k in range(16):
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
        ops.append({
            "kind": "eraser",
            "alpha1": complex(math.cos(theta) * phases[0]),
            "alpha2": complex(math.sin(theta) * phases[1]),
            "inner": _povm_effects(rng, 2, 2, 1.0) if k % 2 else None,
        })
    for dim in range(2, 9):
        ops.append({
            "kind": "pull-back", "dim": dim,
            "effects": _povm_effects(rng, dim, 2 + dim % 3, rng.choice([1.0, 0.95])),
            "unitary": _unitary(rng, dim),
            "state": _density(rng, dim) if dim % 2 == 0 else _unit_vector(rng, dim),
        })
    for nodes in range(2, 6):
        for outcomes in (2, 3):
            for clash in (False, True):
                ops.append(dict(kind="tree", **_tree_spec(rng, nodes, outcomes, clash)))
    return ops


def _run_driver(spec):
    result = getattr(S, CANNED[spec["name"]])()
    return result, SER.emit(result), None


def _run_eraser(spec):
    inner = spec["inner"]
    observable = None if inner is None else M.Povm(tuple(inner), list(inner.values()))
    result = S.run_eraser(S.EraserSpec(spec["alpha1"], spec["alpha2"], observable))
    return result, SER.emit(result), None


def _state(vector_or_matrix):
    if vector_or_matrix.ndim == 1:
        return M.PureState(vector_or_matrix)
    return M.DensityOperator(vector_or_matrix)


def _run_pull_back(spec):
    effects = spec["effects"]
    povm = M.Povm(tuple(effects), list(effects.values()))
    pulled = C.pull_back(C.CausalMap(0, 1, spec["unitary"]), povm)
    pmf = M.outcome_pmf(pulled, _state(spec["state"]))
    result = S.ScenarioResult("pull-back", {"dim": spec["dim"]}, [("pulled-back", pmf)])
    return result, SER.emit(result), None


def _run_tree(spec):
    maps = {t: C.CausalMap(p, t, spec["unitaries"][t]) for t, p in spec["parents"].items()}
    observables = {t: M.Povm(tuple(e), list(e.values())) for t, e in spec["effects"].items()}
    tree = C.CausalTree(0, spec["parents"], maps, observables)
    params = {"nodes": len(observables), "dim": spec["dim"]}
    try:
        realized = C.realize_sequential(tree)
    except E.NonCommuting as err:
        refusal = {"first": str(err.first), "second": str(err.second), "norm": err.norm}
        result = S.ScenarioResult("causal-tree", params, [], metadata={"refused": refusal})
        return result, SER.emit(result), None
    pmf = M.outcome_pmf(realized, M.PureState(spec["state"]))
    result = S.ScenarioResult("causal-tree", params, [("realized", pmf)], metadata={"refused": None})
    return result, SER.emit(result), realized


RUNNERS = {"driver": _run_driver, "eraser": _run_eraser, "pull-back": _run_pull_back, "tree": _run_tree}


class FiniteAlgebra:
    """A seeded stream of finite-dimensional operations, each followed by emit."""

    name = "finite-algebra"
    production_cells = 0
    scaled = True  # times scaled by the host-speed probe, perfbench/calibrate.py

    def __init__(self, root: Path):
        self.root = root

    def make_inputs(self, seed: int) -> list[dict]:
        return make_finite_ops(seed)

    def run_round(self, inputs, tracer=None):
        return _timed_ops([(spec["kind"], lambda spec=spec: RUNNERS[spec["kind"]](spec)) for spec in inputs], tracer)

    def check(self, inputs, outputs, first, checks):
        """Full checks on the first round; later rounds must emit the same bytes."""
        failures = []
        if first is not None:
            for k, (out, ref) in enumerate(zip(outputs, first)):
                if isinstance(out, OpFailure) or isinstance(ref, OpFailure):
                    continue
                if out[1] != ref[1]:
                    failures.append(f"op {k} ({inputs[k]['kind']}): emitted bytes changed between rounds")
            return failures, {}
        refusals = 0
        for spec, out in zip(inputs, outputs):
            if isinstance(out, OpFailure):
                continue
            result, data, realized = out
            payload = result.to_payload()
            failures += checks.check_roundtrip(payload, data)
            failures += self._check_op(spec, payload, realized, checks)
            refusals += spec["kind"] == "tree" and realized is None
        return failures, {"ops-per-round": len(inputs), "tree-refusals-per-round": refusals,
                          "digest": _digest(b"".join(o[1] for o in outputs if not isinstance(o, OpFailure)))}

    @staticmethod
    def _check_op(spec, payload, realized, checks):
        kind = spec["kind"]
        table = checks.pmf_table(payload)
        if kind == "driver":
            return checks.check_closed_form(spec["name"], payload)
        if kind == "eraser":
            want = checks.eraser_expected(spec["alpha1"], spec["alpha2"], spec["inner"])
            return [f for label, w in want.items() for f in checks.compare_pmf(f"eraser/{label}", table[label], w)]
        if kind == "pull-back":
            want = checks.pull_back_expected(spec["unitary"], spec["effects"], spec["state"])
            return checks.compare_pmf("pull-back", table["pulled-back"], want)
        if realized is None:
            if not spec["clash"]:
                return ["a realizable tree was refused"]
            return checks.check_refused_tree(spec)
        if spec["clash"]:
            return ["a clashing tree was realized"]
        failures = checks.check_realized_tree(spec, realized.outcomes, realized.effect)
        effects = checks.hand_product(spec)
        want = checks.labelled(checks.born(effects, spec["state"]))
        return failures + checks.compare_pmf("tree", table["realized"], want)

    def useful_steps(self, outputs) -> int:
        return 0


WORKLOADS = {w.name: w for w in (SlitBoth, SlitOpen, FiniteAlgebra)}
