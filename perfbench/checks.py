"""Output checks computed apart from povmlab.

Every check returns a list of failure messages; an empty list means the
output passed.  Expected values come from closed forms, from Born-rule and
operator products computed here with numpy, or from properties the method
must have.  Nothing here calls into povmlab.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy import stats

EXACT_TOL = 1e-12  # closed forms, Born-rule pmfs and hand products
MASS_TOL = 1e-9  # total probability of a grid pmf
CLOSURE_TOL = 1e-4  # |no_detection - absorbed| of a grid field
SUPERPOSITION_TOL = 1e-3  # total variation, branch 2 against the single openings
VISIBILITY_MARGIN = 0.2  # fringe visibility gap between branch 1 and branch 2
COMMUTE_GATE = 1e-10  # the product gate povmlab documents (measurement.COMMUTE_TOL)
# Threshold on the chi-square p-value over all bins of one histogram: the
# false-alarm rate of the whole histogram test, below 1e-6.
GOF_ALPHA = 1e-7
GOF_MIN_EXPECTED = 5.0


def normalize(value):
    """The JSON shape of a payload: tuples become lists."""
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    return value


def check_roundtrip(payload: dict, data: bytes) -> list[str]:
    if json.loads(data) != normalize(payload):
        return ["emitted JSON does not parse back to the in-memory result"]
    return []


def pmf_table(payload: dict) -> dict:
    """label -> ({outcome label: p}, no_detection) from a payload."""
    return {
        entry["label"]: ({o["label"]: o["p"] for o in entry["outcomes"]}, entry["no_detection"])
        for entry in payload["pmfs"]
    }


def compare_pmf(name: str, got, want, tol: float = EXACT_TOL) -> list[str]:
    """Compare ({label: p}, nd) pairs outcome by outcome."""
    probs, nd = got
    want_probs, want_nd = want
    if list(probs) != list(want_probs):
        return [f"{name}: outcomes {list(probs)} differ from {list(want_probs)}"]
    worst = max([abs(probs[x] - want_probs[x]) for x in probs] + [abs(nd - want_nd)])
    if not worst <= tol:
        return [f"{name}: off by {worst:.3e} (tolerance {tol:.0e})"]
    return []


# ------------------------------------------------------------- closed forms

_HALF = {"1": 0.5, "2": 0.5}
_PAIRS = ("(1, 1)", "(1, 2)", "(2, 1)", "(2, 2)")

CLOSED_FORMS = {
    "wheeler": {
        "pmfs": {
            "open-paths": (_HALF, 0.0),
            "closed-paths": ({"1": 0.0, "2": 1.0}, 0.0),
            "late-removal": (_HALF, 0.0),
        },
        "weak_values": {},
    },
    "hardy": {
        "pmfs": {
            "rotated-rotated": (dict(zip(_PAIRS, (9 / 16, 1 / 16, 1 / 16, 1 / 16))), 0.25),
            "rotated-path": (dict(zip(_PAIRS, (1 / 8, 1 / 2, 1 / 8, 0.0))), 0.25),
        },
        "weak_values": {"path-pair-given-rotated-(2,2)": [0.0, 1.0, 1.0, -1.0]},
    },
    "three-boxes": {
        "pmfs": {
            "filter": ({"1": 1 / 9, "2": 8 / 9}, 0.0),
            "boxes": ({"1": 1 / 3, "2": 1 / 3, "3": 1 / 3}, 0.0),
        },
        "weak_values": {"box-values-given-filter-pass": [1.0, 1.0, -1.0]},
    },
    "eraser": {
        "pmfs": {
            "erased": (_HALF, 0.0),
            # each marker slice accounts for half the mass
            "marked-plus": ({"1": 0.5, "2": 0.0}, 0.5),
            "marked-minus": ({"1": 0.0, "2": 0.5}, 0.5),
        },
        "weak_values": {},
    },
}


def check_closed_form(name: str, payload: dict) -> list[str]:
    want = CLOSED_FORMS[name]
    table = pmf_table(payload)
    failures = []
    if set(table) != set(want["pmfs"]):
        failures.append(f"{name}: pmf labels {sorted(table)} differ from {sorted(want['pmfs'])}")
    for label, expected in want["pmfs"].items():
        if label in table:
            failures += compare_pmf(f"{name}/{label}", table[label], expected)
    values = {w["label"]: w["values"] for w in payload["weak_values"]}
    for label, expected in want["weak_values"].items():
        got = values.get(label)
        if got is None or len(got) != len(expected):
            failures.append(f"{name}/{label}: missing or wrong length")
            continue
        worst = max(max(abs(v["re"] - e), abs(v["im"])) for v, e in zip(got, expected))
        if not worst <= EXACT_TOL:
            failures.append(f"{name}/{label}: off by {worst:.3e}")
    return failures


# --------------------------------------------------------------- Born rule


def born(effects: dict, state) -> tuple[dict, float]:
    """Probabilities <E_x> in a pure state (vector) or mixed state (matrix)."""
    state = np.asarray(state)
    if state.ndim == 1:
        probs = {x: float(np.real(state.conj() @ e @ state)) for x, e in effects.items()}
    else:
        probs = {x: float(np.real(np.trace(state @ e))) for x, e in effects.items()}
    return probs, 1.0 - sum(probs.values())


def labelled(pmf: tuple[dict, float]) -> tuple[dict, float]:
    probs, nd = pmf
    return {str(x): p for x, p in probs.items()}, nd


def eraser_expected(alpha1: complex, alpha2: complex, inner: dict | None) -> dict:
    """Erased and marker-sliced pmfs of the eraser state, by the Born rule."""
    f1, f2 = np.eye(2, dtype=complex)
    g1, g2 = (f1 + f2) / math.sqrt(2), (f1 - f2) / math.sqrt(2)
    if inner is None:
        inner = {1: np.outer(g1, g1.conj()), 2: np.eye(2) - np.outer(g1, g1.conj())}
    psi = alpha1 * np.kron(f1, f1) + alpha2 * np.kron(f2, f2)
    marks = {"marked-plus": np.outer(g1, g1.conj()), "marked-minus": np.outer(g2, g2.conj())}
    out = {"erased": labelled(born({y: np.kron(np.eye(2), e) for y, e in inner.items()}, psi))}
    for label, m in marks.items():
        out[label] = labelled(born({y: np.kron(m, e) for y, e in inner.items()}, psi))
    return out


def pull_back_expected(unitary: np.ndarray, effects: dict, state) -> tuple[dict, float]:
    pulled = {x: unitary.conj().T @ e @ unitary for x, e in effects.items()}
    return labelled(born(pulled, state))


# ------------------------------------------------------------ causal trees


def tree_children(parents: dict, node) -> list:
    return [t for t, p in parents.items() if p == node]


def hand_product(spec: dict, node=0) -> dict:
    """Recursive ordered product of a tree's observables, in ``node``'s frame.

    A node with children yields outcomes (own, child outcome, ...) with
    effect E_own @ U_c* F_c U_c @ ..., children in declaration order.
    """
    own = spec["effects"][node]
    kids = tree_children(spec["parents"], node)
    if not kids:
        return dict(own)
    parts = [own]
    for kid in kids:
        u = spec["unitaries"][kid]
        parts.append({o: u.conj().T @ e @ u for o, e in hand_product(spec, kid).items()})
    out = {}
    for combo in itertools.product(*[list(p) for p in parts]):
        acc = np.eye(spec["dim"], dtype=complex)
        for part, key in zip(parts, combo):
            acc = acc @ part[key]
        out[combo] = acc
    return out


def root_frame_effects(spec: dict) -> dict:
    """Every node's observable pulled back to the root: G_t* F G_t."""
    frames = {0: np.eye(spec["dim"], dtype=complex)}
    for t, p in spec["parents"].items():  # parents precede children
        frames[t] = spec["unitaries"][t] @ frames[p]
    return {
        t: {x: frames[t].conj().T @ e @ frames[t] for x, e in effects.items()}
        for t, effects in spec["effects"].items()
    }


def max_pair_commutator(spec: dict) -> float:
    """Largest commutator norm between effects of two different nodes."""
    pulled = root_frame_effects(spec)
    worst = 0.0
    for s, t in itertools.combinations(sorted(pulled), 2):
        for a in pulled[s].values():
            for b in pulled[t].values():
                worst = max(worst, float(np.linalg.norm(a @ b - b @ a, 2)))
    return worst


def check_realized_tree(spec: dict, outcomes, effect_of) -> list[str]:
    """Realized effects (``effect_of(outcome)``) against the hand product."""
    want = hand_product(spec)
    if list(outcomes) != list(want):
        return ["realized tree outcomes differ from the hand product"]
    worst = max(float(np.max(np.abs(effect_of(o) - e))) for o, e in want.items())
    if not worst <= EXACT_TOL:
        return [f"realized tree effect off by {worst:.3e}"]
    return []


def check_refused_tree(spec: dict) -> list[str]:
    worst = max_pair_commutator(spec)
    if not worst > COMMUTE_GATE:
        return [f"tree refused but no observable pair fails the gate (max commutator {worst:.3e})"]
    return []


# ------------------------------------------------------------- grid checks


def histogram_gof(probs: dict, nd: float, counts: dict) -> tuple[bool, float]:
    """Chi-square goodness of fit of shot counts to a pmf, all bins at once.

    Bins expecting fewer than GOF_MIN_EXPECTED shots are pooled into one.
    A count on an outcome of probability zero rejects outright.  Returns
    (passed, p-value).
    """
    expected = dict(probs)
    if nd > 0.0:
        expected["none"] = nd
    shots = sum(counts.values())
    if shots == 0:
        return True, 1.0
    if any(c > 0 and expected.get(x, 0.0) <= 0.0 for x, c in counts.items()):
        return False, 0.0
    big, pooled_obs, pooled_exp = [], 0, 0.0
    for x, p in expected.items():
        if p * shots >= GOF_MIN_EXPECTED:
            big.append((counts.get(x, 0), p * shots))
        else:
            pooled_obs += counts.get(x, 0)
            pooled_exp += p * shots
    if pooled_exp > 0.0:
        big.append((pooled_obs, pooled_exp))
    chi2 = sum((o - e) ** 2 / e for o, e in big)
    pvalue = float(stats.chi2.sf(chi2, max(len(big) - 1, 1)))
    return pvalue >= GOF_ALPHA, pvalue


def visibility(probs: dict, window, smooth: int) -> float:
    """(max - min)/(max + min) of a centered moving average over the window."""
    vals = np.array([probs.get(str(n), 0.0) for n in window], dtype=float)
    half = smooth // 2
    smoothed = np.array([vals[max(0, i - half): i + half + 1].mean() for i in range(len(vals))])
    hi, lo = smoothed.max(), smoothed.min()
    return float((hi - lo) / (hi + lo))


def superposition_distance(table: dict) -> float:
    """Total variation over strips: branch 2 against the single openings."""
    p2 = table["branch-2"][0]
    upper = table["upper-only"][0]
    lower = table["lower-only"][0]
    strips = {int(x) for x in set(p2) | set(upper) | set(lower)} - {0}
    return sum(
        abs(p2.get(str(n), 0.0) - (upper if n >= 1 else lower).get(str(n), 0.0))
        for n in strips
    )


def check_slit(payload: dict, both: bool) -> tuple[list[str], dict]:
    """Checks on a double-slit payload; returns (failures, facts to report)."""
    failures = []
    facts = {}
    table = pmf_table(payload)
    meta = payload["metadata"]
    for label, (probs, nd) in table.items():
        values = list(probs.values()) + [nd]
        if not all(0.0 <= p <= 1.0 for p in values):
            failures.append(f"{label}: probability outside [0, 1]")
        if not abs(sum(values) - 1.0) <= MASS_TOL:
            failures.append(f"{label}: total probability {sum(values):.12g}")
    for branch in ("1", "2") if both else ("1",):
        label = f"branch-{branch}"
        gap = abs(table[label][1] - meta[f"absorbed-{label}"])
        facts[f"closure-{label}"] = gap
        if not gap <= CLOSURE_TOL:
            failures.append(f"{label}: |no_detection - absorbed| = {gap:.3e}")
    stop, steps = meta["stop-branch-1"], meta["steps-branch-1"]
    facts["stop-branch-1"] = stop
    facts["steps-branch-1"] = steps
    if stop != "screen-mass-peak" or not steps < payload["parameters"]["max_steps"]:
        failures.append(f"branch 1 stopped by {stop} after {steps} steps")
    for label, counts in meta.get("histograms", {}).items():
        passed, pvalue = histogram_gof(*table[label], counts)
        facts[f"gof-pvalue-{label}"] = pvalue
        if not passed:
            failures.append(f"{label}: histogram fails goodness of fit (p = {pvalue:.3e})")
    for check in payload["identities"]:
        if check["name"].startswith("histogram-three-sigma-"):
            facts[check["name"]] = check["pass"]
    if both:
        tv = superposition_distance(table)
        facts["superposition-tv"] = tv
        if not tv <= SUPERPOSITION_TOL:
            failures.append(f"branch 2 differs from the single openings by {tv:.3e}")
        window, smooth = meta["window"], meta["smooth"]
        gap = visibility(table["branch-1"][0], window, smooth) - visibility(table["branch-2"][0], window, smooth)
        facts["visibility-gap"] = gap
        if not gap > VISIBILITY_MARGIN:
            failures.append(f"visibility gap {gap:.4f} does not exceed {VISIBILITY_MARGIN}")
        residual = meta["ordering-check"]["residual_norm"]
        facts["ordering-residual"] = residual
        if not residual > 0.0:
            failures.append("ordering-check residual is not above 0")
    return failures, facts
