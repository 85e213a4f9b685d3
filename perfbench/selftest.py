"""Show that each output check of the benchmark can fail.

    python3 perfbench/selftest.py            # finite checks and one slit-both run (~1 min)
    python3 perfbench/selftest.py --no-grid  # finite checks only (seconds)

Each case runs a check on a real output, which must pass, and on a
corrupted copy, which must fail.  Exits 1 if any case does not behave so.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import checks, workloads  # noqa: E402

SEED = 11
results = []


def case(name: str, clean: list, corrupted: list) -> None:
    ok = not clean and bool(corrupted)
    results.append(ok)
    detail = corrupted[0] if corrupted else "corruption was not detected"
    if clean:
        detail = f"clean output rejected: {clean[0]}"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")


def finite_cases() -> None:
    ops = workloads.make_finite_ops(SEED)
    outs = [workloads.RUNNERS[spec["kind"]](spec) for spec in ops]

    def first(pred):
        return next((spec, out) for spec, out in zip(ops, outs) if pred(spec, out))

    spec, (result, data, _) = first(lambda s, o: s.get("name") == "hardy")
    payload = result.to_payload()
    bad = copy.deepcopy(payload)
    bad["pmfs"][0]["outcomes"][0]["p"] += 1e-9
    case("hardy value off by 1e-9", checks.check_closed_form("hardy", payload),
         checks.check_closed_form("hardy", bad))
    bad = copy.deepcopy(payload)
    bad["weak_values"][0]["values"][3]["re"] += 1e-9
    case("hardy conditional value off by 1e-9", checks.check_closed_form("hardy", payload),
         checks.check_closed_form("hardy", bad))

    at = data.index(b'"p": ') + 5  # first digit of the first probability
    flipped = data[:at] + (b"1" if data[at:at + 1] == b"0" else b"0") + data[at + 1:]
    case("emitted JSON differs from the result", checks.check_roundtrip(payload, data),
         checks.check_roundtrip(payload, flipped))

    spec, (result, _, _) = first(lambda s, o: s["kind"] == "pull-back")
    table = checks.pmf_table(result.to_payload())
    want = checks.pull_back_expected(spec["unitary"], spec["effects"], spec["state"])
    probs, nd = table["pulled-back"]
    nudged = dict(probs, **{next(iter(probs)): probs[next(iter(probs))] + 1e-3})
    case("pull-back pmf entry nudged by 1e-3", checks.compare_pmf("pull-back", table["pulled-back"], want),
         checks.compare_pmf("pull-back", (nudged, nd), want))

    spec, (result, _, _) = first(lambda s, o: s["kind"] == "eraser")
    table = checks.pmf_table(result.to_payload())
    want = checks.eraser_expected(spec["alpha1"], spec["alpha2"], spec["inner"])
    case("eraser slices swapped",
         checks.compare_pmf("eraser", table["marked-plus"], want["marked-plus"]),
         checks.compare_pmf("eraser", table["marked-minus"], want["marked-plus"]))

    spec, (_, _, realized) = first(lambda s, o: s["kind"] == "tree" and o[2] is not None and len(s["parents"]) > 2)
    some = realized.outcomes[len(realized.outcomes) // 2]

    def off(outcome):
        return realized.effect(outcome) + (1e-8 if outcome == some else 0.0)

    case("tree effect off by 1e-8", checks.check_realized_tree(spec, realized.outcomes, realized.effect),
         checks.check_realized_tree(spec, realized.outcomes, off))

    clash, _ = first(lambda s, o: s["kind"] == "tree" and s["clash"])
    case("refusal of a commuting tree", checks.check_refused_tree(clash),
         checks.check_refused_tree(spec))


def grid_cases() -> None:
    root = workloads.SlitBoth(ROOT)
    _, outputs = root.run_round(root.make_inputs(SEED))
    payload = json.loads(outputs[0][1])

    def slit(p):
        return checks.check_slit(p, both=True)[0]

    clean = slit(payload)

    bad = copy.deepcopy(payload)
    strip = next(o for o in bad["pmfs"][0]["outcomes"] if o["p"] > 1e-3)
    strip["p"] += 1e-3
    case("branch-1 strip nudged by 1e-3", clean, slit(bad))

    bad = copy.deepcopy(payload)
    for entry in bad["pmfs"]:
        entry["label"] = {"branch-1": "branch-2", "branch-2": "branch-1"}.get(entry["label"], entry["label"])
    case("branch pmfs swapped", clean, slit(bad))

    bad = copy.deepcopy(payload)
    probs, nd = checks.pmf_table(payload)["branch-2"]
    labels = list(probs) + ["none"]
    weights = np.array(list(probs.values()) + [nd])
    shots = sum(payload["metadata"]["histograms"]["branch-1"].values())
    counts = np.random.default_rng(SEED).multinomial(shots, weights / weights.sum())
    bad["metadata"]["histograms"]["branch-1"] = {x: int(c) for x, c in zip(labels, counts) if c}
    case("branch-1 histogram drawn from the branch-2 pmf", clean, slit(bad))

    bad = copy.deepcopy(payload)
    upper = next(e for e in bad["pmfs"] if e["label"] == "upper-only")["outcomes"]
    strips = [o for o in upper if o["label"] != "0" and o["p"] > 1e-3][:2]
    strips[0]["p"] -= 1e-3
    strips[1]["p"] += 1e-3
    case("upper-only mass moved 1e-3 between two strips", clean, slit(bad))

    bad = copy.deepcopy(payload)
    bad["metadata"]["stop-branch-1"] = "step-cap"
    case("branch 1 stopped by the step cap", clean, slit(bad))

    bad = copy.deepcopy(payload)
    bad["metadata"]["ordering-check"]["residual_norm"] = 0.0
    case("ordering residual of zero", clean, slit(bad))

    bad = copy.deepcopy(payload)
    bad["metadata"]["absorbed-branch-2"] += 2e-4
    case("absorbed mass off by 2e-4", clean, slit(bad))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--no-grid", action="store_true", help="skip the slit-both run")
    args = parser.parse_args()
    finite_cases()
    if not args.no_grid:
        grid_cases()
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
