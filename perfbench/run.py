"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a povmlab checkout.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run first measures untraced rounds, then traced rounds, and reports the
per-layer figures and the tracing overhead.  Lines before the last one are
information for a reader.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("slit-both", "slit-open", "finite-algebra")
SETUP_SAMPLES = 5  # this process plus four fresh ones


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(name: str, seed: int):
    """Import povmlab from this checkout and make the workload's inputs.

    Returns (seconds taken, workload, inputs).
    """
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import povmlab

    if Path(povmlab.__file__).resolve().parent != ROOT / "src" / "povmlab":
        raise SystemExit(f"perfbench: povmlab was imported from {povmlab.__file__}, not this checkout")
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT)
    inputs = workload.make_inputs(seed)
    return time.perf_counter() - t0, workload, inputs


def measure(workload, inputs, seconds: float, checks, tracer=None) -> dict:
    """Repeat whole rounds while another one fits in ``seconds`` (at least one).

    A round is taken to last as long as the one before it.

    Outputs of the first round are checked in full; later rounds are
    compared with it.  Checks run with the tracer removed.  On a scaled
    workload the host-speed probe runs after every round.
    """
    from perfbench.calibrate import probe
    from perfbench.workloads import OpFailure

    walls, latencies, failures, facts = [], [], [], {}
    attempted = failed = useful = 0
    first = None
    probes = []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        lat, outputs = workload.run_round(inputs, tracer)
        walls.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
        if workload.scaled:
            probes.append(probe())
        latencies += lat
        attempted += len(outputs)
        errors = [o.message for o in outputs if isinstance(o, OpFailure)]
        failed += len(errors)
        if errors and not facts.get("errors"):
            facts["errors"] = errors[:5]
        found, round_facts = workload.check(inputs, outputs, first, checks)
        failures += found
        facts.update(round_facts)
        useful += workload.useful_steps(outputs)
        if first is None:
            first = outputs
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    return {
        "walls": walls, "latencies": latencies, "attempted": attempted, "failed": failed,
        "failures": failures, "facts": facts, "useful_steps": useful, "probes": probes,
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def setup_samples(args) -> list[float]:
    """Set up again in fresh processes: the import cost a new user pays."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def speed_scale(run: dict) -> float:
    """Factor to the reference host speed; 1 where the workload takes no probes."""
    from perfbench.calibrate import REFERENCE_S

    return REFERENCE_S / statistics.median(run["probes"]) if run["probes"] else 1.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "povmlab" / "__init__.py").is_file():
        print(f"perfbench: no povmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setup_s, workload, inputs = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    from perfbench import checks

    if args.trace:
        from perfbench.tracing import Tracer, layer_metrics

        plain = measure(workload, inputs, args.seconds / 2, checks)
        tracer = Tracer(workload.production_cells)
        traced = measure(workload, inputs, args.seconds / 2, checks, tracer)
        overhead = (
            statistics.median(traced["walls"]) * speed_scale(traced)
            - statistics.median(plain["walls"]) * speed_scale(plain)
        )
        metrics = layer_metrics(tracer.spans, len(traced["walls"]), traced["useful_steps"], overhead)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        runs = (plain, traced)
    else:
        run = measure(workload, inputs, args.seconds, checks)
        # times at the reference host speed; raw figures go to the info line
        scale = speed_scale(run)
        rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0
        samples = [setup_s] + setup_samples(args)
        lat = run["latencies"]
        raw = {
            "wall_s": statistics.median(run["walls"]),
            "ops_per_s": len(lat) / sum(run["walls"]),
            "op_p50_us": 1e6 * statistics.median(lat),
            "op_p99_us": 1e6 * percentile(lat, 0.99),
        }
        metrics = {
            "setup_s": metric(statistics.median(samples), "s"),
            "wall_s": metric(raw["wall_s"] * scale, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "ops_per_s": metric(raw["ops_per_s"] / scale, "1/s"),
            "op_p50_us": metric(raw["op_p50_us"] * scale, "us"),
            "op_p99_us": metric(raw["op_p99_us"] * scale, "us"),
        }
        run["facts"]["raw"] = raw
        run["facts"]["speed_scale"] = scale
        if workload.production_cells:
            # grid cells advanced per second, from the steps the results report
            cells = workload.production_cells * run["useful_steps"] / len(run["walls"])
            run["facts"]["cell_steps_per_s"] = cells / statistics.median(run["walls"])
        run["facts"]["setup_samples_s"] = samples
        run["facts"]["op_samples"] = len(lat)
        runs = (run,)

    failures = [f for r in runs for f in r["failures"]]
    for r in runs:
        print("info " + json.dumps({"rounds": len(r["walls"]), "round_walls_s": r["walls"][:8], **r["facts"]}, default=str))
    for f in failures[:20]:
        print("check failed: " + f)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
