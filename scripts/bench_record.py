"""Run perfbench on one or more checkouts and write one BENCH_<n>.json per checkout.

    python3 scripts/bench_record.py --first-seed 11 PARENT=BENCH_0.json .=BENCH_15.json

Each argument ``CHECKOUT=OUT`` names a povmlab checkout and the file its
record goes to, relative to the current directory.  The workloads and the
run length are those of ``BENCHMARK.json``.  Run ``i`` of a workload runs
``perfbench/run.py --workload W --seed FIRST_SEED+i --seconds S --trace 0``
of every checkout, each in a fresh process from the checkout's root, one
after another; the order of the checkouts flips from one run to the next.
So, across files, equal run indices are pairs run back to back at one
seed on one machine, and only such pairs compare: the same code has run
twice as fast on one 2-vCPU VM as on another.  There are ``RUNS`` pairs,
the ten a claimed gain needs.

Each checkout builds the C kernel into a cache of its own
(``XDG_CACHE_HOME`` at a temporary directory), never into the user's.
Before the pairs, every workload runs once per checkout, at the first
seed, on an empty cache.  That cold run pays the compile, and perfbench's
``peak_rss_mb`` counts the compiler child with about the benchmark
process's own peak, so its figures are kept apart from the pairs', which
run on a cache holding what the cold runs built.

A record holds the checkout's git sha, the machine (CPU model, core count,
L2 size) and library versions (Python, numpy, SciPy, its OpenBLAS, the C
compiler), every run's end-to-end metrics, digest and correctness, each
metric's best, median and interquartile range, the cold run, and the
hashes of ``scripts/byte_oracle.py --slit``, so a record pins bytes as
well as times.  The last lines of standard output compare the first
checkout with each other one, metric by metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="CHECKOUT=OUT")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    args.targets = [tuple(Path(p) for p in t.split("=", 1)) for t in args.targets]
    if any(len(t) != 2 for t in args.targets):
        parser.error("each target is CHECKOUT=OUT")
    return args


def _first_line(command: list[str]) -> str | None:
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=60, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip().splitlines()[0] if done.stdout.strip() else None


def machine() -> dict:
    """CPU, core count, L2 size and the versions of what the numbers depend on."""
    import numpy
    import scipy

    cpu = None
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    l2 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (index / "level").read_text().strip() == "2":
            l2 = (index / "size").read_text().strip()
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    return {
        "cpu_model": cpu,
        "cores": os.cpu_count(),
        "l2_per_core": l2,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cc": _first_line([*cc, "--version"]) if cc else None,
    }


def git_sha(checkout: Path) -> str | None:
    sha = _first_line(["git", "-C", str(checkout), "rev-parse", "HEAD"])
    dirty = _first_line(["git", "-C", str(checkout), "status", "--porcelain", "--untracked-files=no"])
    return None if sha is None else sha + ("+dirty" if dirty else "")


def _env(cache: Path) -> dict:
    return {**os.environ, "XDG_CACHE_HOME": str(cache)}


def oracle(checkout: Path, cache: Path) -> list[dict]:
    done = subprocess.run(
        [sys.executable, "scripts/byte_oracle.py", "--slit"],
        cwd=checkout, env=_env(cache), capture_output=True, text=True, timeout=1800, check=True,
    )
    return [
        {"sha256": digest, "command": command}
        for digest, command in (line.split("  ", 1) for line in done.stdout.strip().splitlines())
    ]


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, cache: Path) -> dict:
    """One perfbench run: its result object plus the digest of its info line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=_env(cache), capture_output=True, text=True, timeout=3600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {checkout} ({workload}, seed {seed}):\n{done.stderr}")
    result = json.loads(lines[-1])
    info = [json.loads(line[5:]) for line in lines if line.startswith("info ")]
    result["digest"] = info[0].get("digest") if info else None
    return result


def summary(values: list[float], better: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "best": min(values) if better == "lower" else max(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "values": values,
    }


def _values(run: dict) -> dict:
    return {name: m["value"] for name, m in run["metrics"].items()}


def record(runs: list[dict], seeds: list[int], better: dict, cold: dict) -> dict:
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "better": better[name],
                         **summary(values, better[name])}
    return {
        "seeds": seeds,
        "correct": [run["correct"] for run in runs],
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "digests": [run["digest"] for run in runs],
        "metrics": metrics,
        "cold": {
            "seed": seeds[0], "correct": cold["correct"], "failed": cold["failed"],
            "digest": cold["digest"], "metrics": _values(cold),
        },
    }


def compare(base: dict, other: dict, workload: str) -> list[str]:
    lines = []
    for name, b in base["metrics"].items():
        o = other["metrics"][name]
        sign = 1 if b["better"] == "lower" else -1
        wins = sum(sign * (x - y) > 0 for x, y in zip(b["values"], o["values"]))
        lines.append(
            f"{workload:15s} {name:12s} base median {b['median']:.6g} "
            f"(quartiles {b['q1']:.6g}-{b['q3']:.6g})  other median {o['median']:.6g} "
            f"(quartiles {o['q1']:.6g}-{o['q3']:.6g})  other better in {wins}/{len(b['values'])}"
        )
    lines.append(f"{workload:15s} cold run     base {json.dumps(base['cold']['metrics'])}")
    lines.append(f"{workload:15s} cold run     other {json.dumps(other['cold']['metrics'])}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = [args.first_seed + i for i in range(RUNS)]
    checkouts = [checkout for checkout, _ in args.targets]
    results = {checkout: {w: [] for w in workloads} for checkout in checkouts}
    cold = {checkout: {} for checkout in checkouts}
    with tempfile.TemporaryDirectory(prefix="bench-record-") as scratch:
        caches = {checkout: Path(scratch, str(k)) for k, checkout in enumerate(checkouts)}
        for workload in workloads:
            for k, checkout in enumerate(checkouts):
                cold_cache = Path(scratch, workload, str(k))
                run = perfbench(checkout, workload, seeds[0], seconds, cold_cache)
                cold[checkout][workload] = run
                print(f"cold {workload} {checkout}: {json.dumps(_values(run))}", flush=True)
                if cold_cache.exists():  # the pairs run on what the cold runs built
                    shutil.copytree(cold_cache, caches[checkout], dirs_exist_ok=True)
        for i, seed in enumerate(seeds):
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for workload in workloads:
                for checkout in order:
                    run = perfbench(checkout, workload, seed, seconds, caches[checkout])
                    results[checkout][workload].append(run)
                    print(f"run {i} {workload} {checkout}: {json.dumps(_values(run))}", flush=True)
        host = machine()
        records = {}
        for checkout, out in args.targets:
            records[checkout] = {
                "git_sha": git_sha(checkout),
                "machine": host,
                "settings": {
                    "runs": RUNS, "seconds": seconds, "trace": 0,
                    "checkout_order": "alternating, first checkout first on even runs",
                    "kernel_cache": "a cold run per workload on an empty cache, then the "
                                    "pairs on a cache holding what the cold runs built",
                },
                "workloads": {
                    w: record(results[checkout][w], seeds, better, cold[checkout][w])
                    for w in workloads
                },
                "oracle": oracle(checkout, caches[checkout]),
            }
            out.write_text(json.dumps(records[checkout], indent=1) + "\n")
    base = checkouts[0]
    for other in checkouts[1:]:
        for workload in workloads:
            print("\n".join(compare(records[base]["workloads"][workload],
                                    records[other]["workloads"][workload], workload)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
