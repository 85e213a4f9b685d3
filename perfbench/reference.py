"""Reference figures for perfbench/README.md.

    python3 perfbench/reference.py          # layer figures, about a minute
    python3 perfbench/reference.py --full   # plus one default run_doubleslit() (minutes)

Prints one JSON object: ms per ADI step per potential kind, Propagator
build cost, finite driver latencies and, with --full, the wall time and
step counts of the default double-slit run.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from povmlab import doubleslit as D  # noqa: E402
from povmlab import scenarios as S  # noqa: E402

STEPS = 100


def _timed(fn, repeat: int) -> list[float]:
    out = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def layer_figures() -> dict:
    c = S.DoubleSlitConfig()
    grid = D.Grid2D(c.nx, c.ny, c.lx, c.ly)
    params = D.PhysicalParams(k0=c.k0, sigma=c.sigma, delta=c.delta, b=c.b)
    geometry = D.SlitGeometry(
        slit_x=c.slit_x, hole_center=c.hole_center, hole_width=c.hole_width,
        wall_thickness=c.wall_thickness, septum_half_width=c.septum_half_width,
        septum_strength=c.septum_strength,
    )
    packet = D.init_packet(grid, params, (c.source_x, c.source_y))
    sponge = D.SpongeConfig(c.sponge_width, c.sponge_strength)
    kinds = {
        "open": D.build_potential(grid, params, 1, geometry),
        "separated": D.build_potential(grid, params, 2, geometry),
    }
    out = {}
    for kind, potential in kinds.items():
        builds = _timed(lambda: D.Propagator(potential, c.dt, sponge=sponge), 5)
        prop = D.Propagator(potential, c.dt, sponge=sponge)
        steps = _timed(lambda: prop.run(packet, STEPS), 3)
        out[f"build_ms_{kind}"] = 1e3 * statistics.median(builds)
        out[f"step_ms_{kind}"] = 1e3 * statistics.median(steps) / STEPS
    drivers = {name: getattr(S, fn) for name, fn in
               (("wheeler", "run_wheeler"), ("hardy", "run_hardy"),
                ("three-boxes", "run_three_boxes"), ("eraser", "run_eraser"))}
    for name, fn in drivers.items():
        out[f"driver_ms_{name}"] = 1e3 * statistics.median(_timed(fn, 200))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true", help="also time one default run_doubleslit()")
    args = parser.parse_args()
    figures = {"python": platform.python_version(), "machine": platform.machine()}
    figures.update(layer_figures())
    if args.full:
        t0 = time.perf_counter()
        result = S.run_doubleslit()
        figures["default_run_s"] = time.perf_counter() - t0
        figures["default_run_steps"] = {
            k: v for k, v in result.metadata.items() if k.startswith(("steps-", "stop-"))
        }
    print(json.dumps(figures, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
