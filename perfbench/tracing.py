"""Span tracing of povmlab's layers from outside the package.

``Tracer.install`` wraps every public function and method that a layer
module lists in ``__all__``.  A function is replaced in every povmlab
namespace that holds it, so a caller that imported it by name (as
``povmlab.scenarios`` imports ``detector_pmf``) reaches the wrapper too; a
method is replaced on its class.  Each call records a span ``[name, start,
end, parent, attrs]`` in memory; ``uninstall`` puts the originals back.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = ("operators", "measurement", "causality", "doubleslit", "scenarios", "serialize", "cli")

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self, production_cells: int = 0):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # grid size that separates production fields from the coarse
        # ordering-check grid when classifying Propagator.run spans
        self.production_cells = production_cells

    # -------------------------------------------------------------- spans

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs or {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        if error is not None:
            span[ATTRS]["error"] = error
        self._stack.pop()

    # ----------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str):
        tracer = self
        annotate = _ANNOTATORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer.close(index, type(err).__name__)
                raise
            if annotate is not None:
                annotate(tracer, tracer.spans[index][ATTRS], args, kwargs, result)
            tracer.close(index)
            return result

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "povmlab" or name.startswith("povmlab.")
        }
        for layer in LAYERS:
            mod = modules[f"povmlab.{layer}"]
            for public in mod.__all__:
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # re-exported from another layer
                if isinstance(obj, types.FunctionType):
                    traced = self._wrap(obj, f"{layer}.{public}")
                    for namespace in modules.values():
                        for key, value in list(vars(namespace).items()):
                            if value is obj:
                                self._replace(namespace, key, traced)
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(cls.__dict__.items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, types.FunctionType):
                self._replace(cls, attr, self._wrap(value, name))
            elif isinstance(value, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(value.__func__, name)))
            elif isinstance(value, staticmethod):
                self._replace(cls, attr, staticmethod(self._wrap(value.__func__, name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=str) + "\n")


def _annotate_run(tracer, attrs, args, kwargs, result):
    prop = args[0]
    steps = kwargs["steps"] if "steps" in kwargs else args[2]
    grid = prop.grid
    if grid.nx * grid.ny < tracer.production_cells:
        kind = "coarse"
    elif prop.potential.septum is None:
        kind = "open"
    else:
        kind = "separated"
    attrs["kind"] = kind
    attrs["steps"] = int(steps)
    attrs["cells"] = grid.nx * grid.ny


def _annotate_emit(tracer, attrs, args, kwargs, result):
    attrs["bytes"] = len(result)


_ANNOTATORS = {
    "doubleslit.Propagator.run": _annotate_run,
    "serialize.emit": _annotate_emit,
}


# ------------------------------------------------------------------ metrics

READOUT = {
    "doubleslit.detector_pmf", "doubleslit.which_way_mass",
    "doubleslit.fringe_visibility", "doubleslit.bin_indicator_expectation",
}
GRID_SETUP = {
    "doubleslit.init_packet", "doubleslit.build_potential",
    "doubleslit.momentum_expectation", "doubleslit.position_expectation",
}
SAMPLING = {"measurement.sample_pmf", "measurement.sample_outcomes"}
PRODUCTS = {"measurement.product_observable", "measurement.formal_product", "measurement.tensor_observable"}
GATED = {"causality.realize_sequential", "measurement.product_observable"}

PER_LAYER_UNITS = {
    "doubleslit.step_ms.open": "ms",
    "doubleslit.step_ms.separated": "ms",
    "doubleslit.step_ms.coarse": "ms",
    "doubleslit.steps": "count",
    "doubleslit.run_calls": "count",
    "doubleslit.useful_step_ratio": "ratio",
    "doubleslit.cell_steps_per_s": "1/s",
    "doubleslit.propagator_build_ms": "ms",
    "doubleslit.propagator_builds": "count",
    "doubleslit.mass_check_ms": "ms",
    "doubleslit.readout_ms": "ms",
    "doubleslit.setup_ms": "ms",
    "measurement.sample_ms": "ms",
    "measurement.povm_builds": "count",
    "measurement.povm_build_us": "us",
    "measurement.pmf_us": "us",
    "measurement.product_us": "us",
    "measurement.conditional_us": "us",
    "causality.realize_us": "us",
    "causality.pull_back_calls": "count",
    "causality.gate_refusals": "count",
    "operators.calls": "count",
    "operators.self_ms": "ms",
    "scenarios.self_ms": "ms",
    "serialize.emit_us": "us",
    "serialize.bytes": "bytes",
    "cli.main_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[list], rounds: int, useful_steps: int, overhead_s: float) -> dict:
    """Per-layer figures from the spans of ``rounds`` traced rounds.

    Counts, byte totals and ``*_ms`` totals of a layer are per round; ``*_us``
    figures, ``step_ms`` and ``propagator_build_ms`` are means per call.
    ``useful_steps`` is the step count the results' metadata reports for the
    production fields, summed over the traced rounds.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]

    def dur(i):
        return spans[i][END] - spans[i][START]

    def outermost(i, family):
        parent = spans[i][PARENT]
        return parent < 0 or spans[parent][NAME] not in family

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def select(names):
        return [i for n in names for i in by_name.get(n, [])]

    def total(names, family=None):
        family = family if family is not None else set(names)
        return sum(dur(i) for i in select(names) if outermost(i, family))

    runs = select(["doubleslit.Propagator.run"])
    step_ms = {}
    for kind in ("open", "separated", "coarse"):
        mine = [i for i in runs if spans[i][ATTRS]["kind"] == kind]
        steps = sum(spans[i][ATTRS]["steps"] for i in mine)
        step_ms[kind] = 1e3 * sum(dur(i) for i in mine) / steps if steps else 0.0
    production = [i for i in runs if spans[i][ATTRS]["kind"] != "coarse"]
    executed = sum(spans[i][ATTRS]["steps"] for i in production)
    cell_steps = sum(spans[i][ATTRS]["steps"] * spans[i][ATTRS]["cells"] for i in production)
    stepping = sum(dur(i) for i in production)

    def layer_self(layer):
        return sum(dur(i) - child[i] for i, s in enumerate(spans) if s[NAME].startswith(layer + "."))

    emits = [i for i in select(["serialize.emit"]) if outermost(i, {"serialize.emit"})]
    r = max(rounds, 1)
    values = {
        "doubleslit.step_ms.open": step_ms["open"],
        "doubleslit.step_ms.separated": step_ms["separated"],
        "doubleslit.step_ms.coarse": step_ms["coarse"],
        "doubleslit.steps": executed / r,
        "doubleslit.run_calls": len(runs) / r,
        "doubleslit.useful_step_ratio": useful_steps / executed if executed else 0.0,
        "doubleslit.cell_steps_per_s": cell_steps / stepping if stepping else 0.0,
        "doubleslit.propagator_build_ms": 1e3 * _mean(dur(i) for i in select(["doubleslit.Propagator.__init__"])),
        "doubleslit.propagator_builds": len(select(["doubleslit.Propagator.__init__"])) / r,
        "doubleslit.mass_check_ms": 1e3 * total(["doubleslit.WavePacket2D.mass_beyond"]) / r,
        "doubleslit.readout_ms": 1e3 * total(sorted(READOUT)) / r,
        "doubleslit.setup_ms": 1e3 * total(sorted(GRID_SETUP)) / r,
        "measurement.sample_ms": 1e3 * total(sorted(SAMPLING)) / r,
        "measurement.povm_builds": len(select(["measurement.Povm.__init__"])) / r,
        "measurement.povm_build_us": 1e6 * _mean(dur(i) for i in select(["measurement.Povm.__init__"])),
        "measurement.pmf_us": 1e6 * _mean(dur(i) for i in select(["measurement.outcome_pmf"])),
        "measurement.product_us": 1e6 * _mean(dur(i) for i in select(sorted(PRODUCTS))),
        "measurement.conditional_us": 1e6 * _mean(dur(i) for i in select(["measurement.conditional_formal_values"])),
        "causality.realize_us": 1e6 * _mean(dur(i) for i in select(["causality.realize_sequential"])),
        "causality.pull_back_calls": len(select(["causality.pull_back"])) / r,
        "causality.gate_refusals": sum(
            1 for i in select(sorted(GATED))
            if spans[i][ATTRS].get("error") == "NonCommuting" and outermost(i, GATED)
        ) / r,
        "operators.calls": sum(1 for s in spans if s[NAME].startswith("operators.")) / r,
        "operators.self_ms": 1e3 * layer_self("operators") / r,
        "scenarios.self_ms": 1e3 * layer_self("scenarios") / r,
        "serialize.emit_us": 1e6 * _mean(dur(i) for i in emits),
        "serialize.bytes": sum(spans[i][ATTRS]["bytes"] for i in emits) / r,
        "cli.main_ms": 1e3 * _mean(dur(i) for i in select(["cli.main"])),
        "trace.spans": len(spans) / r,
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
