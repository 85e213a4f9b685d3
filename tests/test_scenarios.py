import cmath
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from collections import OrderedDict, namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmlab import scenarios
from povmlab.causality import CausalMap, CausalTree, pull_back, realize_sequential
from povmlab.cli import main
from povmlab.doubleslit import (
    DetectorBinning,
    Grid2D,
    PhysicalParams,
    Propagator,
    SpongeConfig,
    build_potential,
    detector_pmf,
    init_packet,
)
from povmlab.errors import EmptyWindow, InvalidAmplitudes, NonCommuting, ValidationError
from povmlab.measurement import DensityOperator, Povm, PureState, outcome_pmf
from povmlab.scenarios import (
    SCENARIO_NAMES,
    DoubleSlitConfig,
    EraserSpec,
    ScenarioResult,
    run_doubleslit,
    run_eraser,
    run_hardy,
    run_scenario,
    run_three_boxes,
    run_wheeler,
)
from povmlab.serialize import (
    emit,
    histogram_to_csv_bytes,
    pmf_to_csv_bytes,
    to_json_bytes,
)

from conftest import probe_env

TOL = 1e-12

# Small, fast double-slit configuration: coarse grid, big steps, openings
# widened so an appreciable share of the packet reaches the screen.  The
# source moves inward because the edge absorbers of the coarse grid reach
# deeper into the domain than at production resolution.
CHEAP = dict(
    branch="1", nx=128, ny=96, dt=0.05, max_steps=500,
    k0=2.0, sigma=3.0, b=8.0, shots=2000, seed=5,
    source_x=-12.0, hole_center=3.0, hole_width=5.0, septum_half_width=0.4,
)


@pytest.fixture(scope="module")
def cheap_run():
    return run_doubleslit(DoubleSlitConfig(**CHEAP))


# ----------------------------------------------------------- canned setups


def test_wheeler_splits_then_recombines():
    res = run_wheeler()
    open_pmf = res.pmf_named("open-paths")
    assert abs(open_pmf[1] - 0.5) <= TOL
    assert abs(open_pmf[2] - 0.5) <= TOL
    closed = res.pmf_named("closed-paths")
    assert abs(closed[1]) <= TOL
    assert abs(closed[2] - 1.0) <= TOL
    late = res.pmf_named("late-removal")
    assert all(abs(late[x] - open_pmf[x]) <= TOL for x in (1, 2))
    assert all(c.passed for c in res.identities)


def test_hardy_joint_distributions_carry_quarter_loss():
    res = run_hardy()
    gg = res.pmf_named("rotated-rotated")
    assert abs(gg[(1, 1)] - 9 / 16) <= TOL
    for pair in ((1, 2), (2, 1), (2, 2)):
        assert abs(gg[pair] - 1 / 16) <= TOL
    assert abs(gg.no_detection - 1 / 4) <= TOL
    gf = res.pmf_named("rotated-path")
    assert abs(gf[(1, 1)] - 1 / 8) <= TOL
    assert abs(gf[(1, 2)] - 1 / 2) <= TOL
    assert abs(gf[(2, 1)] - 1 / 8) <= TOL
    assert abs(gf[(2, 2)]) <= TOL
    assert abs(gf.no_detection - 1 / 4) <= TOL


def test_hardy_conditional_path_values():
    res = run_hardy()
    label, values = res.weak_values[0]
    assert "(2,2)" in label
    expected = [0.0, 1.0, 1.0, -1.0]
    assert max(abs(v.real - e) for v, e in zip(values, expected)) <= TOL
    assert max(abs(v.imag) for v in values) <= 1e-10
    assert all(c.passed for c in res.identities)


def test_three_boxes_rates_and_values():
    res = run_three_boxes()
    assert abs(res.pmf_named("filter")[1] - 1 / 9) <= TOL
    boxes = res.pmf_named("boxes")
    assert all(abs(boxes[k] - 1 / 3) <= TOL for k in (1, 2, 3))
    _, values = res.weak_values[0]
    assert max(abs(v - e) for v, e in zip(values, [1.0, 1.0, -1.0])) <= TOL
    # the joint assignment only exists formally: the product is rejected
    # and the conditioned pair measure is visibly non-hermitian
    assert res.identity("filter-box-product-rejected-gap").passed
    assert res.identity("conditioned-pair-measure-non-hermitian-gap").passed


def test_eraser_marked_slices_recompose_the_erased_pmf():
    res = run_eraser()
    erased = res.pmf_named("erased")
    plus = res.pmf_named("marked-plus")
    minus = res.pmf_named("marked-minus")
    for y in (1, 2):
        assert abs(erased[y] - plus[y] - minus[y]) <= TOL
    assert all(c.passed for c in res.identities)


def test_eraser_accepts_custom_amplitudes_and_observable():
    inner = Povm.from_vectors((1, 2), [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    spec = EraserSpec(alpha1=0.6, alpha2=0.8j, observable=inner)
    res = run_eraser(spec)
    assert res.parameters["alpha2"] == {"re": 0.0, "im": 0.8}
    assert res.metadata["inner_observable"] == "caller-supplied"
    # in the path basis the slices reproduce the squared amplitudes
    assert abs(res.pmf_named("erased")[1] - 0.36) <= TOL
    assert all(c.passed for c in res.identities)


def test_eraser_rejects_non_unit_amplitudes():
    with pytest.raises(InvalidAmplitudes):
        EraserSpec(alpha1=0.5, alpha2=0.5)


def test_run_scenario_dispatches_and_rejects_unknown_names():
    assert run_scenario("wheeler").scenario == "wheeler"
    assert run_scenario("eraser", spec=EraserSpec()).scenario == "eraser"
    for name in SCENARIO_NAMES:
        if name != "doubleslit":  # the grid run is covered on its own
            assert run_scenario(name).scenario == name
    with pytest.raises(ValidationError, match="three-boxes"):
        run_scenario("umbrella")
    # a keyword the scenario does not take is refused, not ignored
    with pytest.raises(ValidationError, match="sepc"):
        run_scenario("eraser", sepc=EraserSpec(alpha1=0.6, alpha2=0.8))
    with pytest.raises(ValidationError, match="config"):
        run_scenario("wheeler", config=42)
    with pytest.raises(ValidationError, match="spec"):
        run_scenario("doubleslit", spec=EraserSpec())


# ------------------------------------------------------- result containers


def test_result_lookup_helpers_raise_on_missing_labels():
    res = run_wheeler()
    with pytest.raises(ValidationError):
        res.pmf_named("no-such-table")
    with pytest.raises(ValidationError):
        res.histogram_named()
    with pytest.raises(ValidationError):
        res.identity("no-such-check")


def test_payload_lists_every_block_with_plain_types():
    payload = run_hardy().to_payload()
    assert set(payload) == {
        "scenario", "parameters", "pmfs", "weak_values", "identities", "metadata",
    }
    for table in payload["pmfs"]:
        assert set(table) == {"label", "outcomes", "no_detection"}
        total = sum(row["p"] for row in table["outcomes"]) + table["no_detection"]
        assert abs(total - 1.0) <= 1e-9
    for block in payload["weak_values"]:
        for entry in block["values"]:
            assert set(entry) == {"re", "im"}
    assert all(
        set(c) == {"name", "residual", "tol", "pass"} for c in payload["identities"]
    )


# --------------------------------------------------------------- double slit


def test_cheap_double_slit_reaches_the_screen(cheap_run):
    pmf = cheap_run.pmf_named("branch-1")
    assert pmf.no_detection <= 0.05
    assert cheap_run.metadata["stop-branch-1"] in ("mass-target", "screen-mass-peak")
    assert cheap_run.identity("norm-closure-branch-1").passed
    assert cheap_run.identity("histogram-three-sigma-branch-1").passed
    # single-branch runs have no visibility comparison
    assert "visibility" not in cheap_run.metadata


def test_double_slit_histograms_are_seeded(cheap_run):
    counts = cheap_run.histogram_named("branch-1")
    assert sum(counts.values()) == CHEAP["shots"]
    again = run_doubleslit(DoubleSlitConfig(**CHEAP))
    assert again.histogram_named("branch-1") == counts
    other = run_doubleslit(DoubleSlitConfig(**{**CHEAP, "seed": 6}))
    assert other.histogram_named("branch-1") != counts


# walls that cover cells at CHEAP's 0.6 spacing; the screen mass peaks
# below MASS_TARGET behind them
WALLED = dict(hole_center=4.5, hole_width=3.0, wall_thickness=0.6, septum_half_width=2.0)


@pytest.mark.parametrize(
    "walls, stop, stop_steps",
    [
        pytest.param({}, "mass-target", 300, id="cheap-mass-target"),
        pytest.param(WALLED, "screen-mass-peak", 350, id="walled-screen-mass-peak"),
    ],
)
def test_lockstep_fields_match_single_branch_runs(walls, stop, stop_steps):
    # branch 2 is stepped alongside branch 1 and must roll back with it
    # when the screen-mass peak is seen one chunk late
    cfg = {**CHEAP, **walls, "ordering_check": False}
    alone = run_doubleslit(DoubleSlitConfig(**cfg))
    both = run_doubleslit(DoubleSlitConfig(**{**cfg, "branch": "both"}))
    steps = alone.metadata["steps-branch-1"]
    assert steps == stop_steps
    assert alone.metadata["stop-branch-1"] == stop
    assert both.metadata["stop-branch-1"] == stop
    assert both.metadata["steps-branch-1"] == steps
    assert both.metadata["steps-branch-2"] == steps
    mine, theirs = both.pmf_named("branch-1"), alone.pmf_named("branch-1")
    assert mine.probabilities == theirs.probabilities
    assert mine.no_detection == theirs.no_detection

    # branch 2 equals the same field stepped alone for exactly `steps`
    grid = Grid2D(128, 96, 76.8, 57.6)
    params = PhysicalParams(k0=2.0, sigma=3.0, delta=0.6, b=8.0)
    geometry = DoubleSlitConfig(**cfg).geometry
    prop = Propagator(
        build_potential(grid, params, 2, geometry), 0.05, sponge=SpongeConfig(28, 6.0)
    )
    packet = prop.run(init_packet(grid, params, center=(-12.0, 1.3)), steps)
    separate = detector_pmf(packet, DetectorBinning(8.0, 0.6))
    assert both.pmf_named("branch-2").probabilities == separate.probabilities


def test_lockstep_chunks_keep_one_work_field_per_field():
    # three 25-step chunks on the production grid.  Each field's stepping
    # holds its work field, its runs' scratch and its losses across the
    # chunks; with the previous chunk's packets and the new ones the
    # traced peak stays under 8 production fields for both branches and
    # under 4 for branch 1 alone.  A second scratch set per field, or a
    # work field rebuilt beside the kept one, takes it past them
    c = DoubleSlitConfig(max_steps=75)
    potentials = [build_potential(c.grid, c.params, branch, c.geometry) for branch in (1, 2)]
    packet = init_packet(c.grid, c.params, center=(c.source_x, c.source_y))
    field = c.grid.nx * c.grid.ny * np.dtype(complex).itemsize
    Propagator(potentials[0], c.dt, sponge=c.sponge)  # SciPy's LAPACK and the kernel, untraced
    with ThreadPoolExecutor(2) as pool:
        for chosen, bound in ((potentials, 8), (potentials[:1], 4)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                packets, steps, reason = scenarios._propagate_lockstep(c, pool, chosen, packet)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (len(packets), steps, reason) == (len(chosen), 75, "step-cap")
            assert peak - before < bound * field, (len(chosen), (peak - before) / field)


def test_double_slit_config_validation():
    with pytest.raises(ValidationError):
        DoubleSlitConfig(branch="3")
    with pytest.raises(ValidationError):
        DoubleSlitConfig(shots=-1)
    with pytest.raises(ValidationError):
        DoubleSlitConfig(max_steps=0)
    # -1 too, although its branch seeds seed + 1 and seed + 2 are valid
    with pytest.raises(ValidationError):
        DoubleSlitConfig(seed=-1)
    # walls that touch the axis, when the config is built
    with pytest.raises(ValidationError, match="axis"):
        DoubleSlitConfig(hole_center=1.0)


def test_double_slit_config_rejects_an_empty_fringe_window():
    # raised before any field is stepped, not after the whole run
    with pytest.raises(EmptyWindow):
        DoubleSlitConfig(window_lo=0, window_hi=0, branch="both")
    with pytest.raises(EmptyWindow):
        DoubleSlitConfig(window_lo=-3, window_hi=-4)
    assert DoubleSlitConfig(window_lo=0, window_hi=1).window == [1]
    assert DoubleSlitConfig().window == [-10, -9, -8, -7, -6, -5, -4]


def test_double_slit_config_refuses_non_integral_window_and_smoothing(cheap_run):
    # once smooth=2.5 and smooth=-4 ran, smoothing over 3 bins and over 1
    # while the metadata recorded 2.5 and -4, and a float window end raised
    # a bare TypeError from range; a number that is not real is refused too
    refused = (("smooth", 2.5), ("window_lo", -10.5), ("window_hi", -4.0), ("smooth", "3"),
               ("dt", "0.05"), ("k0", None), ("wedge_apex_x", 1j))
    for name, value in refused:
        with pytest.raises(ValidationError, match=name):
            DoubleSlitConfig(**{name: value})
    with pytest.raises(ValidationError, match="smooth"):
        DoubleSlitConfig(smooth=-4)
    # numpy's integers pass, and 0 and 1 both mean no smoothing
    config = DoubleSlitConfig(window_lo=np.int64(-6), window_hi=np.int32(-2), smooth=np.uint8(0))
    assert config.window == [-6, -5, -4, -3, -2]
    assert DoubleSlitConfig(smooth=1).smooth == 1
    # numpy's numbers are kept as Python ints and floats, so the run emits
    # the Python-number run's bytes; each float32 here is exact in binary
    numpy_numbers = dict(
        nx=np.int64(128), ny=np.int64(96), max_steps=np.int64(500), shots=np.int32(2000),
        seed=np.int64(5), window_lo=np.int16(-10), window_hi=np.int64(-4), smooth=np.int64(3),
        dt=np.float64(0.05), septum_half_width=np.float64(0.4), k0=np.float32(2.0),
        sigma=np.float32(3.0), b=np.float32(8.0), source_x=np.float32(-12.0),
        hole_center=np.float32(3.0), hole_width=np.float32(5.0),
    )
    config = DoubleSlitConfig(**{**CHEAP, **numpy_numbers})
    assert all(type(getattr(config, k)) is type(v.item()) for k, v in numpy_numbers.items())
    assert emit(run_doubleslit(config)) == emit(cheap_run)


def test_every_setting_reaches_the_configs_objects():
    # each field of the grid, physics, walls and sponge is its setting or a
    # class constant; a hand copy of this mapping once dropped wedge_apex_x
    settings = dict(
        nx=96, ny=80, lx=40.0, ly=30.0, k0=3.5, sigma=2.5, delta=0.7, b=12.0, slit_x=-2.0,
        hole_center=4.0, hole_width=2.0, wall_thickness=0.5, wedge_apex_x=-5.0,
        septum_half_width=1.5,
    )
    c = DoubleSlitConfig(**settings)
    assert all(value != getattr(DoubleSlitConfig(), name) for name, value in settings.items())
    built = {f.name: getattr(b, f.name) for b in (c.grid, c.params, c.geometry, c.sponge)
             for f in fields(b)}
    assert built == dict(settings, seal_upper=False, seal_lower=False, width=c.sponge_width,
                         septum_strength=c.septum_strength, strength=c.sponge_strength)


def test_fixed_run_values_are_class_constants_not_fields():
    names = {f.name for f in fields(DoubleSlitConfig)}
    for name in ("septum_strength", "sponge_width", "sponge_strength"):
        assert name not in names
        with pytest.raises(TypeError):
            DoubleSlitConfig(**{name: getattr(DoubleSlitConfig, name)})
    # the stop rule's settings are the constants of povmlab.scenarios
    assert not names & {"check_interval", "peak_floor", "mass_target"}


# ------------------------------------------------------------- serialization


def test_json_emission_is_reproducible_and_sorted():
    a = emit(run_wheeler())
    b = emit(run_wheeler())
    assert a == b
    assert a.endswith(b"\n")
    payload = json.loads(a)
    assert payload["scenario"] == "wheeler"
    assert list(payload) == sorted(payload)


def test_json_rejects_unserializable_values():
    with pytest.raises(ValidationError):
        to_json_bytes({"bad": {1: "non-string key"}})
    with pytest.raises(ValidationError):
        to_json_bytes({"bad": object()})


def _reference_write_json(value, indent, out):
    """The JSON writer as first written, kept as the reference for its bytes."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        keys = sorted(value.keys())
        if any(not isinstance(k, str) for k in keys):
            raise ValidationError("JSON object keys must be strings")
        out.append("{\n")
        for i, k in enumerate(keys):
            out.append(pad + "  " + json.dumps(k) + ": ")
            _reference_write_json(value[k], indent + 1, out)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad + "  ")
            _reference_write_json(item, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(f"{float(value):.17g}")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    else:
        raise ValidationError(f"cannot serialize {type(value).__name__} deterministically")


def _json_outcome(writer, payload):
    """The bytes a writer emits for ``payload``, or the type it raises."""
    try:
        return writer(payload)
    except (ValidationError, TypeError) as err:
        return type(err)


def _reference_json_bytes(payload):
    out = []
    _reference_write_json(payload, 0, out)
    out.append("\n")
    return "".join(out).encode("utf-8")


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e-310, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False).map(np.float64),
    st.text(),
    st.sampled_from(["", "é", "snow \u2603", "\U0001f600", 'quote " and \\', "tab\tnewline\n\x00"]),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(0, 3)), inner, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=6), json_values, max_size=4))
def test_json_writer_emits_the_reference_bytes(payload):
    assert _json_outcome(to_json_bytes, payload) == _json_outcome(_reference_json_bytes, payload)


class _Label(str):
    pass


class _Count(int):
    pass


class _Real(float):
    pass


_Pair = namedtuple("_Pair", "first second")

# values the isinstance chain must place as the reference writer does:
# numpy scalars, bools, subclasses of str, int, float, dict and tuple
json_odd_values = st.recursive(
    st.one_of(
        json_leaves,
        st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.booleans().map(np.bool_),
        st.floats(width=32).map(np.float32),
        st.floats().map(np.float64),
        st.text(max_size=4).map(np.str_),
        st.text(max_size=4).map(_Label),
        st.integers().map(_Count),
        st.floats().map(_Real),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.tuples(inner, inner).map(lambda pair: _Pair(*pair)),
        st.dictionaries(st.text(max_size=4), inner, max_size=3).map(OrderedDict),
        st.dictionaries(st.text(max_size=4).map(_Label), inner, max_size=3),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=6), json_odd_values, max_size=4))
def test_json_writer_emits_the_reference_bytes_for_numpy_scalars_and_subclasses(payload):
    assert _json_outcome(to_json_bytes, payload) == _json_outcome(_reference_json_bytes, payload)


def test_pmf_csv_rows_sum_to_one_and_include_the_loss_row():
    res = run_eraser()
    data = pmf_to_csv_bytes(res.pmf_named("marked-plus")).decode()
    lines = data.strip().split("\n")
    assert lines[0] == "bin,probability"
    assert lines[-1].startswith("none,")
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert abs(total - 1.0) <= 1e-6


def test_histogram_csv_is_sorted_with_counts_preserved(cheap_run):
    counts = cheap_run.histogram_named("branch-1")
    lines = histogram_to_csv_bytes(counts).decode().strip().split("\n")
    assert lines[0] == "bin,count"
    numeric = [line.split(",") for line in lines[1:] if not line.startswith("none")]
    bins = [int(b) for b, _ in numeric]
    assert bins == sorted(bins)
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == CHEAP["shots"]


def test_emit_rejects_unknown_formats():
    with pytest.raises(ValidationError):
        emit(run_wheeler(), fmt="yaml")


# ---------------------------------------------------------------------- cli


def test_cli_writes_scenario_json_to_a_file(tmp_path):
    out = tmp_path / "eraser.json"
    assert main(["scenario", "eraser", "--json", "--out", str(out)]) == 0
    payload = json.loads(out.read_bytes())
    assert payload["scenario"] == "eraser"


def test_cli_csv_goes_to_stdout(capsysbinary):
    assert main(["scenario", "wheeler", "--csv"]) == 0
    data = capsysbinary.readouterr().out
    assert data.startswith(b"bin,probability\n")


def test_cli_runs_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["scenario", "hardy", "--out", str(first)]) == 0
    assert main(["scenario", "hardy", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_eraser_amplitude_flags(tmp_path):
    out = tmp_path / "custom.json"
    code = main([
        "scenario", "eraser", "--alpha1", "0.6", "--alpha2", "0,0.8",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_bytes())
    assert payload["parameters"]["alpha2"] == {"im": 0.8, "re": 0.0}


def test_cli_rejects_bad_requests(monkeypatch):
    assert main(["scenario", "umbrella"]) == 2
    assert main(["scenario", "wheeler", "--alpha1", "0.6"]) == 2
    assert main(["scenario", "eraser", "--alpha1", "nope"]) == 2
    assert main(["scenario", "eraser", "--alpha1", "1", "--alpha2", "1"]) == 2
    assert main(["doubleslit", "--branch", "3"]) == 2
    assert main(["doubleslit", "--shots", "-5"]) == 2
    # refused before any field is stepped, not by the sampler after the run
    built = []
    monkeypatch.setattr(scenarios, "Propagator", lambda *a, **k: built.append(a))
    argv = ["doubleslit", "--branch", "1", "--k0", "4", "--dt", "0.016", "--sigma", "3"]
    assert main(argv + ["--b", "14", "--shots", "10", "--seed", "-5"]) == 2
    assert built == []


def test_cli_maps_numeric_failures_to_exit_three():
    code = main([
        "doubleslit", "--branch", "1", "--nx", "128", "--ny", "96",
        "--k0", "2.0", "--sigma", "3.0", "--dt", "-1.0",
    ])
    assert code == 3


def test_cli_double_slit_flags_reach_the_config_and_the_parameters(tmp_path):
    flags = {
        "branch": "2", "nx": 128, "ny": 96, "dt": 0.05, "max_steps": 30,
        "k0": 2.5, "sigma": 3.5, "delta": 0.8, "b": 9.0, "shots": 700, "seed": 11,
    }
    defaults = DoubleSlitConfig()
    assert set(flags) == set(defaults.EXPOSED)
    assert all(value != getattr(defaults, name) for name, value in flags.items())
    out = tmp_path / "slit.json"
    argv = ["doubleslit", "--out", str(out)]
    for name, value in flags.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    assert main(argv) == 0
    payload = json.loads(out.read_bytes())
    assert payload["parameters"] == flags
    meta = payload["metadata"]
    assert [meta["grid"]["nx"], meta["grid"]["ny"], meta["dt"]] == [128, 96, 0.05]
    assert meta["steps-branch-2"] == 30
    assert sum(meta["histograms"]["branch-2"].values()) == 700
    assert [pmf["label"] for pmf in payload["pmfs"]] == ["branch-2"]


def test_cli_double_slit_histogram_csv(tmp_path):
    out = tmp_path / "hist.csv"
    code = main([
        "doubleslit", "--branch", "1", "--nx", "128", "--ny", "96",
        "--dt", "0.05", "--max-steps", "40", "--k0", "2.0", "--sigma", "3.0",
        "--shots", "500", "--seed", "3", "--csv", "--histogram",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_bytes().decode().strip().split("\n")
    assert lines[0] == "bin,count"
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 500


# ------------------------------------------------------------ import cost


# runs in a fresh interpreter: this process has SciPy and the C kernel loaded
# already.  Every shared library loaded goes through the recording CDLL, and a
# kernel build would write to the empty cache under XDG_CACHE_HOME.
SCIPY_PROBE = """
import ctypes, os, sys

loaded = []

class RecordingCDLL(ctypes.CDLL):
    def __init__(self, name, *args, **kwargs):
        loaded.append(os.path.basename(name))
        super().__init__(name, *args, **kwargs)

ctypes.CDLL = RecordingCDLL
cache = os.path.join(os.environ["XDG_CACHE_HOME"], "povmlab")

from povmlab import cli, run_scenario, emit

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

for name in ("wheeler", "hardy", "three-boxes", "eraser"):
    result = run_scenario(name)
    emit(result)
    emit(result, fmt="csv")
assert cli.main(["scenario", "wheeler"]) == 0
assert not scipy_modules(), scipy_modules()
assert not loaded and not os.path.exists(cache), (loaded, cache)

import numpy as np
from povmlab.doubleslit import Grid2D, Potential2D, Propagator, WavePacket2D

grid = Grid2D(16, 16, 4.0, 4.0)
prop = Propagator(Potential2D(grid, np.zeros((16, 16), dtype=bool)), 0.01)
prop.run(WavePacket2D(grid, np.ones((16, 16))), 1)
assert "scipy.linalg" in sys.modules, scipy_modules()
assert [name.split("-")[0] for name in loaded] == ["_tridiag"], loaded
assert os.listdir(cache) == loaded, (os.listdir(cache), loaded)
"""


def test_finite_layer_and_scenario_cli_never_load_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=probe_env(tmp_path),
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.startswith(b"{")


# scripts/byte_oracle.py's finite lines, ``povmlab scenario`` and these
# arguments: the JSON and the CSV of each scenario
FINITE_ORACLE = {
    "eraser": "45a0c50f16652ceb9f364e623307a2af1e4e101b1f70431c192a8e5f65e0fb88",
    "eraser --csv": "3fa9cb484a55e92fca38a83fafa43ebae5c317f434dea08c070dd2ac42d85489",
    "wheeler": "99032a5cbe2489d5bcafbb151574c82e84e3507da9beb9cd74b079900f5d494b",
    "wheeler --csv": "272d925594ca0e64398df5f03dc3faf9ac04f32fd8117a72cb126322312e38ad",
    "hardy": "e94988002a99833dfc4951fa3fbc389e0a2a32f4bd5d866019507cd638791a39",
    "hardy --csv": "97739674cbb78aff77c19bbf323455a6509c0324f2a2a28f8e3b3059604921d7",
    "three-boxes": "d3dd56b2659b81372e39b22d17507da6e32ffef3772b63c4b8fa7b891daf3d0f",
    "three-boxes --csv": "56fbb5b9a3c5f4d9dd05486a20eb44cf8b3b23bbf453e974a6c96e46dfd3efd3",
}


def _has_avx2() -> bool:
    from numpy._core._multiarray_umath import __cpu_features__

    return __cpu_features__.get("AVX2", False)


# OpenBLAS's core for each OPENBLAS_CORETYPE, as OPENBLAS_VERBOSE=2 names it
# on stderr (its Prescott kernels report as Katmai); unset, the host's own
CORETYPES = {None: r"\w+", "Prescott": "Katmai", "Haswell": "Haswell"}


@pytest.mark.parametrize("coretype", list(CORETYPES), ids=lambda c: c or "unset")
def test_the_byte_oracle_prints_the_pinned_finite_digests(coretype, tmp_path):
    # the digests must not depend on which BLAS kernels OpenBLAS picks for the host
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS's core types are x86-64's")
    if coretype == "Haswell" and not _has_avx2():
        pytest.skip("Haswell's kernels need AVX2")
    script = Path(__file__).resolve().parents[1] / "scripts" / "byte_oracle.py"
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env.update(XDG_CACHE_HOME=str(tmp_path), OPENBLAS_VERBOSE="2")
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    # an ignored variable would pass by construction: the core must be the one asked for
    cores = re.findall(r"^Core: (\w+)$", done.stderr.decode(), re.MULTILINE)
    assert cores and all(re.fullmatch(CORETYPES[coretype], core) for core in cores), cores
    lines = [line.split("  ", 1) for line in done.stdout.decode().splitlines()]
    prefix = "povmlab scenario "
    assert all(command.startswith(prefix) for _, command in lines)
    assert {command[len(prefix):]: digest for digest, command in lines} == FINITE_ORACLE
    assert len(lines) == len(FINITE_ORACLE)


# ------------------------------------------------- finite kernels, streamed


def _unitary(rng, dim):
    return np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]


def _pure_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.sqrt(np.vdot(v, v).real))


def _mixed_state(rng, dim):
    vs = [_pure_state(rng, dim).vector for _ in range(3)]
    return DensityOperator(sum(w * np.outer(v, v.conj()) for w, v in zip(rng.dirichlet(np.ones(3)), vs)))


def _povm(rng, dim, n, scale):
    """n random positive effects whitened to sum to ``scale`` times I."""
    raws = [z.conj().T @ z for z in rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))]
    w, v = np.linalg.eigh(sum(raws))
    root_inv = (v / np.sqrt(w)) @ v.conj().T
    return Povm(range(n), [scale * (root_inv @ r @ root_inv) for r in raws])


def _causal_tree(rng, nodes, outcomes, clash, dim):
    """Node t hangs under (t - 1) // 2.  Each observable is diagonal in one
    basis once pulled back to the root, so the tree is realizable, unless
    ``clash`` turns the last node's basis."""
    parents = {t: (t - 1) // 2 for t in range(1, nodes)}
    maps = {t: CausalMap(p, t, _unitary(rng, dim)) for t, p in parents.items()}
    frames = {0: np.eye(dim, dtype=complex)}
    for t, p in parents.items():
        frames[t] = maps[t].generator @ frames[p]
    basis = _unitary(rng, dim)
    observables = {}
    for t in range(nodes):
        w = frames[t] @ (basis @ _unitary(rng, dim) if clash and t == nodes - 1 else basis)
        weights = rng.dirichlet(np.ones(outcomes), size=dim) * rng.uniform(0.9, 1.0, size=(dim, 1))
        observables[t] = Povm(range(outcomes), [w @ np.diag(weights[:, x]) @ w.conj().T for x in range(outcomes)])
    return CausalTree(0, parents, maps, observables)


def _finite_stream(seed):
    """The emitted bytes of a seeded stream of finite-layer operations."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(4):  # erasers with the caller's inner observable
        theta, phi1, phi2 = rng.uniform(0.05, math.pi / 2 - 0.05), *rng.uniform(0, 2 * math.pi, size=2)
        alphas = math.cos(theta) * cmath.exp(1j * phi1), math.sin(theta) * cmath.exp(1j * phi2)
        out.append(emit(run_eraser(EraserSpec(*alphas, _povm(rng, 2, 2 + len(out) % 2, 1.0)))))
    for dim in range(2, 9):  # pull-backs, sub-normalized in odd dims
        povm = _povm(rng, dim, 2 + dim % 3, 0.95 if dim % 2 else 1.0)
        pulled = pull_back(CausalMap(0, 1, _unitary(rng, dim)), povm)
        for state in (_pure_state(rng, dim), _mixed_state(rng, dim)):
            result = ScenarioResult("pull-back", {"dim": dim}, [("pulled-back", outcome_pmf(pulled, state))])
            out.append(emit(result))
    for nodes in range(2, 6):  # causal trees, realized and refused
        for outcomes in (2, 3):
            for clash in (False, True):
                dim = 2 + (nodes + outcomes) % 3
                params = {"nodes": nodes, "outcomes": outcomes, "dim": dim}
                try:
                    realized = realize_sequential(_causal_tree(rng, nodes, outcomes, clash, dim))
                except NonCommuting as err:
                    assert clash and err.second == nodes - 1, err
                    refusal = {"first": err.first, "second": err.second, "norm": err.norm}
                    out.append(emit(ScenarioResult("causal-tree", params, [], metadata={"refused": refusal})))
                    continue
                assert not clash
                pmfs = [("pure", outcome_pmf(realized, _pure_state(rng, dim))),
                        ("mixed", outcome_pmf(realized, _mixed_state(rng, dim)))]
                out.append(emit(ScenarioResult("causal-tree", params, pmfs, metadata={"refused": None})))
                out.append(realized._stack.tobytes() + realized.total().tobytes())
    return out


STREAM_PROBE = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import test_scenarios
out = test_scenarios._finite_stream(29)
print(len(out), hashlib.sha256(b"".join(out)).hexdigest())
"""


def test_a_seeded_stream_of_finite_operations_keeps_its_bytes(tmp_path):
    # the canned drivers' oracle above leaves out refusal norms, pull-backs
    # of dims 2-8 on pure and mixed states, caller-supplied eraser
    # observables and the raw bits of realized products and their totals.
    # numpy's complex loops and OpenBLAS's zgemm round by the host's vector
    # units, so the stream runs on numpy's baseline loops and OpenBLAS's
    # Prescott kernels, which every x86-64 host has
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the pinned loops and kernels are x86-64's")
    tests = Path(__file__).resolve().parent
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]),
        "XDG_CACHE_HOME": str(tmp_path),
        "OPENBLAS_CORETYPE": "Prescott",
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3",
    }
    done = subprocess.run([sys.executable, "-c", STREAM_PROBE, str(tests)], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == [
        "42", "0ef22703d17fcd61154e841abf3f92a9e89db6f332bfb70fb29463f85a1b7096"]
