import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmlab.cli import main
from povmlab.doubleslit import (
    DetectorBinning,
    Grid2D,
    PhysicalParams,
    Propagator,
    SlitGeometry,
    SpongeConfig,
    build_potential,
    detector_pmf,
    init_packet,
)
from povmlab.errors import EmptyWindow, InvalidAmplitudes, ValidationError
from povmlab.measurement import Povm
from povmlab.scenarios import (
    SCENARIO_NAMES,
    DoubleSlitConfig,
    EraserSpec,
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


@pytest.mark.parametrize(
    "mass_target, stop", [(0.9, "mass-target"), (1.0, "screen-mass-peak")]
)
def test_lockstep_fields_match_single_branch_runs(mass_target, stop):
    # branch 2 is stepped alongside branch 1 and must roll back with it
    # when the screen-mass peak is seen one chunk late
    cfg = {**CHEAP, "mass_target": mass_target, "ordering_check": False}
    alone = run_doubleslit(DoubleSlitConfig(**cfg))
    both = run_doubleslit(DoubleSlitConfig(**{**cfg, "branch": "both"}))
    steps = alone.metadata["steps-branch-1"]
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
    geometry = SlitGeometry(
        hole_center=3.0, hole_width=5.0, septum_half_width=0.4, septum_strength=3.0
    )
    prop = Propagator(
        build_potential(grid, params, 2, geometry), 0.05, sponge=SpongeConfig(28, 6.0)
    )
    packet = prop.run(init_packet(grid, params, center=(-12.0, 1.3)), steps)
    separate = detector_pmf(packet, DetectorBinning(8.0, 0.6))
    assert both.pmf_named("branch-2").probabilities == separate.probabilities


def test_double_slit_config_validation():
    with pytest.raises(ValidationError):
        DoubleSlitConfig(branch="3")
    with pytest.raises(ValidationError):
        DoubleSlitConfig(shots=-1)
    with pytest.raises(ValidationError):
        DoubleSlitConfig(max_steps=0)


def test_double_slit_config_rejects_an_empty_fringe_window():
    # raised before any field is stepped, not after the whole run
    with pytest.raises(EmptyWindow):
        DoubleSlitConfig(window_lo=0, window_hi=0, branch="both")
    with pytest.raises(EmptyWindow):
        DoubleSlitConfig(window_lo=-3, window_hi=-4)
    assert DoubleSlitConfig(window_lo=0, window_hi=1).window == [1]
    assert DoubleSlitConfig().window == [-10, -9, -8, -7, -6, -5, -4]


def test_fixed_run_values_are_class_constants_not_fields():
    names = {f.name for f in fields(DoubleSlitConfig)}
    for name in ("septum_strength", "sponge_width", "sponge_strength"):
        assert name not in names
        with pytest.raises(TypeError):
            DoubleSlitConfig(**{name: getattr(DoubleSlitConfig, name)})


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


def test_cli_rejects_bad_requests():
    assert main(["scenario", "umbrella"]) == 2
    assert main(["scenario", "wheeler", "--alpha1", "0.6"]) == 2
    assert main(["scenario", "eraser", "--alpha1", "nope"]) == 2
    assert main(["scenario", "eraser", "--alpha1", "1", "--alpha2", "1"]) == 2
    assert main(["doubleslit", "--branch", "3"]) == 2
    assert main(["doubleslit", "--shots", "-5"]) == 2


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
